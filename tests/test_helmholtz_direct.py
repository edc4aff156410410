"""The Helmholtz ``direct`` rule: a block Cholesky solve by x-plane.

The rule factors the n plane blocks of the 7-point operator and solves
through them.  Its output agrees with a refined dense reference within
16 ulp of the solution's largest entry, and it is charged the DPBSV
price of a band of width n^2 over n^3 unknowns exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ExecutionError
from repro.multigrid.helmholtz3d import helmholtz_blocks
from repro.suite import get_benchmark
from repro.suite.helmholtz import ALPHA, BETA, DIRECT_MAX_SIZE

from dense_reference import (assert_within_ulp_bound, dense_from_blocks,
                             refined_solve)
from test_linalg import DPBSV_PRICES


@pytest.fixture(scope="module")
def helmholtz():
    spec = get_benchmark("helmholtz")
    program, _ = spec.compile()
    config = program.default_config().with_entries({
        "helmholtz@main.rule.phi": SizeDecisionTree([2]),  # direct
    })
    return spec, program, config


@pytest.mark.parametrize("n", (1, 3, DIRECT_MAX_SIZE))
def test_direct_rule_matches_dense_reference(helmholtz, n):
    spec, program, config = helmholtz
    for seed in range(3):
        inputs = spec.generate(n, np.random.default_rng(seed))
        result = program.execute(inputs, n, config, seed=0)
        phi = result.outputs["phi"]
        assert phi.shape == (n, n, n) and phi.dtype == np.float64
        dense = dense_from_blocks(*helmholtz_blocks(
            inputs["a"], inputs["b_coef"], 1.0 / (n + 1), alpha=ALPHA,
            beta=BETA))
        assert_within_ulp_bound(
            phi.reshape(-1), refined_solve(dense, inputs["f"].reshape(-1)),
            np.float64)
        assert result.metrics.cost == sum(DPBSV_PRICES[(n * n, n ** 3)])


def test_oversized_grid_raises(helmholtz):
    spec, program, config = helmholtz
    n = 15
    assert n > DIRECT_MAX_SIZE
    with pytest.raises(ExecutionError):
        program.execute(spec.generate(n, np.random.default_rng(0)), n,
                        config, seed=0)

"""The Poisson ``direct`` rule's cached band-Cholesky factor.

The 5-point Laplacian depends only on the grid size and working dtype,
so ``_direct_factor`` factors it once per ``(n, dtype)``.  The cache
must be invisible: the cached factor equals a fresh one bit for bit,
cannot be written through, and the rule's outputs and charged cost
equal an uncached factor-plus-solve — at B=1 and in a stacked wave.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ExecutionError
from repro.linalg.banded import banded_cholesky_factor, banded_cholesky_solve
from repro.linalg.poisson_ops import poisson_2d_banded
from repro.suite import get_benchmark
from repro.suite.poisson import DIRECT_MAX_SIZE, _direct_factor

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def fresh_factor(n: int, dtype: np.dtype) -> tuple[np.ndarray, float]:
    return banded_cholesky_factor(
        poisson_2d_banded(n, 1.0 / (n + 1), dtype=dtype))


@pytest.fixture(scope="module")
def poisson():
    spec = get_benchmark("poisson")
    program, _ = spec.compile()
    return spec, program


def direct_config(program, precision: str):
    return program.default_config().with_entries({
        "poisson@main.rule.u": SizeDecisionTree([2]),  # direct
        "poisson@main.precision": precision,
    })


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("n", (1, 3, 7, 15, DIRECT_MAX_SIZE))
def test_cached_factor_equals_fresh_factor(n, dtype):
    factor, ops = _direct_factor(n, dtype)
    expected, expected_ops = fresh_factor(n, dtype)
    assert not factor.flags.writeable
    assert factor.dtype == expected.dtype
    assert np.array_equal(factor, expected)
    assert ops == expected_ops


def test_second_call_is_a_hit():
    _direct_factor(7, np.dtype(np.float64))
    before = _direct_factor.cache_info()
    first = _direct_factor(7, np.dtype(np.float64))
    after = _direct_factor.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize
    assert _direct_factor(7, np.dtype(np.float64))[0] is first[0]


@pytest.mark.parametrize("precision", ("float64", "float32"))
@pytest.mark.parametrize("batch", (1, 5))
def test_direct_rule_matches_uncached_reference(poisson, precision, batch):
    spec, program = poisson
    n = 7
    problems = [spec.generate(n, np.random.default_rng(seed))
                for seed in range(batch)]
    inputs = problems[0]
    if batch > 1:  # one stacked (B, n, n) wave
        inputs = {key: np.stack([p[key] for p in problems])
                  for key in inputs}
    result = program.execute(inputs, n, direct_config(program, precision),
                             seed=0)

    dtype = np.dtype(precision)
    f = inputs["f"].astype(dtype)
    factor, factor_ops = fresh_factor(n, dtype)
    solution, solve_ops = banded_cholesky_solve(
        factor, f.reshape(f.shape[:-2] + (n * n,)))
    assert result.outputs["u"].dtype == dtype
    assert np.array_equal(result.outputs["u"], solution.reshape(f.shape))
    # Charged as a fresh factorization per request plus the solve,
    # scaled by the working dtype's itemsize like every charged cost.
    expected_cost = (factor_ops * batch + solve_ops) * dtype.itemsize / 8
    assert result.metrics.cost == expected_cost


def test_oversized_grid_raises_before_caching(poisson):
    spec, program = poisson
    n = 63
    assert n > DIRECT_MAX_SIZE
    inputs = spec.generate(n, np.random.default_rng(0))
    before = _direct_factor.cache_info().currsize
    with pytest.raises(ExecutionError):
        program.execute(inputs, n, direct_config(program, "float64"),
                        seed=0)
    assert _direct_factor.cache_info().currsize == before


def test_concurrent_first_calls_agree():
    _direct_factor.cache_clear()
    key = (15, np.dtype(np.float64))
    barrier = threading.Barrier(4)
    results = [None] * 4

    def first_call(slot):
        barrier.wait(timeout=10)
        results[slot] = _direct_factor(*key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_call, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected, expected_ops = fresh_factor(*key)
    for factor, ops in results:
        assert not factor.flags.writeable
        assert np.array_equal(factor, expected)
        assert ops == expected_ops

"""The Poisson ``direct`` rule's cached factor and its block solve.

The 5-point Laplacian depends only on the grid size and working dtype,
so ``_direct_factor`` factors it once per ``(n, dtype)`` and
``_direct_blocks`` keeps that factor's blocks for the block solve.  The
caches must be invisible: the cached factor equals a fresh one bit for
bit, neither can be written through, the block solve agrees with the
band sweep through a fresh factor within 16 ulp of the solution's
largest entry, and the rule's charged cost equals an uncached
factor-plus-solve exactly — at B=1 and in a stacked wave.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ExecutionError
from repro.linalg.banded import (
    banded_cholesky_factor,
    banded_cholesky_solve,
    block_cholesky_solve,
)
from repro.linalg.poisson_ops import poisson_2d_banded
from repro.suite import get_benchmark
from repro.suite.poisson import (DIRECT_MAX_SIZE, _direct_blocks,
                                 _direct_factor)
from test_batch_kernels import block_factor

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
SIZES = (1, 3, 7, 15, DIRECT_MAX_SIZE)
#: The block solve's distance from the band sweep, in units of the
#: working dtype's epsilon times the solution's largest entry.
ULP_BOUND = 16


def assert_within_ulp_bound(x, reference):
    bound = ULP_BOUND * np.finfo(reference.dtype).eps * \
        np.abs(reference).max()
    assert np.abs(x - reference).max() <= bound


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
@pytest.mark.parametrize("n", SIZES)
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


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_cached_blocks_are_the_factor_blocks(n, dtype):
    *blocks, factor_ops, solve_ops = _direct_blocks(n, dtype)
    factor, expected_factor_ops = fresh_factor(n, dtype)
    # (diag_inv, forward, backward), each rounded once from float64
    # products of the dense L's blocks.
    for block, expected in zip(blocks, block_factor(factor)):
        assert not block.flags.writeable
        assert block.dtype == dtype
        assert np.array_equal(block, expected)
    assert factor_ops == expected_factor_ops
    _, expected_solve_ops = banded_cholesky_solve(
        factor, np.zeros(n * n, dtype))
    assert solve_ops == expected_solve_ops


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_block_solve_matches_band_sweep(n, dtype):
    *blocks, _, _ = _direct_blocks(n, dtype)
    factor, _ = fresh_factor(n, dtype)
    rng = np.random.default_rng(n)
    for _ in range(10):
        b = rng.standard_normal((n, n)).astype(dtype)
        expected, _ = banded_cholesky_solve(factor, b.reshape(-1))
        x, _ = block_cholesky_solve(*blocks, b)
        assert x.dtype == dtype
        assert_within_ulp_bound(x.reshape(-1), expected)


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
    f = inputs["f"].astype(dtype).reshape(-1, n * n)
    factor, factor_ops = fresh_factor(n, dtype)
    u = result.outputs["u"]
    assert u.dtype == dtype
    assert u.shape == inputs["f"].shape
    solve_ops = 0.0
    for request, rhs in zip(u.reshape(-1, n * n), f):
        expected, ops = banded_cholesky_solve(factor, rhs)
        assert_within_ulp_bound(request, expected)
        solve_ops += ops
    # Charged as a fresh factorization per request plus the band solve,
    # scaled by the working dtype's itemsize like every charged cost.
    expected_cost = (factor_ops * batch + solve_ops) * dtype.itemsize / 8
    assert result.metrics.cost == expected_cost


@pytest.mark.parametrize("precision", ("float64", "float32"))
def test_stacked_wave_equals_per_request_runs(poisson, precision):
    spec, program = poisson
    n = 15
    config = direct_config(program, precision)
    problems = [spec.generate(n, np.random.default_rng(seed))
                for seed in range(5)]
    wave = program.execute({key: np.stack([p[key] for p in problems])
                            for key in problems[0]}, n, config, seed=0)
    singles = [program.execute(p, n, config, seed=0) for p in problems]
    for u, single in zip(wave.outputs["u"], singles):
        assert np.array_equal(u, single.outputs["u"])
    assert wave.metrics.cost == sum(s.metrics.cost for s in singles)


def test_oversized_grid_raises_before_caching(poisson):
    spec, program = poisson
    n = 63
    assert n > DIRECT_MAX_SIZE
    inputs = spec.generate(n, np.random.default_rng(0))
    before = (_direct_factor.cache_info().currsize,
              _direct_blocks.cache_info().currsize)
    with pytest.raises(ExecutionError):
        program.execute(inputs, n, direct_config(program, "float64"),
                        seed=0)
    assert (_direct_factor.cache_info().currsize,
            _direct_blocks.cache_info().currsize) == before


def first_calls_from_four_threads(cached, key):
    """``cached(*key)`` from four threads released together, with a
    tiny switch interval so their first calls interleave."""
    barrier = threading.Barrier(4)
    results = [None] * 4

    def first_call(slot):
        barrier.wait(timeout=10)
        results[slot] = cached(*key)

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
    return results


def test_concurrent_first_calls_agree():
    _direct_factor.cache_clear()
    key = (15, np.dtype(np.float64))
    results = first_calls_from_four_threads(_direct_factor, key)
    expected, expected_ops = fresh_factor(*key)
    for factor, ops in results:
        assert not factor.flags.writeable
        assert np.array_equal(factor, expected)
        assert ops == expected_ops


def test_concurrent_first_block_calls_agree():
    _direct_blocks.cache_clear()
    _direct_factor.cache_clear()
    key = (15, np.dtype(np.float32))
    results = first_calls_from_four_threads(_direct_blocks, key)
    *blocks, factor_ops, solve_ops = results[0]
    for other in results[1:]:
        for block, other_block in zip(blocks, other[:3]):
            assert np.array_equal(other_block, block)
        assert other[3:] == (factor_ops, solve_ops)
    for result in results:
        assert not any(block.flags.writeable for block in result[:3])

"""The Poisson ``direct`` rule's cached factor and its block solve.

The 5-point Laplacian depends only on the grid size and working dtype,
so ``_direct_blocks`` builds its blocks from the stencil, ``g`` whole
grid lines per block, and factors them once per ``(n, dtype)``.  The
blocks reassemble exactly into the dense Laplacian.  The cache must be
invisible: the cached blocks equal a fresh build bit for bit and
cannot be written through, the block solve agrees with a refined dense
reference within 16 ulp of the solution's largest entry, and the
rule's charged cost is the DPBSV price — one band factorization and
one band solve — exactly, at B=1 and in a stacked wave.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ExecutionError
from repro.linalg.banded import block_cholesky_factor, block_cholesky_solve
from repro.suite import get_benchmark
from repro.suite.poisson import (DIRECT_MAX_SIZE, _direct_blocks,
                                 _laplacian_blocks, _lines_per_block)

from dense_reference import (assert_within_ulp_bound, dense_from_blocks,
                             refined_solve)
from test_batch_kernels import poisson_stencil_blocks
from test_linalg import DPBSV_PRICES

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
SIZES = (1, 3, 7, 15, DIRECT_MAX_SIZE)


def dense_laplacian(n: int) -> np.ndarray:
    """The dense 5-point Laplacian, from the test's own line blocks."""
    return dense_from_blocks(*(
        array[0] for array in poisson_stencil_blocks(n, 1.0 / (n + 1))))


def grouped_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(diag, sub)`` sliced out of :func:`dense_laplacian`, ``g``
    grid lines per block."""
    width = _lines_per_block(n) * n
    dense = dense_laplacian(n)
    spans = [slice(start, start + width) for start in range(0, n * n, width)]
    diag = np.array([dense[span, span] for span in spans])
    sub = np.array([dense[span, above]
                    for above, span in zip(spans, spans[1:])])
    return diag, sub.reshape(-1, width, width)


def fresh_blocks(n: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """The folded factor built afresh: factored in float64 from blocks
    sliced out of the test's own dense Laplacian, rounded once to
    ``dtype``."""
    blocks, _ = block_cholesky_factor(*grouped_blocks(n))
    return tuple(block.astype(dtype) for block in blocks)


def grouped_rhs(n: int, b: np.ndarray) -> np.ndarray:
    """``b`` of shape ``(..., n, n)`` as the solve takes it:
    ``(..., n / g, g n)``."""
    return b.reshape(*b.shape[:-2], -1, _lines_per_block(n) * n)


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


@pytest.mark.parametrize("n, lines", [
    (1, 1), (3, 3), (7, 7), (15, 5), (31, 1), (63, 1), (127, 1)])
def test_lines_per_block(n, lines):
    # The largest divisor g of n with g * n <= 128 unknowns: n = 31 and
    # 127 are prime, and n = 63's smallest divisor is already too wide.
    assert _lines_per_block(n) == lines


@pytest.mark.parametrize("n", SIZES)
def test_grouped_blocks_reassemble_the_laplacian(n):
    diag, sub = _laplacian_blocks(n)
    width = _lines_per_block(n) * n
    assert diag.shape == (n * n // width, width, width)
    assert sub.shape == (n * n // width - 1, width, width)
    assert np.array_equal(dense_from_blocks(diag, sub), dense_laplacian(n))


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_cached_blocks_equal_fresh_build(n, dtype):
    *blocks, factor_ops, solve_ops = _direct_blocks(n, dtype)
    for block, expected in zip(blocks, fresh_blocks(n, dtype)):
        assert not block.flags.writeable
        assert block.dtype == dtype
        assert block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()
    assert (factor_ops, solve_ops) == DPBSV_PRICES[(n, n * n)]


def test_second_call_is_a_hit():
    _direct_blocks(7, np.dtype(np.float64))
    before = _direct_blocks.cache_info()
    first = _direct_blocks(7, np.dtype(np.float64))
    after = _direct_blocks.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize
    assert _direct_blocks(7, np.dtype(np.float64))[0] is first[0]


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("n", SIZES)
def test_block_solve_matches_dense_reference(n, dtype):
    *blocks, _, _ = _direct_blocks(n, dtype)
    rng = np.random.default_rng(n)
    b = rng.standard_normal((10, n, n)).astype(dtype)
    x, _ = block_cholesky_solve(*blocks, grouped_rhs(n, b))
    assert x.dtype == dtype
    reference = refined_solve(dense_laplacian(n), b.reshape(10, -1).T).T
    for request, expected in zip(x.reshape(10, -1), reference):
        assert_within_ulp_bound(request, expected, dtype)


@pytest.mark.parametrize("precision", ("float64", "float32"))
@pytest.mark.parametrize("batch", (1, 5))
def test_direct_rule_matches_dense_reference(poisson, precision, batch):
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
    u = result.outputs["u"]
    assert u.dtype == dtype
    assert u.shape == inputs["f"].shape
    reference = refined_solve(dense_laplacian(n), f.T).T
    for request, expected in zip(u.reshape(-1, n * n), reference):
        assert_within_ulp_bound(request, expected, dtype)
    # Charged a fresh band factorization and band solve per request,
    # scaled by the working dtype's itemsize like every charged cost.
    factor_ops, solve_ops = DPBSV_PRICES[(n, n * n)]
    expected_cost = (factor_ops + solve_ops) * batch * dtype.itemsize / 8
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
    before = _direct_blocks.cache_info().currsize
    with pytest.raises(ExecutionError):
        program.execute(inputs, n, direct_config(program, "float64"),
                        seed=0)
    assert _direct_blocks.cache_info().currsize == before


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


def test_concurrent_first_block_calls_agree():
    _direct_blocks.cache_clear()
    key = (15, np.dtype(np.float32))
    results = first_calls_from_four_threads(_direct_blocks, key)
    expected = fresh_blocks(*key)
    for result in results:
        for block, fresh in zip(result[:3], expected):
            assert not block.flags.writeable
            assert np.array_equal(block, fresh)
        assert result[3:] == DPBSV_PRICES[(15, 225)]

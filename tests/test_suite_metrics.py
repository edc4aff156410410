"""Suite accuracy metrics against their ``np.mean`` / ``np.clip`` forms.

The log-ratio metrics of the poisson, helmholtz, imagecompression and
preconditioner benchmarks compute an RMS (or norm) ratio and clamp its
log10 to +-16 orders.  Each must return, bit for bit, what the same
metric written with ``np.mean`` and ``float(np.clip(...))`` returns —
the tuner's comparisons and the served responses' achieved accuracy
both read these values.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.linalg.poisson_ops import apply_laplacian_1d
from repro.suite import get_benchmark
from repro.suite.poisson import rms

MAX_ORDERS = 16.0


def reference_rms(array):
    array = np.asarray(array, dtype=float)
    return float(math.sqrt(float(np.mean(array * array))))


def reference_orders(initial, error):
    if error == 0.0:
        return MAX_ORDERS
    if initial == 0.0:
        return 0.0
    return float(np.clip(math.log10(initial / error), -MAX_ORDERS,
                         MAX_ORDERS))


def grid_reference(output_key, exact_key):
    def metric(outputs, inputs):
        exact = inputs[exact_key]
        return reference_orders(reference_rms(exact),
                                reference_rms(outputs[output_key] - exact))
    return metric


def imagecompression_reference(outputs, inputs):
    matrix = np.asarray(inputs["matrix"], dtype=float)
    return reference_orders(float(np.linalg.norm(matrix)),
                            float(np.linalg.norm(matrix
                                                 - outputs["approx"])))


def preconditioner_reference(outputs, inputs):
    b = np.asarray(inputs["b_rhs"], dtype=float)
    extra = np.asarray(inputs["extra_diag"], dtype=float)
    applied = apply_laplacian_1d(np.asarray(outputs["x"], dtype=float),
                                 1.0, extra)
    return reference_orders(float(np.linalg.norm(b)),
                            float(np.linalg.norm(b - applied)))


def grid_cases(output_key, exact_key):
    """Outputs covering every branch of a metric comparing
    ``outputs[output_key]`` with ``inputs[exact_key]``."""
    def cases(inputs):
        exact = inputs[exact_key]
        noise = np.random.default_rng(1).standard_normal(exact.shape)
        outputs = (
            exact.copy(),                          # zero error: 16.0
            np.zeros_like(exact),                  # error == initial
            exact + 1e-3 * noise,
            (exact + 1e-3 * noise).astype(np.float32),
            exact + 1e-22 * noise,                 # clamped at 16
            exact + 1e22 * noise,                  # clamped at -16
            np.full_like(exact, np.nan),
        )
        return [({output_key: output}, inputs) for output in outputs]
    return cases


def preconditioner_cases(inputs):
    n = inputs["b_rhs"].shape[0]
    noise = np.random.default_rng(2).standard_normal(n)
    zero_rhs = dict(inputs, b_rhs=np.zeros(n))
    return [
        ({"x": np.zeros(n)}, inputs),                 # final == initial
        ({"x": np.zeros(n)}, zero_rhs),               # zero residual: 16.0
        ({"x": noise}, zero_rhs),                     # zero initial: 0.0
        ({"x": noise}, inputs),
        ({"x": noise.astype(np.float32)}, inputs),
        ({"x": 1e22 * noise}, inputs),
        ({"x": np.full(n, np.nan)}, inputs),
    ]


BENCHMARKS = {
    "poisson": (7, grid_reference("u", "u_exact"),
                grid_cases("u", "u_exact")),
    "helmholtz": (7, grid_reference("phi", "phi_exact"),
                  grid_cases("phi", "phi_exact")),
    "imagecompression": (8, imagecompression_reference,
                         grid_cases("approx", "matrix")),
    "preconditioner": (8, preconditioner_reference, preconditioner_cases),
}


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_metric_matches_mean_and_clip_form(name):
    n, reference, cases = BENCHMARKS[name]
    spec = get_benchmark(name)
    program, _ = spec.compile()
    inputs = spec.generate(n, np.random.default_rng(0))
    values = []
    for outputs, case_inputs in cases(inputs):
        value = program.accuracy_of(outputs, case_inputs)
        expected = reference(outputs, case_inputs)
        assert type(value) is float
        assert same_bits(value, expected), (name, value, expected)
        values.append(value)
    # The cases reach both clamps, the zero-error value, error equal
    # to initial, and NaN.
    assert {MAX_ORDERS, -MAX_ORDERS, 0.0} <= set(values)
    assert any(map(math.isnan, values))


@pytest.mark.parametrize("shape", [(7, 7), (15, 15), (31, 31), (7, 7, 7),
                                   (1000,)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rms_matches_mean_form(shape, dtype):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    for _ in range(20):
        array = (rng.standard_normal(shape)
                 * 10.0 ** rng.uniform(-8, 8, shape)).astype(dtype)
        assert same_bits(rms(array), reference_rms(array))

"""Statistical machinery for adaptive candidate testing.

Implements, from scratch (scipy is used only in tests as an oracle):

* normal fits ("we represent both time and accuracy by using least
  squares to fit a normal distribution to the observed data",
  Section 5.5.1 — for i.i.d. samples the least-squares fit is the
  sample mean/standard deviation);
* Welch's two-sample t-test, including the Student-t CDF via the
  regularized incomplete beta function;
* the paper's "95% probability of less than a 1% difference" closeness
  test on the fitted distribution of the mean percentage difference;
* one-sided confidence bounds used for statistical accuracy guarantees.
  The standard-normal quantile behind them is a 200-step bisection on
  :func:`normal_cdf`; it is a pure function of the confidence, so it is
  computed once per confidence value and cached (the cached value is
  the bisection's own result, bit for bit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "NormalFit",
    "fit_normal",
    "normal_cdf",
    "student_t_cdf",
    "welch_t_statistic",
    "welch_p_value",
    "welch_p_value_from_fits",
    "probability_within_fraction",
    "confidence_bound",
    "confidence_bound_from_fit",
]


@dataclass(frozen=True)
class NormalFit:
    """A fitted normal distribution with its sample count."""

    mean: float
    std: float
    count: int

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count <= 0:
            return float("inf")
        return self.std / math.sqrt(self.count)

    def is_singular(self) -> bool:
        """True for the degenerate (zero-variance) fit.

        The paper notes that hand-proven fixed accuracies make "the
        normal distributions become singular points."
        """
        return self.std == 0.0


def fit_normal(values: Sequence[float]) -> NormalFit:
    """Least-squares normal fit: sample mean and (population) std."""
    values = [float(v) for v in values]
    count = len(values)
    if count == 0:
        return NormalFit(mean=float("nan"), std=float("nan"), count=0)
    # The sample mean lies in [min, max] mathematically; float
    # summation can drift one ulp outside, so clamp it back.
    mean = min(max(sum(values) / count, min(values)), max(values))
    if count == 1:
        return NormalFit(mean=mean, std=0.0, count=1)
    try:
        variance = sum((v - mean) ** 2 for v in values) / (count - 1)
    except OverflowError:
        variance = float("inf")
    return NormalFit(mean=mean, std=math.sqrt(max(variance, 0.0)), count=count)


def normal_cdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """CDF of the normal distribution."""
    if std <= 0:
        return 0.0 if x < mean else 1.0
    return 0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0))))


# ----------------------------------------------------------------------
# Student-t distribution via the regularized incomplete beta function
# ----------------------------------------------------------------------
def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's algorithm)."""
    max_iterations = 300
    epsilon = 3e-14
    tiny = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_beta = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = df / (df + t * t)
    probability = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return probability if t < 0 else 1.0 - probability


# ----------------------------------------------------------------------
# Welch's t-test
# ----------------------------------------------------------------------
def welch_t_statistic(x: Sequence[float], y: Sequence[float]
                      ) -> tuple[float, float]:
    """Welch's t statistic and Welch–Satterthwaite degrees of freedom."""
    fx, fy = fit_normal(x), fit_normal(y)
    if fx.count < 2 or fy.count < 2:
        raise ValueError("welch_t_statistic needs >= 2 samples per side")
    return _welch_t(fx, fy)


def _welch_t(fx: NormalFit, fy: NormalFit) -> tuple[float, float]:
    vx = fx.std ** 2 / fx.count
    vy = fy.std ** 2 / fy.count
    pooled = vx + vy
    if pooled == 0.0:
        t = 0.0 if fx.mean == fy.mean else math.copysign(
            float("inf"), fx.mean - fy.mean)
        return t, float(fx.count + fy.count - 2)
    t = (fx.mean - fy.mean) / math.sqrt(pooled)
    df_num = pooled ** 2
    df_den = (vx ** 2 / (fx.count - 1)) + (vy ** 2 / (fy.count - 1))
    df = df_num / df_den if df_den > 0 else float(fx.count + fy.count - 2)
    return t, df


def welch_p_value(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided p-value of Welch's t-test.

    This estimates P(observed results | C1 = C2) in step 1 of the
    paper's comparison heuristic.  With fewer than two samples on
    either side no test is possible and 1.0 (no evidence of
    difference) is returned.
    """
    return welch_p_value_from_fits(fit_normal(x), fit_normal(y))


def welch_p_value_from_fits(fx: NormalFit, fy: NormalFit) -> float:
    """:func:`welch_p_value` of the samples ``fx`` and ``fy`` were fit to."""
    if fx.count < 2 or fy.count < 2:
        return 1.0
    t, df = _welch_t(fx, fy)
    if math.isinf(t):
        return 0.0
    return 2.0 * (1.0 - student_t_cdf(abs(t), df))


# ----------------------------------------------------------------------
# Closeness and confidence bounds
# ----------------------------------------------------------------------
def probability_within_fraction(x: Sequence[float], y: Sequence[float],
                                fraction: float = 0.01, *,
                                y_fit: NormalFit | None = None) -> float:
    """Probability that the mean percentage difference is < ``fraction``.

    Step 2 of the comparison heuristic: fit a normal to the paired
    percentage differences ``(x_i - y_i) / |mean(y)|`` and return the
    probability mass of the *mean* difference lying inside
    ``(-fraction, +fraction)``.  Unpaired surplus samples are ignored.
    ``y_fit``, when given, is ``fit_normal(y)`` already computed.
    """
    paired = min(len(x), len(y))
    if paired == 0:
        return 0.0
    fy = fit_normal(y) if y_fit is None else y_fit
    scale = abs(fy.mean)
    if scale == 0.0:
        scale = 1e-12
    differences = [(float(a) - float(b)) / scale
                   for a, b in zip(x[:paired], y[:paired])]
    # A near-zero (subnormal) scale can overflow a difference to inf;
    # such a mean difference lies outside any finite fraction.
    if not all(math.isfinite(d) for d in differences):
        return 0.0
    fit = fit_normal(differences)
    if fit.count == 1 or fit.is_singular():
        return 1.0 if abs(fit.mean) < fraction else 0.0
    return (normal_cdf(fraction, fit.mean, fit.stderr)
            - normal_cdf(-fraction, fit.mean, fit.stderr))


def confidence_bound(values: Sequence[float], confidence: float = 0.95,
                     side: str = "lower") -> float:
    """One-sided confidence bound on the mean of ``values``.

    Used for statistical accuracy guarantees: "performing off-line
    testing of accuracy ... to determine statistical bounds on an
    accuracy metric to within a desired level of confidence"
    (Section 3.3).  With a single sample the sample itself is returned.
    """
    return confidence_bound_from_fit(fit_normal(values), confidence, side)


def confidence_bound_from_fit(fit: NormalFit, confidence: float = 0.95,
                              side: str = "lower") -> float:
    """:func:`confidence_bound` of the samples ``fit`` was fit to."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper': {side!r}")
    if fit.count == 0:
        return float("nan")
    if fit.count == 1 or fit.is_singular():
        return fit.mean
    z = _normal_quantile(confidence)
    offset = z * fit.stderr
    return fit.mean - offset if side == "lower" else fit.mean + offset


@functools.lru_cache(maxsize=64)
def _normal_quantile(p: float) -> float:
    """Quantile of the standard normal via bisection on normal_cdf.

    Inverting the CDF by bisection avoids a scipy dependency for the
    inverse error function.  Cached per ``p``: a pure function, and
    its 200 steps would otherwise dominate every confidence bound.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1: {p}")
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

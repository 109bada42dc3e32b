"""Threshold equations for the typical longest-progression length.

For every family the count of progression k-orderings, extended from the
integer nodes 2..k_max to the reals, is matched against Gamma(x+1); the
crossing point is where the expected number of embedded k-progressions in a
random ordering passes 1, and the typical length concentrates on its
floor/ceiling.  k_max, the largest k with a positive count, is n for boxes
and cyclic groups and the exponent of any other group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import counting
from .errors import InternalInvariantError
from .groups import CYCLIC, INTERVAL, AdditiveSetSpec

RESIDUAL_TOL = 1e-9

# Lanczos approximation, g = 7 with 9 coefficients.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError("log_gamma requires x > 0")
    if x < 0.5:
        # reflection keeps the series argument away from the pole
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    series = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        series += c / (z + i)
    t = z + 7.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(series)


@dataclass(frozen=True)
class ThresholdResult:
    """Solved threshold with its integer window and solver diagnostics."""

    value: float
    window: tuple[int, int]
    family: str
    boundary_clamped: bool
    asymptotic: float | None
    residual: float
    mode: str = "interp"


@functools.lru_cache(maxsize=1 << 16)
def log_count(spec: AdditiveSetSpec, k: int) -> float:
    """Natural log of the exact progression k-ordering count at an integer
    node, evaluated in log space for the lattice family."""
    if spec.family == INTERVAL and spec.d > 1:
        p1 = counting.count_interval(spec.n, k).exact
        # log((p1 + n)^d - n^d) without materializing the powers
        log_big = spec.d * math.log(p1 + spec.n)
        log_small = spec.d * math.log(spec.n)
        return log_big + math.log1p(-math.exp(log_small - log_big))
    exact = counting.count_for_set(spec, k).exact
    if exact <= 0:
        raise ValueError(f"count is zero at k={k} for {spec}")
    return math.log(exact)


def _k_max(spec: AdditiveSetSpec) -> int:
    """Largest k with a positive count."""
    return spec.n if spec.family in (INTERVAL, CYCLIC) else spec.exponent


def continued_log_count(spec: AdditiveSetSpec, x: float, mode: str = "interp") -> float:
    """Log of the count sequence extended to real arguments on [2, k_max].

    interp: piecewise-linear interpolation of the log counts between integer
    nodes, exact at the nodes.  smooth: for the one-dimensional interval
    family only, log of (n-x+2)(n-1)/(x-1), the closed-form envelope of the
    exact count.
    """
    hi = _k_max(spec)
    if not 2.0 <= x <= hi:
        raise ValueError(f"x must be in [2, {hi}], got {x}")
    if mode == "smooth":
        if spec.family != INTERVAL or spec.d != 1:
            raise ValueError("smooth mode applies to the interval family with d=1")
        n = spec.n
        return math.log(n - x + 2) + math.log(n - 1) - math.log(x - 1)
    if mode != "interp":
        raise ValueError(f"unknown mode {mode!r}")
    k0 = math.floor(x)
    if k0 == x:
        return log_count(spec, int(x))
    f0 = log_count(spec, k0)
    f1 = log_count(spec, k0 + 1)
    return f0 + (x - k0) * (f1 - f0)


def asymptotic_estimate(n: int, d: int = 1) -> float:
    """First-order growth of the threshold: 2d log n / log log n."""
    if n <= 2:
        raise ValueError("asymptotic form needs n >= 3")
    return 2.0 * d * math.log(n) / math.log(math.log(n))


def _snap_to_integer(value: float, f, lo: float, hi: float) -> float:
    nearest = round(value)
    if lo <= nearest <= hi and abs(value - nearest) < 1e-6:
        if abs(f(float(nearest))) <= RESIDUAL_TOL:
            return float(nearest)
    return value


def solve_threshold(spec: AdditiveSetSpec, mode: str = "interp") -> ThresholdResult:
    """Root of log(count)(x) - log Gamma(x+1) = 0 on [2, k_max].

    The difference is strictly decreasing, so bisection converges; if it is
    already nonpositive at x = 2 the result clamps to 2, and if it is still
    positive at k_max (small boxes, and groups whose exponent is small
    against their size), it clamps to k_max.  The first-order asymptotic is
    reported for boxes and cyclic groups only.
    """
    hi = float(_k_max(spec))
    if hi < 2.0:
        raise ValueError(f"{spec} has no k >= 2")

    def f(x: float) -> float:
        return continued_log_count(spec, x, mode) - log_gamma(x + 1.0)

    asym = None
    if spec.family in (INTERVAL, CYCLIC) and spec.n >= 3:
        asym = asymptotic_estimate(spec.n, spec.d if spec.family == INTERVAL else 1)

    if f(2.0) <= 0:
        return ThresholdResult(2.0, (2, 2), str(spec), True, asym, abs(f(2.0)), mode)
    f_hi = f(hi)
    if f_hi >= 0:
        clamped = abs(f_hi) > RESIDUAL_TOL  # the root lies past k_max
        return ThresholdResult(hi, _window(hi), str(spec), clamped, asym, abs(f_hi), mode)
    value = _bisect(f, 2.0, hi)
    value = _snap_to_integer(value, f, 2.0, hi)
    residual = abs(f(value))
    if residual > RESIDUAL_TOL:
        raise InternalInvariantError(f"residual {residual} above tolerance for {spec}")
    return ThresholdResult(value, _window(value), str(spec), False, asym, residual, mode)


def _window(value: float) -> tuple[int, int]:
    return (math.floor(value), math.ceil(value))


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection for a strictly decreasing f with f(lo) > 0 > f(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = f(mid)
        if val == 0.0:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 and abs(val) <= RESIDUAL_TOL:
            return mid
    return 0.5 * (lo + hi)

"""Threshold equations for the typical longest-progression length.

For every family the count of progression k-orderings, extended from the
integer nodes 2..k_max to the reals, is matched against Gamma(x+1); the
crossing point is where the expected number of embedded k-progressions in a
random ordering passes 1, and the typical length concentrates on its
floor/ceiling.  k_max, the largest k with a positive count, is n for boxes
and the exponent of a group (n for a cyclic group).  The window is decided
by exact integer comparison of count(k) with k!; floats only place the value.
"""

from __future__ import annotations

import functools
import math

from . import counting
from .errors import InternalInvariantError
from .groups import CYCLIC, INTERVAL, AdditiveSetSpec, Frozen

RESIDUAL_TOL = 1e-9

_set = object.__setattr__


class ThresholdResult(Frozen):
    """Solved threshold with its integer window and solver diagnostics."""

    __slots__ = ("value", "window", "family", "boundary_clamped", "asymptotic", "residual", "mode")

    def __init__(
        self,
        value: float,
        window: tuple[int, int],
        family: str,
        boundary_clamped: bool,
        asymptotic: float | None,
        residual: float,
        mode: str = "interp",
    ):
        _set(self, "value", value)
        _set(self, "window", window)
        _set(self, "family", family)
        _set(self, "boundary_clamped", boundary_clamped)
        _set(self, "asymptotic", asymptotic)
        _set(self, "residual", residual)
        _set(self, "mode", mode)


@functools.lru_cache(maxsize=1 << 16)
def log_count(spec: AdditiveSetSpec, k: int) -> float:
    """Natural log of the exact progression k-ordering count at node k."""
    exact = counting.count_for_set(spec, k).exact
    if exact <= 0:
        raise ValueError(f"count is zero at k={k} for {spec}")
    return math.log(exact)


def _k_max(spec: AdditiveSetSpec) -> int:
    """Largest k with a positive count: the last radix, which is n for a box
    and the exponent of a group."""
    return spec.radixes[-1]


def _check_mode(spec: AdditiveSetSpec, mode: str) -> None:
    if mode == "smooth":
        if spec.family != INTERVAL or spec.d != 1:
            raise ValueError("smooth mode applies to the interval family with d=1")
    elif mode != "interp":
        raise ValueError(f"unknown mode {mode!r}")


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
    _check_mode(spec, mode)
    if mode == "smooth":
        n = spec.n
        return math.log(n - x + 2) + math.log(n - 1) - math.log(x - 1)
    k0 = math.floor(x)
    if k0 == x:
        return log_count(spec, int(x))
    f0 = log_count(spec, k0)
    f1 = log_count(spec, k0 + 1)
    return f0 + (x - k0) * (f1 - f0)


def _excess(spec: AdditiveSetSpec, k: int, mode: str) -> int:
    """An integer with the sign of count(k) - k! at the node k; in smooth
    mode the count is the envelope (n-k+2)(n-1)/(k-1), scaled by k-1."""
    if mode == "smooth":
        n = spec.n
        return (n - k + 2) * (n - 1) - (k - 1) * math.factorial(k)
    return counting.count_for_set(spec, k).exact - math.factorial(k)


def asymptotic_estimate(n: int, d: int = 1) -> float:
    """First-order growth of the threshold: 2d log n / log log n."""
    if n <= 2:
        raise ValueError("asymptotic form needs n >= 3")
    return 2.0 * d * math.log(n) / math.log(math.log(n))


def solve_threshold(spec: AdditiveSetSpec, mode: str = "interp") -> ThresholdResult:
    """Root of log(count)(x) - log Gamma(x+1) = 0 on [2, k_max].

    Counts do not increase in k, so the root follows the last node k with
    count(k) > k!, found by exact integer comparison; count(2) = |A|(|A|-1)
    >= 2! at every set.  The window is (k, k+1), or (k+1, k+1) when
    count(k+1) = (k+1)!; past k_max (small boxes, groups with a small
    exponent) it clamps to (k_max, k_max) with boundary_clamped set.  value
    and residual are diagnostics from bisection on math.lgamma.  The
    first-order asymptotic is reported for boxes and cyclic groups only.
    """
    k_max = _k_max(spec)
    if k_max < 2:
        raise ValueError(f"{spec} has no k >= 2")
    _check_mode(spec, mode)

    def f(x: float) -> float:
        return continued_log_count(spec, x, mode) - math.lgamma(x + 1.0)

    asym = None
    if spec.family in (INTERVAL, CYCLIC) and spec.n >= 3:
        asym = asymptotic_estimate(spec.n, spec.dimension)

    k = 2
    while k < k_max and _excess(spec, k + 1, mode) > 0:
        k += 1
    clamped = False
    if k == k_max:
        value, window = float(k), (k, k)
        clamped = _excess(spec, k, mode) > 0  # the root lies past k_max
    elif _excess(spec, k + 1, mode) == 0:
        value, window = float(k + 1), (k + 1, k + 1)
    else:
        value, window = _bisect(f, float(k), float(k + 1)), (k, k + 1)
    residual = abs(f(value))
    if not clamped and residual > RESIDUAL_TOL:
        raise InternalInvariantError(f"residual {residual} above tolerance for {spec}")
    return ThresholdResult(value, window, str(spec), clamped, asym, residual, mode)


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection to within 1e-13 for a strictly decreasing f with f(lo) > 0 > f(hi)."""
    while hi - lo >= 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

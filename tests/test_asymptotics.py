import math
from fractions import Fraction

import pytest

from apseq import counting
from apseq.asymptotics import (
    asymptotic_estimate,
    continued_log_count,
    log_count,
    solve_threshold,
)
from apseq.groups import abelian, cyclic, elementary, interval_box


def test_continued_log_count_node_exactness():
    for spec in [interval_box(10), cyclic(12), interval_box(4, 2)]:
        hi = spec.n
        for k in range(2, hi + 1):
            want = math.log(counting.count_for_set(spec, k).exact)
            assert abs(continued_log_count(spec, float(k)) - want) <= 1e-12


def test_continued_log_count_midpoint():
    got = continued_log_count(interval_box(10), 2.5)
    want = 0.5 * (math.log(90) + math.log(40))
    assert abs(got - want) <= 1e-12
    assert abs(got - 4.0943445622221) <= 1e-10


def test_continued_log_count_monotone():
    for spec in [interval_box(30), cyclic(30), interval_box(5, 2)]:
        xs = [2 + 0.25 * i for i in range(4 * (spec.n - 2) + 1)]
        vals = [continued_log_count(spec, x) for x in xs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_continued_log_count_domain():
    with pytest.raises(ValueError):
        continued_log_count(interval_box(10), 1.5)
    with pytest.raises(ValueError):
        continued_log_count(interval_box(10), 10.5)


def test_lattice_log_count_matches_exact():
    for n, k, d in [(3, 3, 2), (5, 3, 3), (9, 4, 2)]:
        want = math.log(counting.count_lattice(n, k, d).exact)
        assert abs(log_count(interval_box(n, d), k) - want) <= 1e-10


def test_exact_threshold_roots():
    assert abs(solve_threshold(interval_box(2)).value - 2.0) <= 1e-6
    assert abs(solve_threshold(cyclic(3)).value - 3.0) <= 1e-6
    assert abs(solve_threshold(elementary(3, 1)).value - 3.0) <= 1e-6


def test_threshold_residuals_and_windows():
    for spec in [interval_box(50), interval_box(1000), cyclic(50), cyclic(997),
                 elementary(7, 2), interval_box(9, 2)]:
        thr = solve_threshold(spec)
        assert thr.residual <= 1e-9
        assert thr.window == (math.floor(thr.value), math.ceil(thr.value))
        assert 2.0 <= thr.value or thr.boundary_clamped


def test_threshold_boundary_clamp():
    # count(2) = 2 = 2! for interval:2, so the root is the node 2 itself
    thr = solve_threshold(interval_box(2))
    assert not thr.boundary_clamped
    assert thr.window == (2, 2)


def test_threshold_abelian_chains():
    for spec, window in [(abelian(4, 8), (5, 6)), (abelian(10, 100), (9, 10)),
                         (abelian(50, 100), (10, 11))]:
        thr = solve_threshold(spec)
        assert thr.window == window, spec
        assert thr.residual <= 1e-9
        assert thr.asymptotic is None


def test_threshold_clamps_past_k_max_for_small_lattice():
    # counts exceed the factorial on the whole admissible range, so the root
    # lies past k_max = n and the window clamps there
    for n, d in [(3, 2), (3, 3), (4, 3), (5, 3)]:
        thr = solve_threshold(interval_box(n, d))
        assert thr.boundary_clamped
        assert thr.window == (n, n)
        assert thr.value == n


def test_smooth_mode_interval():
    spec = interval_box(100)
    thr_i = solve_threshold(spec, mode="interp")
    thr_s = solve_threshold(spec, mode="smooth")
    assert thr_s.residual <= 1e-9
    assert abs(thr_i.value - thr_s.value) < 1.0
    with pytest.raises(ValueError):
        solve_threshold(cyclic(10), mode="smooth")
    with pytest.raises(ValueError):
        continued_log_count(cyclic(10), 2.5, mode="smooth")


def test_smooth_mode_endpoints():
    spec = interval_box(50)
    n = 50
    assert abs(
        continued_log_count(spec, 2.0, mode="smooth") - math.log(n * (n - 1))
    ) <= 1e-12
    assert abs(continued_log_count(spec, float(n), mode="smooth") - math.log(2)) <= 1e-12


def test_asymptotic_estimate():
    assert abs(asymptotic_estimate(16, 1) - 2 * math.log(16) / math.log(math.log(16))) <= 1e-12
    assert abs(asymptotic_estimate(16, 1) - 5.4376136141023474) <= 1e-10
    assert abs(asymptotic_estimate(100, 2) - 2 * asymptotic_estimate(100, 1)) <= 1e-12
    for n in (1, 2):
        with pytest.raises(ValueError):
            asymptotic_estimate(n)


def test_threshold_to_asymptotic_ratio_behavior():
    # the ratio converges to 1 only beyond desk scale; over 1e2..1e6 the
    # computed values move away from 1 slowly and monotonically, which is
    # asserted as the observed trend
    ratios = []
    for n in (100, 1000, 10**4, 10**5, 10**6):
        thr = solve_threshold(interval_box(n))
        ratios.append(thr.value / asymptotic_estimate(n, 1))
    for r in ratios:
        assert 1.0 < r < 1.5
    for a, b in zip(ratios, ratios[1:]):
        assert b > a


def test_domination_sample():
    for n in range(3, 301):
        psi = solve_threshold(interval_box(n)).value
        chi = solve_threshold(cyclic(n)).value
        assert psi < chi, n


def test_elementary_threshold_growth():
    # the threshold grows with d until it meets p, the longest progression
    t1 = solve_threshold(elementary(7, 1)).value
    t2 = solve_threshold(elementary(7, 2)).value
    assert t1 < t2 <= 7
    for d in (4, 7):
        thr = solve_threshold(elementary(3, d))
        assert thr.value == 3.0
        assert thr.window == (3, 3)
        assert thr.boundary_clamped
        assert thr.asymptotic is None
    assert solve_threshold(elementary(2, 1)).value == 2.0


def _abelian_chains(limit):
    """Divisibility chains n_1 | ... | n_d with d >= 2 and product <= limit."""
    def extend(chain, size):
        if len(chain) >= 2:
            yield chain
        step = chain[-1]
        f = step
        while size * f <= limit:
            yield from extend(chain + (f,), size * f)
            f += step

    for first in range(2, limit + 1):
        yield from extend((first,), first)


def _integer_window(above, k_max):
    """The window from exact node values alone, with above(k) of the sign of
    count(k) - k!: the root of count(x) = Gamma(x+1) lies between the last
    node with count(k) > k! and the next node."""
    if above(2) <= 0:
        return (2, 2)
    k = 2
    while k < k_max and above(k + 1) > 0:
        k += 1
    if k == k_max:
        return (k_max, k_max)
    if above(k + 1) == 0:
        return (k + 1, k + 1)
    return (k, k + 1)


def _check_window(spec, k_max, mode, above):
    thr = solve_threshold(spec, mode)
    assert thr.window == _integer_window(above, k_max), (spec, mode)
    assert thr.boundary_clamped == (above(k_max) > 0), (spec, mode)
    assert (math.floor(thr.value), math.ceil(thr.value)) == thr.window, (spec, mode)


def test_threshold_windows_match_exact_counts():
    cases = []
    for n in range(2, 2001):
        cases += [(interval_box(n), n), (cyclic(n), n)]
    cases += [(interval_box(n, 2), n) for n in range(2, 100)]
    cases += [(interval_box(n, 3), n) for n in range(2, 40)]
    for p in (2, 3, 5, 7, 11, 13):
        d = 1
        while p**d <= 10**6:
            cases.append((elementary(p, d), p))
            d += 1
    cases += [(abelian(*chain), chain[-1]) for chain in _abelian_chains(512)]
    for spec, k_max in cases:
        _check_window(spec, k_max, "interp",
                      lambda k: counting.count_for_set(spec, k).exact - math.factorial(k))
    # smooth mode against the envelope (n-k+2)(n-1)/(k-1) of the interval count
    for n in range(2, 2001):
        _check_window(interval_box(n), n, "smooth",
                      lambda k: Fraction((n - k + 2) * (n - 1), k - 1) - math.factorial(k))

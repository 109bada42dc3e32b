import itertools
import time
import warnings

import pytest

from apseq import counting, groups
from apseq.counting import (
    APSpec,
    CountResult,
    bounds_abelian,
    bounds_interval,
    brute_force_count,
    brute_force_profile,
    count_abelian_exact,
    count_cyclic,
    count_interval,
    count_lattice,
    cycle_profile,
    iter_progressions,
    progression_terms,
    totient_sum_margin,
)
from apseq.errors import CapExceeded
from apseq.groups import abelian, cyclic, elementary, interval_box, totient


def _display_form(n, k):
    # the rejected variant: same leading term, (m^2 - m) instead of (m^2 + m)
    m = (n - 1) // (k - 1)
    return 2 * n * m - (k - 1) * (m * m - m)


def test_interval_conflict_points_against_oracle():
    # the two decisive inputs: the adopted summation form matches the brute
    # force, the display variant does not
    for n, k in [(7, 4), (10, 3)]:
        oracle = brute_force_count(interval_box(n), k).exact
        assert count_interval(n, k).exact == oracle
        assert _display_form(n, k) != oracle
    assert count_interval(7, 4).exact == 10
    assert _display_form(7, 4) == 22
    assert count_interval(10, 3).exact == 40
    assert _display_form(10, 3) == 56


def test_interval_small_cases():
    assert count_interval(5, 5).exact == 2
    for n in range(2, 30):
        assert count_interval(n, 2).exact == n * (n - 1)


def test_interval_domain_errors():
    for n, k in [(0, 2), (5, 0), (5, -1)]:
        with pytest.raises(ValueError):
            count_interval(n, k)
    # k = 1 counts the singletons and k past the longest line counts nothing,
    # on the closed route as on brute force, for every family
    specs = [interval_box(n) for n in range(1, 7)] + [
        interval_box(2, 3), interval_box(3, 2), interval_box(1, 4),
        cyclic(1), cyclic(7), abelian(2, 4), elementary(3, 2),
    ]
    for spec in specs:
        for k in (1, spec.radixes[-1] + 1, spec.cardinality + 1):
            closed = counting.count_for_set(spec, k).exact
            assert closed == brute_force_count(spec, k).exact, (spec, k)
            assert closed == (spec.cardinality if k == 1 else 0), (spec, k)
    assert count_interval(5, 1).exact == 5 and count_interval(5, 6).exact == 0
    assert count_lattice(3, 1, 2).exact == 9


def test_count_lattice_k_above_n_is_zero():
    # a box of side n holds no progression of more than n terms
    for n, d in [(2, 4), (3, 4), (2, 2), (4, 3)]:
        assert count_lattice(n, n + 1, d).exact == 0
    for n in (2, 3):
        assert brute_force_count(interval_box(n, 4), n + 1).exact == 0


def test_bounds_interval_examples():
    b = bounds_interval(7, 4)
    assert (b.lower, b.upper) == (7, 11)
    assert b.lower <= count_interval(7, 4).exact <= b.upper
    b = bounds_interval(5, 2)
    assert (b.lower, b.upper) == (20, 20)
    assert b.lower == count_interval(5, 2).exact
    b = bounds_interval(100, 10)
    assert b.lower <= count_interval(100, 10).exact <= b.upper


def test_bounds_interval_bracket_sweep():
    for n in range(2, 201):
        for k in range(2, n + 1):
            b = bounds_interval(n, k)
            assert b.lower <= count_interval(n, k).exact <= b.upper, (n, k)


def test_count_lattice_examples():
    assert count_lattice(3, 3, 2).exact == 16
    assert count_lattice(2, 2, 3).exact == 56
    for n in range(2, 12):
        for k in range(2, n + 1):
            assert count_lattice(n, k, 1).exact == count_interval(n, k).exact


def test_count_cyclic_examples():
    assert count_cyclic(7, 5).exact == 42
    assert count_cyclic(12, 12).exact == 48
    assert count_cyclic(4, 3).exact == 8
    assert count_cyclic(12, 3).exact == 120
    assert count_cyclic(5, 1).exact == 5
    assert count_cyclic(5, 9).exact == 0
    for p in (5, 7, 11, 13):
        for k in range(2, p + 1):
            assert count_cyclic(p, k).exact == p * (p - 1)
    for n in range(2, 40):
        assert count_cyclic(n, n).exact == n * totient(n)


def test_count_abelian_exact_examples():
    assert count_abelian_exact(elementary(3, 2), 3).exact == 72
    assert count_abelian_exact(abelian(2, 4), 3).exact == 32
    # count_cyclic reads the same order tally, so both are checked against
    # the divisor-totient formula n * (n - sum of totient(j), j | n, j < k)
    for n in range(2, 201):
        divs = [j for j in range(1, n + 1) if n % j == 0]
        for k in range(2, n + 3):
            want = n * (n - sum(totient(j) for j in divs if j < k))
            assert count_abelian_exact(cyclic(n), k).exact == want, (n, k)
            assert count_cyclic(n, k).exact == want, (n, k)
    # above the set cap: only the orders 1 and 2 lie below 3
    assert count_cyclic(10**12, 3).exact == 10**12 * (10**12 - 2)
    with pytest.raises(ValueError):
        count_abelian_exact(interval_box(5), 2)


def test_count_abelian_divisor_route_matches_iteration():
    # the divisor-counting route must agree with direct order iteration
    for spec in [cyclic(36), abelian(2, 4, 8), abelian(6, 12), elementary(3, 3)]:
        n = spec.cardinality
        for k in range(2, spec.exponent + 1):
            direct = sum(
                1 for x in groups.elements(spec) if groups.element_order(spec, x) >= k
            )
            via_divisors = count_abelian_exact(spec, k).exact // n
            assert direct == via_divisors, (spec, k)


def test_bounds_abelian_cyclic_collapse():
    for n in (5, 8, 12):
        for k in range(2, n + 1):
            b = bounds_abelian(cyclic(n), k)
            assert b.lower == count_cyclic(n, k).exact
            assert b.upper == n * (n - 1)


def test_bounds_abelian_first_factor_range():
    # whenever k fits inside the first invariant factor both bounds bracket
    cases = [((4, 8), 3), ((4, 8), 4), ((2, 4), 2), ((6, 6), 5), ((2, 2, 4), 2)]
    for chain, k in cases:
        spec = abelian(*chain)
        b = bounds_abelian(spec, k)
        exact = count_abelian_exact(spec, k).exact
        assert b.lower <= exact <= b.upper, (chain, k)


def test_bounds_abelian_upper_holds_past_first_factor():
    # with k above the first invariant factor, steps that are nontrivial early
    # but have large order must still be counted.  The old upper bound
    # n * prod(n_j..n_d) - n dropped the early factors and undercounted here:
    # (2,4) at k=3 gave 24 against the true 32 (brute-force oracle).
    spec = abelian(2, 4)
    b = bounds_abelian(spec, 3)
    exact = brute_force_count(spec, 3).exact
    assert exact == 32
    assert b.lower == 16
    assert b.upper == 48
    assert b.lower <= exact <= b.upper


def test_bounds_abelian_elementary_tight():
    for p, d in [(3, 2), (5, 2), (2, 3)]:
        spec = abelian(*([p] * d))
        for k in range(2, p + 1):
            b = bounds_abelian(spec, k)
            assert b.upper == p ** (2 * d) - p**d
            assert b.upper == count_abelian_exact(spec, k).exact


def test_bounds_abelian_domain():
    with pytest.raises(ValueError):
        bounds_abelian(abelian(2, 4), 5)


def test_oracle_equivalence_small():
    for n in range(2, 13):
        for k in range(2, n + 1):
            assert count_interval(n, k).exact == brute_force_count(interval_box(n), k).exact
            assert count_cyclic(n, k).exact == brute_force_count(cyclic(n), k).exact
    for n in range(2, 5):
        for d in (2, 3):
            for k in range(2, n + 1):
                assert (
                    count_lattice(n, k, d).exact
                    == brute_force_count(interval_box(n, d), k).exact
                )


def test_brute_force_k1_and_caps():
    assert brute_force_count(cyclic(6), 1).exact == 6
    assert brute_force_count(interval_box(3, 2), 1).exact == 9
    with pytest.raises(CapExceeded):
        brute_force_count(cyclic(20000), 2)
    with pytest.raises(CapExceeded):
        brute_force_count(interval_box(51), 2)


def test_brute_force_capped_by_pairs():
    # interval:50,3 has 125,000 bases and 99^3 steps, far past the budget
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="brute force"):
        brute_force_count(interval_box(50, 3), 3)
    assert time.perf_counter() - start < 1.0
    # boxes of any dimension within the budget are walked; count_lattice
    # takes k <= n, and no 3 terms fit in a box of side 2
    assert brute_force_count(interval_box(2, 4), 2).exact == count_lattice(2, 2, 4).exact
    assert brute_force_count(interval_box(2, 4), 3).exact == 0
    for k in (2, 3):
        assert brute_force_count(interval_box(3, 4), k).exact == count_lattice(3, k, 4).exact


def test_cycle_profile_matches_brute_profile():
    for spec in [cyclic(12), abelian(2, 4), abelian(4, 8), elementary(3, 2)]:
        kmax = spec.exponent + 1
        assert cycle_profile(spec, kmax) == brute_force_profile(spec, kmax)


def test_counts_nonincreasing_in_k():
    for n in (7, 12, 30, 100):
        prev = count_interval(n, 2).exact
        prev_c = count_cyclic(n, 2).exact
        for k in range(3, n + 1):
            cur = count_interval(n, k).exact
            cur_c = count_cyclic(n, k).exact
            assert cur <= prev and cur_c <= prev_c
            prev, prev_c = cur, cur_c


def test_parity_and_divisibility():
    for n in range(2, 60):
        for k in range(2, n + 1):
            assert count_interval(n, k).exact % 2 == 0
            assert count_cyclic(n, k).exact % n == 0
    for spec in [abelian(2, 4), elementary(3, 2)]:
        for k in range(2, spec.exponent + 1):
            assert count_abelian_exact(spec, k).exact % spec.cardinality == 0


def test_p2_equals_q2():
    for n in range(2, 50):
        assert count_interval(n, 2).exact == count_cyclic(n, 2).exact == n * (n - 1)


def test_totient_sum_diagnostic():
    violations = []
    for n in range(2, 501):
        for k in range(2, min(n, 40) + 1):
            if totient_sum_margin(n, k) < 0:
                violations.append((n, k))
    if violations:
        warnings.warn(f"totient-sum diagnostic below zero at {violations[:10]}")


def test_count_result_invariants():
    with pytest.raises(ValueError):
        CountResult(5, 3, "BoundsOnly")
    with pytest.raises(ValueError):
        CountResult(3, 5, "ClosedForm", exact=6)


def test_progression_terms_validation():
    spec = cyclic(7)
    terms = progression_terms(spec, APSpec((0,), (6,), 4))
    assert terms == ((0,), (6,), (5,), (4,))
    with pytest.raises(ValueError):
        progression_terms(spec, APSpec((0,), (0,), 3))
    with pytest.raises(ValueError):
        progression_terms(cyclic(4), APSpec((0,), (2,), 3))
    with pytest.raises(ValueError):
        progression_terms(interval_box(5), APSpec((4,), (1,), 3))


def test_iter_progressions_counts_and_validity():
    for spec, k in [(interval_box(7), 4), (cyclic(7), 4), (abelian(2, 4), 3)]:
        seen = set()
        for ap, terms in iter_progressions(spec, k):
            assert progression_terms(spec, ap) == terms
            assert terms not in seen
            seen.add(terms)
        assert len(seen) == brute_force_count(spec, k).exact


TABLE_SPECS = (
    [cyclic(n) for n in range(1, 13)]
    + [abelian(2, 4), abelian(3, 9), abelian(2, 6, 12), elementary(3, 3)]
    + [interval_box(n) for n in range(1, 8)]
    + [interval_box(4, 2), interval_box(3, 3), interval_box(2, 3)]
)


def _coordinate_steps(spec):
    # every nonzero step as a coordinate tuple, in the oracles' order
    if spec.family == groups.INTERVAL:
        span = range(-(spec.n - 1), spec.n)
        return [r for r in itertools.product(span, repeat=spec.d) if any(r)]
    return list(groups.elements(spec))[1:]


def _coordinate_add(spec, x, r):
    if spec.family == groups.INTERVAL:
        return tuple(a + b for a, b in zip(x, r))
    return tuple((a + b) % m for a, b, m in zip(x, r, spec.moduli))


def _reference_progressions(spec, k):
    # the coordinate-tuple walker: boxes stop where a term leaves the box,
    # groups keep the steps of order >= k
    out = []
    elems = list(groups.elements(spec))
    for r in _coordinate_steps(spec):
        if spec.is_group and groups.element_order(spec, r) < k:
            continue
        for a in elems:
            terms = [a]
            for _ in range(k - 1):
                nxt = _coordinate_add(spec, terms[-1], r)
                if not groups.is_valid_element(spec, nxt):
                    break
                terms.append(nxt)
            else:
                out.append((APSpec(a, r, k), tuple(terms)))
    return out


def _k_max(spec):
    return spec.n if spec.family == groups.INTERVAL else spec.exponent


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_succ_table_matches_coordinate_arithmetic(spec):
    elems = list(groups.elements(spec))
    for r in _coordinate_steps(spec):
        table = counting._succ_table(spec, r)
        assert len(table) == len(elems)
        for x, entry in zip(elems, table):
            y = _coordinate_add(spec, x, r)
            if groups.is_valid_element(spec, y):
                assert entry == groups.canonical_index(spec, y), (spec, r, x)
            else:
                assert spec.family == groups.INTERVAL and entry < 0, (spec, r, x)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_oracle_walkers_match_coordinate_reference(spec):
    k_max = _k_max(spec)
    profile = [0, spec.cardinality]
    for k in range(2, k_max + 2):
        want = _reference_progressions(spec, k)
        assert list(iter_progressions(spec, k)) == want, (spec, k)
        profile.append(len(want))
    assert brute_force_profile(spec, k_max + 1) == profile

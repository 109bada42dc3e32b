"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import math
import random
import subprocess
import sys

import pytest

from apseq import asymptotics, counting, enumeration, las, montecarlo
from apseq.cli import _golden_rows
from apseq.groups import abelian, cyclic, elementary, interval_box


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def _chains_upto(limit: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(chain: list[int], prod: int) -> None:
        if chain:
            out.append(tuple(chain))
        f = chain[-1] if chain else 2
        while prod * f <= limit:
            if f % (chain[-1] if chain else 1) == 0:
                rec(chain + [f], prod * f)
            f += 1

    rec([], 1)
    return out


def test_criterion_01_golden_tables():
    ok = True
    for family, make in (("interval", interval_box), ("cyclic", cyclic)):
        golden = _golden_rows(family)
        for n in range(1, 10):
            row = enumeration.distribution(make(n)).row()
            want = golden[n][: n]
            ok = ok and row == want and sum(row) == math.factorial(n)
    assert _report(1, "enumerated distributions match golden tables for n <= 9", ok)


@pytest.mark.extended
def test_criterion_01_extended_rows_10_to_12():
    # hours of CPU at n = 12; the interval family enumerates all 12! orderings
    # under --parallel while the cyclic family uses the validated reduction
    ok = True
    for n in (10, 11, 12):
        want_i = _golden_rows("interval")[n][:n]
        got_i = enumeration.distribution(interval_box(n), parallel=4).row()
        want_c = _golden_rows("cyclic")[n][:n]
        got_c = enumeration.distribution(cyclic(n), symmetry_reduction=True).row()
        ok = ok and got_i == want_i and got_c == want_c
    assert _report(1, "extended rows n = 10..12 match golden tables", ok)


def test_criterion_02_oracle_equivalence():
    ok = True
    # interval and cyclic, all 2 <= k <= n <= 30, via the per-base walker
    for n in range(2, 31):
        prof_i = counting.brute_force_profile(interval_box(n), n)
        prof_c = counting.brute_force_profile(cyclic(n), n)
        for k in range(2, n + 1):
            ok = ok and counting.count_interval(n, k).exact == prof_i[k]
            ok = ok and counting.count_cyclic(n, k).exact == prof_c[k]
    # the adopted formula matches the oracle where the display variant fails
    m = (7 - 1) // (4 - 1)
    display_form = 2 * 7 * m - (4 - 1) * (m * m - m)
    oracle_74 = counting.brute_force_count(interval_box(7), 4).exact
    ok = ok and counting.count_interval(7, 4).exact == oracle_74 == 10
    ok = ok and display_form == 22 != oracle_74
    # lattice boxes, d <= 3, n <= 8
    for d in (2, 3):
        for n in range(2, 9):
            prof = counting.brute_force_profile(interval_box(n, d), n)
            for k in range(2, n + 1):
                ok = ok and counting.count_lattice(n, k, d).exact == prof[k]
    # abelian chains with |Z| <= 512; the cycle walker is itself validated
    # against the per-base walker on every chain with |Z| <= 64
    for chain in _chains_upto(512):
        spec = abelian(*chain) if len(chain) > 1 else cyclic(chain[0])
        kmax = min(chain[-1], 30)
        if kmax < 2:
            continue
        prof = counting.cycle_profile(spec, kmax)
        if spec.cardinality <= 64:
            ok = ok and prof == counting.brute_force_profile(spec, kmax)
        for k in range(2, kmax + 1):
            ok = ok and counting.count_abelian_exact(spec, k).exact == prof[k]
    assert _report(2, "closed forms equal the brute-force oracle on every swept case", ok)


def test_criterion_03_bounds_bracketing():
    ok_interval = True
    for n in range(2, 201):
        for k in range(2, n + 1):
            b = counting.bounds_interval(n, k)
            exact = counting.count_interval(n, k).exact
            ok_interval = ok_interval and b.lower <= exact <= b.upper
    violations = []
    for chain in _chains_upto(512):
        spec = abelian(*chain) if len(chain) > 1 else cyclic(chain[0])
        for k in range(2, min(chain[-1], 30) + 1):
            b = counting.bounds_abelian(spec, k)
            exact = counting.count_abelian_exact(spec, k).exact
            if not b.lower <= exact <= b.upper:
                violations.append((chain, k, b.lower, exact, b.upper))
    ok = ok_interval and not violations
    _report(
        3,
        "closed-form bounds bracket the exact counts "
        f"(interval ok={ok_interval}; abelian upper-bound violations: "
        f"{len(violations)}, first: {violations[:1]})",
        ok,
    )
    # The upper bound must keep the early factors n_1..n_{j-1} once k exceeds
    # the first invariant factor (smallest case: chain (2,4), k=3, true count
    # 32, which the product of the late factors alone put at 24).
    assert ok, (
        f"abelian upper bound fails on {len(violations)} (chain, k) cases, "
        f"e.g. {violations[:3]}"
    )


def test_criterion_04_three_free_structure():
    ok = True
    for n in (2, 4, 6, 8):
        row = enumeration.distribution(cyclic(n)).row()
        ok = ok and row[1] == enumeration.three_free_count(n)
    ok = ok and [enumeration.three_free_count(n) for n in (2, 4, 6, 8)] == [2, 8, 0, 128]
    image = enumeration.three_free_orderings(4)
    distinct = {o.indices for o in image}
    ok = ok and len(image) == 2**15 and len(distinct) == 2**15
    engine = las.length_engine(cyclic(16))
    for o in image:
        if not enumeration.three_free_structure_check(o):
            ok = False
            break
        if engine.length_of_indices(o.indices) != 2:
            ok = False
            break
    assert _report(
        4, "3-free counts match enumeration; the m=4 construction emits 2^15 "
        "distinct block orderings, all structure-checked and 3-free", ok
    )


def test_criterion_05_exact_threshold_roots():
    ok = abs(asymptotics.solve_threshold(interval_box(2)).value - 2.0) <= 1e-6
    ok = ok and abs(asymptotics.solve_threshold(cyclic(3)).value - 3.0) <= 1e-6
    ok = ok and abs(asymptotics.solve_threshold(elementary(3, 1)).value - 3.0) <= 1e-6
    for k in range(0, 21):
        ok = ok and abs(
            math.lgamma(k + 1) - math.log(math.factorial(k))
        ) <= 1e-9
    assert _report(5, "threshold roots exact at 2, 3, 3 and math.lgamma matches "
                      "log-factorial to 1e-9", ok)


def test_criterion_06_domination():
    ok = True
    for n in range(3, 10**4 + 1):
        psi = asymptotics.solve_threshold(interval_box(n)).value
        chi = asymptotics.solve_threshold(cyclic(n)).value
        if not psi < chi:
            ok = False
            break
    assert _report(6, "interval threshold stays below the cyclic threshold "
                      "for all 3 <= n <= 10^4", ok)


def test_criterion_07_expectation_law():
    ok = True
    cases = [
        (interval_box(50), 3),
        (interval_box(100), 4),
        (cyclic(50), 3),
    ]
    for spec, k in cases:
        stats = montecarlo.estimate_Nk_mean(
            montecarlo.ExperimentConfig(spec, 2000, 7, k)
        )
        ok = ok and abs(stats.z) <= 3
    assert _report(7, "sampled progression counts sit within 3 standard "
                      "errors of count/k! on the committed battery", ok)


def test_criterion_08_distribution_convergence():
    ok = True
    for make in (interval_box, cyclic):
        spec = make(7)
        table = enumeration.distribution(spec)
        exact = {k: c / table.total for k, c in table.as_dict().items()}
        hist = montecarlo.empirical_L_distribution(
            montecarlo.ExperimentConfig(spec, 10**5, 11)
        )
        keys = set(exact) | set(hist)
        tv = 0.5 * sum(abs(hist.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
        ok = ok and tv <= 0.01
    assert _report(8, "empirical length distributions at n=7 are within "
                      "total variation 0.01 of the exact tables", ok)


def test_criterion_09_concentration_window():
    ok = True
    lines = []
    for make in (interval_box, cyclic):
        for n in (200, 500, 1000):
            spec = make(n)
            thr = asymptotics.solve_threshold(spec)
            hist = montecarlo.empirical_L_distribution(
                montecarlo.ExperimentConfig(spec, 200, 20260808)
            )
            mode = max(sorted(hist), key=lambda k: hist[k])
            coverage = sum(
                v for k, v in hist.items() if thr.window[0] <= k <= thr.window[1]
            )
            lines.append(f"{spec}: window={thr.window} mode={mode} coverage={coverage:.2f}")
            ok = ok and thr.window[0] <= mode <= thr.window[1]
    print("; ".join(lines))
    assert _report(9, "empirical mode of the length lies in the solver window "
                      "at n in {200, 500, 1000}; coverage reported above", ok)


def test_criterion_10_las_agreement():
    ok = True
    for card in range(2, 7):
        for spec in (cyclic(card),):
            for perm in itertools.permutations(range(card)):
                o = las.Ordering.from_indices(spec, perm)
                if las.longest_ap_orbitwalk(o).length != las.longest_ap_pairdp(o).length:
                    ok = False
    for chain in [(2, 2), (2, 4), (6,)][:2]:
        spec = abelian(*chain)
        for perm in itertools.permutations(range(spec.cardinality)):
            o = las.Ordering.from_indices(spec, perm)
            if las.longest_ap_orbitwalk(o).length != las.longest_ap_pairdp(o).length:
                ok = False
    pool = (
        [cyclic(n) for n in (8, 12, 20, 31, 45, 60, 64, 81, 100, 128, 150, 200)]
        + [
            abelian(2, 4),
            abelian(2, 2, 2),
            abelian(4, 8),
            abelian(2, 4, 8),
            abelian(6, 6),
            abelian(2, 6, 12),
            abelian(10, 10),
            abelian(14, 14),
            abelian(5, 25),
            abelian(3, 3, 9),
            abelian(2, 2, 2, 2, 2),
            abelian(2, 2, 4, 4),
        ]
    )
    rnd = random.Random(424242)
    checked = 0
    while checked < 10**4 and ok:
        spec = pool[checked % len(pool)]
        indices = list(range(spec.cardinality))
        rnd.shuffle(indices)
        o = las.Ordering.from_indices(spec, indices)
        if las.longest_ap_orbitwalk(o).length != las.longest_ap_pairdp(o).length:
            ok = False
        checked += 1
    assert _report(10, f"orbit walk and pair DP lengths agree on 10^4 random "
                       f"orderings (checked {checked}) and exhaustively for "
                       f"|A| <= 6", ok)


def test_criterion_11_noncommutative():
    from apseq import nonabelian

    counts_ok = True
    for n in range(2, 9):
        for k in range(2, min(6, 2 * n) + 1):
            if nonabelian.left_ap_count(n, k) != nonabelian.right_ap_count(n, k):
                counts_ok = False
    a = nonabelian.FreeWord.generator(1)
    b = nonabelian.FreeWord.generator(2)
    seq = [a, b * a, b * b * a]
    left_ok = nonabelian.is_left_ap(seq)
    # In any group a left progression is also a right progression with the
    # step conjugated by the base point: (b^i a)^-1 (b^(i+1) a) = a^-1 b a.
    # In the free group that right step differs from the left step b.
    right_ok = nonabelian.is_right_ap(seq)
    right_step = seq[0].inverse() * seq[1]
    steps_differ = right_step == a.inverse() * b * a and right_step != b
    bij_ok = True
    elems = nonabelian.dihedral_elements(4)
    for length in (2, 3, 4):
        for tup in itertools.product(elems, repeat=length):
            s = list(tup)
            if nonabelian.is_left_ap(s) != nonabelian.is_right_ap(
                nonabelian.invert_sequence(s)
            ):
                bij_ok = False
    ok = counts_ok and left_ok and right_ok and steps_differ and bij_ok
    assert _report(
        11,
        "dihedral left/right counts equal and inversion bijection holds "
        f"(counts_ok={counts_ok}, bijection_ok={bij_ok}); free-group sequence "
        f"(a, ba, b^2 a) is a left progression with step b ({left_ok}) and a "
        f"right one ({right_ok}) with the distinct step a^-1 b a ({steps_differ})",
        ok,
    )


def test_criterion_12_determinism_across_parallelism():
    base = [
        sys.executable, "-m", "apseq.cli", "simulate", "--set", "cyclic:40",
        "--samples", "240", "--seed", "31337", "--histogram", "--json",
    ]
    outputs = set()
    for extra in ([], ["--parallel", "1"], ["--parallel", "2"], ["--parallel", "4"]):
        proc = subprocess.run(base + extra, capture_output=True)
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    ok = len(outputs) == 1
    assert _report(12, "simulate payloads are byte-identical across "
                       "parallelism settings", ok)

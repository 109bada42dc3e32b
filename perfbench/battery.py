"""verify-mix: the acceptance battery in miniature, through public functions.

Each round runs one slice of the criteria that take most of the test
suite's time.  Every call builds its structures from scratch and no length
engine runs, so engine caching and route removal show here while a change
to the length scan alone does not.  Each comparison is one check.

The random parts (orderings and Monte Carlo seeds) come from the run seed,
so every round does the same amount of work on fresh inputs.  The threshold
sweep advances through n with the round number, because solve_threshold
caches log counts per (set, k) and a repeated n would only measure the cache.
"""

from __future__ import annotations

import math
import random

from apseq import asymptotics, counting, las, montecarlo, nonabelian
from apseq.groups import abelian, cyclic, interval_box, parse_set_spec

from workloads import LAS_POOL, derived_seed

CHAIN_LIMIT = 512
CHAIN_SAMPLE = 8  # chains spread evenly over the criterion's list
BRUTE_CHAIN_LIMIT = 64
LATTICE_BOX = (5, 3)
THRESHOLD_NS_PER_ROUND = 40
THRESHOLD_N_MAX = 10**4
NK_CASES = (("interval:50", 3), ("interval:100", 4), ("cyclic:50", 3))
NK_SAMPLES = 150
# A true expectation law puts |z| above 5 about once in a million draws.
NK_Z_LIMIT = 5.0
DIHEDRAL_CASES = [(n, k) for n in range(2, 9) for k in range(2, min(6, 2 * n) + 1)]


def chains_upto(limit: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains with product at most `limit`, in the order
    the oracle-equivalence criterion visits them."""
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


def describe_round() -> list[str]:
    return [
        f"las: orbit walk vs pair DP on one random ordering of each of {len(LAS_POOL)} "
        "sets (|A| <= 200)",
        f"counting: count_abelian_exact vs cycle_profile (and brute_force_profile for "
        f"|Z| <= {BRUTE_CHAIN_LIMIT}) on {CHAIN_SAMPLE} of the chains with |Z| <= "
        f"{CHAIN_LIMIT}; count_for_set vs brute_force_profile on interval:{LATTICE_BOX[0]},"
        f"{LATTICE_BOX[1]}",
        f"asymptotics: interval vs cyclic threshold for the next {THRESHOLD_NS_PER_ROUND} n "
        f"in 3..{THRESHOLD_N_MAX}",
        f"montecarlo: estimate_Nk_mean on {', '.join(f'{s} k={k}' for s, k in NK_CASES)} "
        f"with {NK_SAMPLES} samples",
        f"nonabelian: dihedral left vs right counts, {len(DIHEDRAL_CASES)} (n, k) cases",
    ]


class Battery:
    def __init__(self, seed: int):
        self.seed = seed
        chains = chains_upto(CHAIN_LIMIT)
        self.chains = [chains[i * len(chains) // CHAIN_SAMPLE] for i in range(CHAIN_SAMPLE)]
        self.checks = 0
        self.orderings = 0
        self.failures: list[str] = []

    def _check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def round(self, r: int) -> None:
        for part in (self._las, self._counting, self._thresholds, self._nk, self._dihedral):
            try:
                part(r)
            except Exception as exc:  # a crash is one more failed check
                self._check(False, f"{part.__name__} round {r}: {type(exc).__name__}: {exc}")

    def _las(self, r: int) -> None:
        rnd = random.Random(derived_seed(self.seed, "las", r))
        for text in LAS_POOL:
            spec = parse_set_spec(text)
            indices = list(range(spec.cardinality))
            rnd.shuffle(indices)
            o = las.Ordering.from_indices(spec, indices)
            orbit = las.longest_ap_orbitwalk(o).length
            pairdp = las.longest_ap_pairdp(o).length
            self.orderings += 1
            self._check(orbit == pairdp, f"las {text} {indices}: orbit {orbit} pairdp {pairdp}")

    def _counting(self, r: int) -> None:
        for chain in self.chains:
            spec = abelian(*chain) if len(chain) > 1 else cyclic(chain[0])
            kmax = min(chain[-1], 30)
            prof = counting.cycle_profile(spec, kmax)
            if spec.cardinality <= BRUTE_CHAIN_LIMIT:
                self._check(prof == counting.brute_force_profile(spec, kmax),
                            f"cycle_profile vs brute force on {spec}")
            for k in range(2, kmax + 1):
                got = counting.count_abelian_exact(spec, k).exact
                self._check(got == prof[k], f"count_abelian_exact {spec} k={k}: {got} vs {prof[k]}")
        n, d = LATTICE_BOX
        spec = interval_box(n, d)
        prof = counting.brute_force_profile(spec, n)
        for k in range(2, n + 1):
            got = counting.count_for_set(spec, k).exact
            self._check(got == prof[k], f"count_for_set {spec} k={k}: {got} vs {prof[k]}")

    def _thresholds(self, r: int) -> None:
        span = THRESHOLD_N_MAX - 2
        first = 3 + (r * THRESHOLD_NS_PER_ROUND) % span
        for i in range(THRESHOLD_NS_PER_ROUND):
            n = 3 + (first - 3 + i) % span
            psi = asymptotics.solve_threshold(interval_box(n)).value
            chi = asymptotics.solve_threshold(cyclic(n)).value
            self._check(psi < chi, f"threshold n={n}: interval {psi} >= cyclic {chi}")

    def _nk(self, r: int) -> None:
        for text, k in NK_CASES:
            spec = parse_set_spec(text)
            config = montecarlo.ExperimentConfig(
                spec, NK_SAMPLES, derived_seed(self.seed, "nk", r, text), k
            )
            stats = montecarlo.estimate_Nk_mean(config)
            want = sum(1 for _ in counting.iter_progressions(spec, k)) / math.factorial(k)
            self._check(stats.expected == want, f"E[N_{k}] on {text}: {stats.expected} vs {want}")
            self._check(abs(stats.z) <= NK_Z_LIMIT, f"N_{k} on {text}: z = {stats.z}")

    def _dihedral(self, r: int) -> None:
        for n, k in DIHEDRAL_CASES:
            left = nonabelian.left_ap_count(n, k)
            right = nonabelian.right_ap_count(n, k)
            self._check(left == right, f"dihedral:{n} k={k}: left {left} right {right}")

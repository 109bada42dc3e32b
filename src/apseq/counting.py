"""Exact counts, rigorous bounds, and a brute-force oracle for the number of
arithmetic-progression k-orderings of each set family.

A progression k-ordering is a sequence (a, a+r, ..., a+(k-1)r) of k distinct
members of the set with step r != 0.  It is determined by the pair (a, r).

The brute-force oracles (brute_force_profile, cycle_profile,
iter_progressions) work in canonical indices.  Each candidate step gets one
successor table, built from slices of an index list, with a negative entry
where the step leaves a box; the oracles walk that table for every family
and use no element orders or closed forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from operator import itemgetter

from . import groups
from .errors import CapExceeded
from .groups import INTERVAL, AdditiveSetSpec, Frozen, divisors

CLOSED_FORM = "ClosedForm"
BRUTE_FORCE = "BruteForce"
BOUNDS_ONLY = "BoundsOnly"

# Most candidate (base, step) pairs a brute-force oracle walks; in a group
# that admits |A| <= 10^4.
BRUTE_PAIR_BUDGET = 10**8
DEFAULT_INTERVAL_BRUTE_N = 50
ENUM_CAP = 10**7


_set = object.__setattr__


class CountResult(Frozen):
    """Exact count or (lower, upper) bounds, with provenance."""

    __slots__ = ("lower", "upper", "method", "exact")

    def __init__(self, lower: int, upper: int, method: str, exact: int | None = None):
        if lower > upper:
            raise ValueError(f"lower {lower} > upper {upper}")
        if exact is not None and not (lower <= exact <= upper):
            raise ValueError(f"exact {exact} outside [{lower}, {upper}]")
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "method", method)
        _set(self, "exact", exact)


class APSpec(Frozen):
    """A progression: base point, step, and length."""

    __slots__ = ("base", "step", "length")

    def __init__(self, base: tuple, step: tuple, length: int):
        _set(self, "base", base)
        _set(self, "step", step)
        _set(self, "length", length)


def progression_terms(spec: AdditiveSetSpec, ap: APSpec) -> tuple:
    """Generate and validate the terms of a progression; raises if invalid."""
    if ap.length < 1:
        raise ValueError("progression length must be >= 1")
    if ap.step == groups.identity(spec):
        raise ValueError("trivial step")
    terms = [ap.base, *(groups.add(spec, ap.base, ap.step, t) for t in range(1, ap.length))]
    if len(set(terms)) != len(terms):
        raise ValueError("progression terms repeat")
    for t in terms:
        if not groups.is_valid_element(spec, t):
            raise ValueError(f"progression leaves the set at {t}")
    return tuple(terms)


def _exact(value: int, method: str = CLOSED_FORM) -> CountResult:
    return CountResult(value, value, method, value)


def count_interval(n: int, k: int) -> CountResult:
    """Exact number of progression k-orderings of [1,n]: n for k = 1 (the
    singletons), as brute force counts them.

    For k >= 2, summing 2(n-(k-1)r) over steps r = 1..m with
    m = floor((n-1)/(k-1)) gives 2nm - (k-1)(m^2 + m); the factor 2 covers
    the two step signs.  For k > n, m = 0 and the count is 0.
    """
    if n < 1:
        raise ValueError("count_interval requires n >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return _exact(n)
    m = (n - 1) // (k - 1)
    return _exact(2 * n * m - (k - 1) * (m * m + m))


def bounds_interval(n: int, k: int) -> CountResult:
    """Closed-form bracket around count_interval(n, k).

    For k >= 3 the exact count lies within (n-k+2)(n-1)/(k-1) - k + 1 and
    (n-k+2)(n-1)/(k-1) + k - 3, rounded outward.  At k = 2 the fractional
    correction vanishes and both bounds equal the exact n(n-1).
    """
    if n < 2:
        raise ValueError("bounds_interval requires n >= 2")
    if k < 2 or k > n:
        raise ValueError(f"k must be in [2, {n}], got {k}")
    if k == 2:
        v = n * (n - 1)
        return CountResult(v, v, BOUNDS_ONLY)
    num = (n - k + 2) * (n - 1)
    den = k - 1
    lower = num // den - k + 1
    upper = -((-num) // den) + k - 3
    return CountResult(lower, upper, BOUNDS_ONLY)


def count_lattice(n: int, k: int, d: int) -> CountResult:
    """Exact count for the box [1,n]^d: (P + n)^d - n^d with P the 1-dim
    count, as each coordinate of a nonzero step moves by a 1-dim step or
    stays at one of n values; so 0 for k > n.  A 1-term progression has no
    step, so k = 1 counts the n^d singletons."""
    if d < 1:
        raise ValueError("d must be >= 1")
    p1 = count_interval(n, k).exact
    if k == 1:
        return _exact(n**d)
    return _exact((p1 + n) ** d - n**d)


def count_cyclic(n: int, k: int) -> CountResult:
    """Exact count for Z/nZ, read from the order tally of the moduli (n,) as
    for any group: n for k = 1, and 0 for k > n, as every order divides n.
    Builds no set spec, so n may exceed the set cap."""
    if n < 1:
        raise ValueError("count_cyclic requires n >= 1")
    return _count_group((n,), k)


@functools.lru_cache(maxsize=128)
def _order_tally(moduli: tuple[int, ...]) -> dict[int, int]:
    """Number of elements of each order t in the product of Z/m over the
    moduli, for every divisor t of the last modulus (the exponent of a
    chain): prod(gcd(t, m)) have order dividing t, minus those of order
    s | t, s < t."""
    tally: dict[int, int] = {}
    for t in divisors(moduli[-1]):
        dividing = math.prod(math.gcd(t, m) for m in moduli)
        tally[t] = dividing - sum(c for s, c in tally.items() if t % s == 0)
    return tally


def _count_group(moduli: tuple[int, ...], k: int) -> CountResult:
    """|Z| * #{r : order(r) >= k} for the group of the moduli, and |Z| (the
    singletons) for k = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = math.prod(moduli)
    if k == 1:
        return _exact(n)
    return _exact(n * (n - sum(c for t, c in _order_tally(moduli).items() if t < k)))


def count_abelian_exact(spec: AdditiveSetSpec, k: int) -> CountResult:
    """Exact count for a finite abelian group: |Z| * #{r : order(r) >= k},
    and |Z| for k = 1.

    A progression k-ordering in a group is injective precisely when its step
    has order at least k, and every base point works.
    """
    if not spec.is_group:
        raise ValueError("count_abelian_exact requires a group family")
    return _count_group(spec.moduli, k)


def bounds_abelian(spec: AdditiveSetSpec, k: int) -> CountResult:
    """Bracket for the abelian count from the invariant-factor chain.

    With j the first index where k <= n_j and P = n_1 * ... * n_{j-1}, upper
    is n * P * (n_j * ... * n_d - 1) = n * (n - P): a step that is zero in
    every factor from j on lies in Z/n_1 x ... x Z/n_{j-1}, whose exponent
    n_{j-1} < k, so its order is below k.  Lower is the product of the early
    factors with the exact per-factor cyclic counts, an explicit undercount
    with no hidden constants.
    """
    if not spec.is_group:
        raise ValueError("bounds_abelian requires a group family")
    chain = spec.invariant_factors()
    if not chain:
        raise ValueError("trivial group has no valid k")
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > chain[-1]:
        raise ValueError(f"k={k} exceeds the largest invariant factor {chain[-1]}")
    j = next(i for i, f in enumerate(chain) if k <= f)
    n = spec.cardinality
    early = math.prod(chain[:j])
    upper = n * early * (math.prod(chain[j:]) - 1)
    lower = early * math.prod(count_cyclic(f, k).exact for f in chain[j:])
    return CountResult(lower, upper, BOUNDS_ONLY)


def count_for_set(spec: AdditiveSetSpec, k: int) -> CountResult:
    """Closed-form count, one route per family: count_lattice for a box
    (count_interval when d = 1), count_abelian_exact for every group."""
    if spec.family == INTERVAL:
        return count_lattice(spec.n, k, spec.d)
    return count_abelian_exact(spec, k)


def _step_spans(spec: AdditiveSetSpec) -> list[range]:
    """The candidate step values of each coordinate: [-(n-1), n-1] in a box,
    every residue in a group."""
    box = spec.family == INTERVAL
    return [range(1 - m, m) if box else range(m) for m in spec.radixes]


def _candidate_pairs(spec: AdditiveSetSpec) -> int:
    """Number of candidate (base, step) pairs: every base with every
    candidate step, the zero step included."""
    return spec.cardinality * math.prod(map(len, _step_spans(spec)))


def _check_brute_caps(spec: AdditiveSetSpec) -> None:
    if spec.family == INTERVAL and spec.n > DEFAULT_INTERVAL_BRUTE_N:
        raise CapExceeded(
            f"brute force capped at n <= {DEFAULT_INTERVAL_BRUTE_N} for interval boxes"
        )
    if _candidate_pairs(spec) > BRUTE_PAIR_BUDGET:
        raise CapExceeded(f"brute force capped at {BRUTE_PAIR_BUDGET} (base, step) pairs")


def _succ_table(spec: AdditiveSetSpec, r: tuple) -> list[int]:
    """Canonical-index successor table for x -> x + r: entry i is the index
    of element_i + r, and negative exactly when that point leaves a box.

    Built from the last coordinate outwards out of slices of one index
    list.  The last coordinate's table is that list rotated by its step in
    a group, and shifted in a box with -1 where the step leaves.  Each
    earlier coordinate maps every run of the table so far to the run its
    step reaches, picking the same positions from that run's slice of the
    list (a -1 picks a -1 put past the slice's end); a run the step takes
    out of the box is all -1.
    """
    box = spec.family == INTERVAL
    ids = list(range(spec.cardinality))
    m, c = spec.radixes[-1], r[-1]
    if not box:
        table = ids[c:m] + ids[:c]
    elif c >= 0:
        table = ids[c:m] + [-1] * c
    else:
        table = [-1] * -c + ids[: m + c]
    for m, c, size in zip(spec.radixes[-2::-1], r[-2::-1], spec.strides[-2::-1]):
        pick = itemgetter(*table)
        gone = (-1,) * size
        nxt: list[int] = []
        for x in range(m):
            y = x + c
            if not box:
                y %= m
            elif not 0 <= y < m:
                nxt += gone
                continue
            nxt += pick(ids[y * size : (y + 1) * size] + [-1])
        table = nxt
    return table


def _steps(spec: AdditiveSetSpec):
    """Every nonzero candidate step, as a coordinate tuple in lexicographic
    order (a group's elements in canonical order)."""
    zero = groups.identity(spec)
    return (r for r in itertools.product(*_step_spans(spec)) if r != zero)


def _profile_from_reach(reach: list[int], k_max: int, card: int) -> list[int]:
    """Entry [k] is the number of (base, step) pairs reaching at least k
    terms, for 2 <= k <= k_max; entry [1] counts the singletons."""
    counts = [0] * (k_max + 1)
    running = 0
    for k in range(k_max, 1, -1):
        running += reach[k]
        counts[k] = running
    counts[1] = card
    return counts


def brute_force_profile(spec: AdditiveSetSpec, k_max: int) -> list[int]:
    """Oracle counts for every k at once: entry [k] is the number of
    progression k-orderings, for 1 <= k <= k_max.

    Walks the successor table of every candidate step from every base, in
    canonical indices, until the next term leaves the set (a negative
    entry), repeats a term of the walk or makes k_max terms, and tallies
    the reach.  Knows nothing about element orders or closed forms.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_brute_caps(spec)
    card = spec.cardinality
    reach = [0] * (k_max + 2)
    visited = [-1] * card
    stamp = 0
    for r in _steps(spec):
        succ = _succ_table(spec, r)
        for a in range(card):
            stamp += 1
            visited[a] = stamp
            cur = a
            length = 1
            while length < k_max:
                cur = succ[cur]
                if cur < 0 or visited[cur] == stamp:
                    break
                visited[cur] = stamp
                length += 1
            reach[length] += 1
    return _profile_from_reach(reach, k_max, card)


def cycle_profile(spec: AdditiveSetSpec, k_max: int) -> list[int]:
    """Faster oracle for group families: same contract as brute_force_profile.

    Decomposes each step's successor table into cycles by explicit walking;
    a base reaches exactly min(cycle length, k_max) terms.  Uses only the
    successor structure, no order or totient formulas, so it remains an
    independent check of the closed forms.  Cross-validated against
    brute_force_profile in the test suite.
    """
    if not spec.is_group:
        raise ValueError("cycle_profile requires a group family")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    card = spec.cardinality
    reach = [0] * (k_max + 2)
    for r in _steps(spec):
        succ = _succ_table(spec, r)
        seen = bytearray(card)
        for start in range(card):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = 1
                cur = succ[cur]
                length += 1
            reach[min(length, k_max)] += length
    return _profile_from_reach(reach, k_max, card)


def brute_force_count(spec: AdditiveSetSpec, k: int) -> CountResult:
    """Ground-truth count of progression k-orderings by exhaustive enumeration.

    k = 1 counts the singletons (one per member of the set).  No walk of
    distinct terms has more than |A| terms, so k > |A| gives 0 unwalked.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    card = spec.cardinality
    if k == 1 or k > card:
        _check_brute_caps(spec)
        value = card if k == 1 else 0
    else:
        value = brute_force_profile(spec, k)[k]
    return CountResult(value, value, BRUTE_FORCE, value)


def check_enum_cap(spec: AdditiveSetSpec) -> None:
    """Raise CapExceeded when the set has more than ENUM_CAP candidate
    (base, step) pairs."""
    if _candidate_pairs(spec) > ENUM_CAP:
        raise CapExceeded(f"progression enumeration capped at {ENUM_CAP} pairs")


def iter_progressions(spec: AdditiveSetSpec, k: int) -> Iterator[tuple[APSpec, tuple]]:
    """Yield every progression k-ordering of the set as (APSpec, terms).

    Each valid progression corresponds to exactly one (base, step) pair.
    Steps come in the order of the candidate steps, bases in canonical
    order; each pair walks the step's successor table as
    brute_force_profile does, and yields when k distinct terms stay inside.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    check_enum_cap(spec)
    elems = list(groups.elements(spec))
    card = len(elems)
    visited = [-1] * card
    stamp = 0
    for r in _steps(spec):
        succ = _succ_table(spec, r)
        for a in range(card):
            stamp += 1
            visited[a] = stamp
            terms = [a]
            cur = a
            for _ in range(k - 1):
                cur = succ[cur]
                if cur < 0 or visited[cur] == stamp:
                    break
                visited[cur] = stamp
                terms.append(cur)
            else:
                yield APSpec(elems[a], r, k), tuple(map(elems.__getitem__, terms))


def totient_sum_margin(n: int, k: int) -> float:
    """Slack of the totient-sum lower bound for the cyclic count.

    Compares the exact cyclic count plus n*k*log(k+2)^2 against
    n^2 - (3/pi^2) n (k-1)^2; the log term stands in for the bound's
    unquantified asymptotic error.  Negative margins are diagnostic
    warnings, not errors.
    """
    q = count_cyclic(n, k).exact
    slack = n * k * math.log(k + 2) ** 2
    return q + slack - (n * n - (3 / math.pi**2) * n * (k - 1) ** 2)

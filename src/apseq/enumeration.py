"""Exhaustive enumeration of orderings: exact distributions of the longest
embedded progression length for small sets, and the parity-block structure
of orderings of Z/2^m Z with no 3-term progression subsequence.

Distributions are tallied in blocks of orderings, not one ordering at a
time.  A block holds each element's position in up to 5,040 orderings as
one int with a byte lane per ordering, and bitwise operations along the
lines of the set's length engine find the longest monotone run, and so L,
in every lane at once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import sys

from . import __version__, groups, las
from .errors import CapExceeded, InternalInvariantError
from .groups import CYCLIC, INTERVAL, AdditiveSetSpec, Frozen, totient

SERIAL_BUDGET = 10
PARALLEL_BUDGET = 12
# A block is the orderings that fix the positions of all but _BLOCK_FREE
# elements: at most 7! = 5,040 of them, one byte lane each.
_BLOCK_FREE = 7


_set = object.__setattr__


class DistributionTable(Frozen):
    """counts[k] = number of orderings whose longest embedded progression
    has length k, for k = 0..|A| ([0] unused); the counts sum to |A|!."""

    __slots__ = ("spec", "counts", "total")

    def __init__(self, spec: AdditiveSetSpec, counts: tuple[int, ...], total: int):
        _set(self, "spec", spec)
        _set(self, "counts", counts)
        _set(self, "total", total)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.counts, self.total) == (other.spec, other.counts, other.total)

    def __hash__(self) -> int:
        return hash((self.spec, self.counts, self.total))

    def __repr__(self) -> str:
        return (
            f"DistributionTable(spec={self.spec!r}, counts={self.counts!r}, "
            f"total={self.total!r})"
        )

    def __reduce__(self):
        return self.__class__, (self.spec, self.counts, self.total)

    def as_dict(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.counts) if k >= 1}

    def row(self) -> list[int]:
        return list(self.counts[1:])


@functools.lru_cache(maxsize=None)
def _rank_columns(r: int) -> tuple[bytes, ...]:
    """The r! permutations of range(r), in order, as r columns: byte i of
    column j is entry j of permutation i."""
    flat = bytes(itertools.chain.from_iterable(itertools.permutations(range(r))))
    return tuple(flat[j::r] for j in range(r))


def _tally_block(lines, cols: list[int], lanes: int, counts: list[int]) -> None:
    """Add to counts the longest progression length of lanes orderings of a
    set of two or more elements at once.

    Byte i of cols[x] is the position of element x in ordering i; positions
    are below 128, so each lane has a guard bit G = 0x80.  Along a line
    a, b of an engine, ((b | G) - a) & G sets G in the lanes where b comes
    after a, and no lane borrows from the next.  ANDing k - 1 consecutive
    comparisons from term t marks the rising runs of k terms from t, the
    complements the falling ones; runs start below m, so a group's doubled
    walk counts each cyclic window once.  reached[k] gathers the lanes with
    a run of k terms, and the difference of consecutive lane counts is the
    number of orderings whose longest run has exactly k terms.
    """
    guard = 0x80 * las.lane_ones(lanes, 8)
    reached = [0, 0, guard]  # every ordering has a 2-term progression
    for m, line in lines:
        terms = [cols[x] for x in line]
        rising = [((b | guard) - a) & guard for a, b in zip(terms, terms[1:])]
        for steps in (rising, [c ^ guard for c in rising]):
            for t in range(min(m, len(steps))):
                run = steps[t]
                k = 2
                for c in steps[t + 1 :]:
                    run &= c
                    if not run:
                        break
                    k += 1
                    if k == len(reached):
                        reached.append(run)
                    else:
                        reached[k] |= run
    lanes_at = [r.bit_count() for r in reached] + [0]
    for k in range(2, len(reached)):
        counts[k] += lanes_at[k] - lanes_at[k + 1]


def _tally_placed(lines, card: int, placed, counts: list[int]) -> None:
    """Add to counts the L of every ordering that puts each element of
    placed, (element, position) pairs, at that position, one block per
    placement of all but _BLOCK_FREE of the other elements.

    Inverting an ordering is a bijection, so the block's free elements take
    their open positions in every order: column j of _rank_columns, each
    rank translated to the position of that rank.
    """
    fixed = dict(placed)
    free = [x for x in range(card) if x not in fixed]
    taken = set(fixed.values())
    open_positions = [p for p in range(card) if p not in taken]
    extra = max(0, len(free) - _BLOCK_FREE)
    head, tail = free[:extra], free[extra:]
    ranks = _rank_columns(len(tail))
    lanes = math.factorial(len(tail))
    ones = las.lane_ones(lanes, 8)
    cols = [0] * card
    for x, p in fixed.items():
        cols[x] = p * ones
    for head_positions in itertools.permutations(open_positions, extra):
        for x, p in zip(head, head_positions):
            cols[x] = p * ones
        rest = bytes(p for p in open_positions if p not in head_positions)
        table = rest.ljust(256, b"\0")
        for x, col in zip(tail, ranks):
            cols[x] = int.from_bytes(col.translate(table), "little")
        _tally_block(lines, cols, lanes, counts)


def _tally_orderings(lines, seqs: list, counts: list[int]) -> None:
    """Add to counts the L of each ordering of seqs (canonical indices)."""
    if seqs:
        _tally_block(lines, *las.lane_columns(seqs, 8), counts)


def _placed_worker(args) -> list[int]:
    lines, card, placed = args
    counts = [0] * (card + 1)
    _tally_placed(lines, card, placed, counts)
    return counts


def _tally_interval_reduced(lines, n: int) -> list[int]:
    # Reflection v -> n-1-v and reversal generate a group of order 4, which
    # acts on the end pairs (first a, last b) as (a, b), (b, a),
    # (n-1-a, n-1-b), (n-1-b, n-1-a).  Each orbit meets the end pairs with
    # a < b and a + b <= n - 1 in one ordering (weight 4) when a + b < n - 1;
    # when a + b = n - 1 the pair is fixed by reflection after reversal, and
    # the orbit holds two such orderings or one that map fixes (weight 2).
    four, two = [0] * (n + 1), [0] * (n + 1)
    for a in range(n):
        for b in range(a + 1, n - a):
            counts = four if a + b < n - 1 else two
            _tally_placed(lines, n, ((a, 0), (b, n - 1)), counts)
    return [4 * c4 + 2 * c2 for c4, c2 in zip(four, two)]


def _tally_cyclic_reduced(lines, n: int) -> list[int]:
    # The maps x -> u*x + t (u a unit), with or without reversal, form a
    # group of order 2n*phi(n); only a reversing map can fix an ordering.
    # Translation puts 0 first, and a unit then takes the last term l to
    # e = gcd(l, n).  What still acts on the orderings s from 0 to e is
    # K = S_e x {1, R'}, where S_e holds the units fixing e and
    # R's = e - reversed(s).  One lexicographic minimum per K-orbit is
    # tallied; its orbit has 2n*phi(n) orderings, or half as many when a
    # reversing map fixes it.  The second terms of its images u*s and u*R's
    # decide most end pairs (a, b) for every middle at once: those blocks
    # go to the kernel whole, and only tied pairs test each middle.
    if n <= 3:
        counts = [0] * (n + 1)
        _tally_placed(lines, n, (), counts)
        return counts
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    free, fixed = [0] * (n + 1), [0] * (n + 1)
    for e in groups.divisors(n)[:-1]:
        stab = [u for u in units if u * e % n == e]
        inner = [v for v in range(1, n) if v != e]
        for a in inner:
            for b in inner:
                if a == b:
                    continue
                # second terms of the images u*s (u != 1) and u*R's
                images = [(u * a % n, False, u) for u in stab if u != 1]
                images += [((e - u * b) % n, True, u) for u in stab]
                low = min(second for second, _, _ in images)
                if a > low:
                    continue
                if a < low:
                    placed = ((0, 0), (a, 1), (b, n - 2), (e, n - 1))
                    _tally_placed(lines, n, placed, free)
                    continue
                tied = [
                    (rev, [(e - u * x) % n if rev else u * x % n for x in range(n)])
                    for second, rev, u in images
                    if second == a
                ]
                kept: tuple[list, list] = ([], [])  # (not stabilised, stabilised)
                for mid in itertools.permutations([v for v in inner if v != a and v != b]):
                    seq = (0, a, *mid, b, e)
                    stabilised = False
                    for rev, row in tied:
                        image = tuple(map(row.__getitem__, seq[::-1] if rev else seq))
                        if image < seq:
                            break
                        stabilised = stabilised or image == seq
                    else:
                        kept[stabilised].append(seq)
                _tally_orderings(lines, kept[False], free)
                _tally_orderings(lines, kept[True], fixed)
    orbit = 2 * n * totient(n)
    return [orbit * c + orbit // 2 * f for c, f in zip(free, fixed)]


def distribution(
    spec: AdditiveSetSpec,
    *,
    symmetry_reduction: bool = False,
    parallel: int | None = None,
    cache_dir: str | None = None,
) -> DistributionTable:
    """Tally the longest-progression length over all |A|! orderings.

    The orderings are tallied in blocks (_tally_block): each block fixes the
    positions of all but at most _BLOCK_FREE elements and holds every
    placement of the rest, and one pass of bitwise operations over the
    lines of the set's length engine, built once per call, gives the L of
    all its orderings at once.  Symmetry reduction (interval and cyclic
    families only) tallies one representative per orbit and counts it with
    its orbit's size.  Reversal keeps L, and so do reflection v -> n+1-v on
    [1, n] (a group of order 4 with reversal) and the maps x -> u*x + t of
    Z/nZ, u a unit (order 2n*phi(n) with reversal).  An interval ordering
    is kept when its first term a and last term b have a < b and
    a + b <= n + 1, with weight 4, or weight 2 when a + b = n + 1.  A
    cyclic ordering is kept when it runs from 0 to a divisor e of n and is
    the lexicographic minimum of its images that do the same, with weight
    2n*phi(n), halved when one of them is itself.  The reduction is opt-in
    and is validated against unreduced enumeration in the test suite.  The
    budget follows the work that runs: |A| <= PARALLEL_BUDGET under
    symmetry reduction or a pool of two or more workers, |A| <=
    SERIAL_BUDGET otherwise.
    """
    card = spec.cardinality
    pooled = parallel is not None and parallel > 1 and not symmetry_reduction
    limit = PARALLEL_BUDGET if symmetry_reduction or pooled else SERIAL_BUDGET
    if card > limit:
        raise CapExceeded(f"enumeration budget is |A| <= {limit}, got {card}")

    if cache_dir:
        cached = load_distribution(spec, cache_dir)
        if cached is not None:
            return cached

    reduce = None
    if symmetry_reduction and card >= 2:
        if spec.family == INTERVAL and spec.d == 1:
            reduce = _tally_interval_reduced
        elif spec.family == CYCLIC:
            reduce = _tally_cyclic_reduced
        else:
            raise ValueError(
                "symmetry reduction supports the interval (d=1) and cyclic families"
            )
    if card == 1:
        counts = [0, 1]
    else:
        lines = las.length_engine(spec).lines
        if reduce is not None:
            counts = reduce(lines, card)
        elif pooled and card > 2:
            # one task per placement of elements 0 and 1
            tasks = [
                (lines, card, ((0, i), (1, j)))
                for i in range(card)
                for j in range(card)
                if i != j
            ]
            import multiprocessing  # only here: importing it slows every CLI start

            with multiprocessing.Pool(parallel) as pool:
                partials = pool.map(_placed_worker, tasks)
            counts = [sum(col) for col in zip(*partials)]
        else:
            counts = [0] * (card + 1)
            _tally_placed(lines, card, (), counts)

    total = math.factorial(card)
    if sum(counts) != total:
        raise InternalInvariantError(
            f"tally sums to {sum(counts)}, expected {total}"
        )
    table = DistributionTable(spec, tuple(counts), total)
    if cache_dir:
        save_distribution(table, cache_dir)
    return table


def three_free_count(n: int) -> int:
    """Number of orderings of Z/nZ with no 3-term progression subsequence:
    2^(n-1) when n is a power of two, else 0."""
    if n < 2:
        raise ValueError("three_free_count requires n >= 2")
    if n & (n - 1) == 0:
        return 2 ** (n - 1)
    return 0


@functools.lru_cache(maxsize=64)
def _three_term_index_triples(spec: AdditiveSetSpec) -> tuple[tuple[int, int, int], ...]:
    return las.progression_index_tuples(spec, 3)


def is_three_free(ordering: las.Ordering) -> bool:
    """No 3-term progression subsequence appears in the ordering."""
    if len(ordering) < 3:
        return True
    pos = ordering.positions()
    for a, b, c in _three_term_index_triples(ordering.spec):
        if pos[a] < pos[b] < pos[c]:
            return False
    return True


def _assemble_three_free(
    m: int, s: las.Ordering, t: las.Ordering, evens_first: bool
) -> las.Ordering:
    # a cyclic group's canonical index is its element's value
    evens = [2 * x for x in s.indices]
    odds = [2 * x + 1 for x in t.indices]
    block = evens + odds if evens_first else odds + evens
    return las.Ordering.from_indices(groups.cyclic(2**m), block)


def construct_three_free(
    m: int, s: las.Ordering, t: las.Ordering, evens_first: bool = True
) -> las.Ordering:
    """Build a 3-free ordering of Z/2^m Z from two 3-free orderings of
    Z/2^(m-1) Z: one block doubled, the other doubled plus one."""
    if m < 1:
        raise ValueError("m must be >= 1")
    half = groups.cyclic(2 ** (m - 1))
    for name, ordering in (("s", s), ("t", t)):
        if ordering.spec != half:
            raise ValueError(f"{name} must be an ordering of {half}")
        if not is_three_free(ordering):
            raise ValueError(f"{name} is not 3-free")
    return _assemble_three_free(m, s, t, evens_first)


def three_free_orderings(m: int) -> list[las.Ordering]:
    """All 3-free orderings of Z/2^m Z, generated by the block construction.

    The two halves are 3-free by induction, so the bulk generator skips the
    per-call re-verification of construct_three_free.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > 4:
        raise CapExceeded("three_free_orderings is capped at m <= 4 (2^15 orderings)")
    if m == 1:
        halves = [las.Ordering.from_indices(groups.cyclic(1), [0])]
    else:
        halves = three_free_orderings(m - 1)
    out = []
    for s in halves:
        for t in halves:
            for evens_first in (True, False):
                out.append(_assemble_three_free(m, s, t, evens_first))
    return out


def three_free_structure_check(ordering: las.Ordering) -> bool:
    """Parity-block test: one parity fills the first half, the other the
    second, and both halves contract recursively to 3-free orderings."""
    spec = ordering.spec
    if spec.family != CYCLIC or spec.n & (spec.n - 1) != 0:
        raise ValueError("structure check applies to Z/nZ with n a power of two")
    return _structure_check_values(list(ordering.indices))


def _structure_check_values(values: list[int]) -> bool:
    n = len(values)
    if n == 1:
        return True
    half = n // 2
    first, second = values[:half], values[half:]
    par = first[0] % 2
    if any(v % 2 != par for v in first) or any(v % 2 == par for v in second):
        return False
    return _structure_check_values([v // 2 for v in first]) and _structure_check_values(
        [v // 2 for v in second]
    )


# --- result cache ---------------------------------------------------------


def _entry_checksum(spec_text: str, version: str, counts, total) -> str:
    import hashlib

    payload = json.dumps([spec_text, version, list(counts), total], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _consistent(spec: AdditiveSetSpec, counts: tuple, total) -> bool:
    card = spec.cardinality
    return (
        len(counts) == card + 1
        and all(type(c) is int and c >= 0 for c in (*counts, total))
        and sum(counts) == total == math.factorial(card)
    )


def _cache_path(spec: AdditiveSetSpec, cache_dir: str) -> str:
    name = str(spec).replace(":", "-").replace(",", "_").replace("^", "e")
    return os.path.join(cache_dir, f"{name}__v{__version__}.json")


def save_distribution(table: DistributionTable, cache_dir: str) -> str | None:
    """Write table's cache entry and return its path.  A directory or file
    that cannot be written leaves the result uncached, with one warning on
    stderr, and returns None."""
    path = _cache_path(table.spec, cache_dir)
    spec_text = str(table.spec)
    doc = {
        "spec": spec_text,
        "tool_version": __version__,
        "counts": list(table.counts),
        "total": table.total,
        "checksum": _entry_checksum(spec_text, __version__, table.counts, table.total),
    }
    # write aside and rename, so no reader ever sees a half-written entry
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: result not cached ({path}): {exc}", file=sys.stderr)
        return None
    return path


def load_distribution(spec: AdditiveSetSpec, cache_dir: str) -> DistributionTable | None:
    """Cached table for spec, or None on a miss.  An entry that cannot be
    read, fails its checksum or does not sum to |A|! is a miss, reported
    with one warning on stderr."""
    path = _cache_path(spec, cache_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        counts, total = tuple(doc["counts"]), doc["total"]
        intact = doc["checksum"] == _entry_checksum(str(spec), __version__, counts, total)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable ({type(exc).__name__}: {exc})"
    else:
        if not intact:
            reason = "checksum mismatch"
        elif not _consistent(spec, counts, total):
            reason = "inconsistent counts"
        else:
            return DistributionTable(spec, counts, total)
    print(f"warning: ignoring cache entry {path}: {reason}", file=sys.stderr)
    return None

"""Exhaustive enumeration of orderings: exact distributions of the longest
embedded progression length for small sets, and the parity-block structure
of orderings of Z/2^m Z with no 3-term progression subsequence.

Distributions are tallied in blocks of orderings, not one ordering at a
time.  A block holds the bit planes of each element's position in up to
5,040 orderings, a bit per ordering (las.bit_planes), and bitwise operations
along the set's lines find the longest monotone run, and so L, in each.
The lines are the walks of las.step_cycles along the steps of
groups.step_classes, one of each pair {r, -r} that carries 3 or more
terms: the maximal paths of a box and the cycles of a group.
One tree fixes the positions of all but at most 7 elements, which fill
one window of positions, and its leaves are blocks.  Unreduced enumeration
walks it under the identity alone; symmetry reduction, on every family,
under the maps that keep progressions in order, so one ordering per orbit
is tallied.  A pool runs the children of the tree's root as tasks.
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
from .groups import CYCLIC, AdditiveSetSpec, Frozen

SERIAL_BUDGET = 10
PARALLEL_BUDGET = 12
# A block is the orderings that fix the positions of all but _BLOCK_FREE
# elements: at most 7! = 5,040 of them, one bit of each plane each.
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

    def as_dict(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.counts) if k >= 1}

    def row(self) -> list[int]:
        return list(self.counts[1:])


@functools.lru_cache(maxsize=None)
def _rank_columns(r: int, start: int) -> tuple[bytes, ...]:
    """The r! permutations of range(start, start + r), in order, as r
    columns: byte i of column j is entry j of permutation i."""
    flat = bytes(itertools.chain.from_iterable(itertools.permutations(range(start, start + r))))
    return tuple(flat[j::r] for j in range(r))


@functools.lru_cache(maxsize=None)
def _rank_planes(lo: int, count: int) -> tuple[list[int], ...]:
    """The count bit_planes of each column of _rank_columns(_BLOCK_FREE, lo)."""
    return tuple(las.bit_planes(col, count) for col in _rank_columns(_BLOCK_FREE, lo))


def _lines(spec: AdditiveSetSpec) -> list:
    """Every line of the set as an (m, line) pair, longest first: line lists
    the canonical indices x, x + r, ... of one walk of m >= 3 terms of a
    step r = u * v of groups.step_classes, a cycle walked as cyc + cyc[:-1]
    so that each of its cyclic windows is a slice of the line."""
    zero = groups.identity(spec)
    walks = (las.step_cycles(spec, groups.add(spec, zero, v, u))
             for _bound, v, units in groups.step_classes(spec) for u in units)
    lines = [(len(walk), walk + walk[:-1] if closed else walk)
             for cycles in walks for closed, walk in cycles if len(walk) >= 3]
    return sorted(lines, key=lambda item: item[0], reverse=True)


def _tally_block(lines, planes: list, orderings: int, counts: list[int]) -> None:
    """Add to counts the longest progression length of a block of orderings
    of a set of two or more elements at once.

    planes[x][j] holds bit j of element x's position, bit i for ordering i.
    Along a line a, b of _lines, the bits where b comes after a are decided
    from the lowest plane up, each plane overriding the lower ones where a
    and b differ.  ANDing k - 1 consecutive comparisons from term t marks
    the rising runs of k terms from t, the complements the falling ones;
    runs start below m, so a group's doubled walk counts each cyclic window
    once.  reached[k] gathers the orderings with a run of k terms, and the
    difference of consecutive bit counts is the number of orderings whose
    longest run has exactly k terms.
    """
    every = (1 << orderings) - 1
    reached = [0, 0, every]  # every ordering has a 2-term progression
    for m, line in lines:
        rising = []
        for a, b in zip(line, line[1:]):
            later = 0
            for pa, pb in zip(planes[a], planes[b]):
                later ^= (later ^ pb) & (pb ^ pa)
            rising.append(later)
        for steps in (rising, [c ^ every for c in rising]):
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
    at_least = [r.bit_count() for r in reached] + [0]
    for k in range(2, len(reached)):
        counts[k] += at_least[k] - at_least[k + 1]


def _tally_leaves(lines, card: int, leaves) -> list[int]:
    """The counts of distribution over the orderings of leaves, (where,
    free, lo) triples of at most _BLOCK_FREE free elements: element x is at
    position where[x] unless it is in free, and the elements of free take
    the positions lo .. lo + len(free) - 1 in every order.

    A leaf of _BLOCK_FREE free elements is a block of its own: a fixed
    element's planes are all ones or 0, the free ones' are _rank_planes.
    Smaller leaves share blocks, one ordering per row, and bit_planes reads
    element x's planes off column x of the rows.  Taken largest first, a
    leaf of f! rows follows a multiple of f! rows, so every shared block
    but the last fills to 7! orderings.
    """
    counts, count = [0] * (card + 1), (card - 1).bit_length()
    rows = bytearray()
    leaves = sorted(leaves, key=lambda leaf: -len(leaf[1]))
    for n, (where, free, lo) in enumerate(leaves, 1):
        if len(free) == _BLOCK_FREE:
            every = (1 << math.factorial(_BLOCK_FREE)) - 1
            planes = [[every * (p >> j & 1) for j in range(count)] for p in where]
            for x, ranks in zip(free, _rank_planes(lo, count)):
                planes[x] = ranks
            _tally_block(lines, planes, math.factorial(_BLOCK_FREE), counts)
            continue
        start = len(rows)
        rows += where * math.factorial(len(free))
        for x, col in zip(free, _rank_columns(len(free), lo)):
            rows[start + x :: card] = col
        if len(rows) == card * math.factorial(_BLOCK_FREE) or n == len(leaves):
            planes = [las.bit_planes(rows[x::card], count) for x in range(card)]
            _tally_block(lines, planes, len(rows) // card, counts)
            rows = bytearray()
    return counts


def _symmetries(spec: AdditiveSetSpec) -> list[tuple[int, ...]]:
    """The maps that keep every progression of a set of two or more
    elements a progression, in order, as index rows (row[i] is the index of
    the image of element i): x -> u*x + t in a group, u a unit modulo the
    exponent, and a box's coordinate reflections and permutations."""
    elems = list(groups.elements(spec))
    if spec.is_group:
        e = spec.exponent
        images = (
            [groups.add(spec, t, x, u) for x in elems]
            for u in range(1, e)
            if math.gcd(u, e) == 1
            for t in elems
        )
    else:
        images = (
            [tuple(spec.n + 1 - x[c] if flip else x[c] for c, flip in zip(perm, flips))
             for x in elems]
            for perm in itertools.permutations(range(spec.d))
            for flips in itertools.product((False, True), repeat=spec.d)
        )
    index = {x: i for i, x in enumerate(elems)}
    return [tuple(map(index.__getitem__, image)) for image in images]


def _branches(card: int, node) -> list:
    """The children of node, (where, free, lo, maps, weight): the orderings
    that put each element x outside free at where[x] and those of free at
    lo .. hi = lo + len(free) - 1, counted weight times, under maps, (row,
    reversed) pairs.  A leaf has none.

    While maps other than the identity are left, a child places an end
    pair, a at lo and b at hi.  Reversal takes (a, b) to (b, a), and a map
    to the pair's image, so one pair per orbit is placed, weighted by the
    orbit's size, and the maps that fix it act on the next pair in.  Under
    the identity alone, a child places one element at lo, down to
    _BLOCK_FREE free elements.
    """
    where, free, lo, maps, weight = node
    children = []
    if len(maps) > 1 and len(free) > 1:
        hi = lo + len(free) - 1
        for pair in itertools.permutations(free, 2):
            a, b = pair
            images = [(row[b], row[a]) if rev else (row[a], row[b]) for row, rev in maps]
            if min(images) < pair:
                continue  # each orbit once, at its least pair
            fixing = [m for m, image in zip(maps, images) if image == pair]
            inner = bytearray(where)
            inner[a], inner[b] = lo, hi
            left = [x for x in free if x != a and x != b]
            # the orbit of (a, b) has len(maps) / len(fixing) pairs
            children.append((inner, left, lo + 1, fixing, weight * len(maps) // len(fixing)))
    elif len(free) > _BLOCK_FREE:
        for a in free:
            inner = bytearray(where)
            inner[a] = lo
            children.append((inner, [x for x in free if x != a], lo + 1, maps, weight))
    return children


def _tally_tree(lines, card: int, node) -> list[int]:
    """The counts of distribution over the orderings below node, a node of
    _branches.  A leaf of _BLOCK_FREE free elements is tallied as soon as it
    is reached; the smaller leaves of one weight are kept to share blocks."""
    total = [0] * (card + 1)
    small: dict[int, list] = {}  # weight -> leaves of fewer than _BLOCK_FREE free elements

    def add(weight, leaves):
        total[:] = [t + weight * c for t, c in zip(total, _tally_leaves(lines, card, leaves))]

    def walk(node):
        children = _branches(card, node)
        for child in children:
            walk(child)
        if not children:
            where, free, lo, _maps, weight = node
            if len(free) == _BLOCK_FREE:
                add(weight, [(where, free, lo)])
            else:
                small.setdefault(weight, []).append((where, free, lo))

    walk(node)
    for weight, leaves in small.items():
        add(weight, leaves)
    return total


def check_budget(card: int, symmetry_reduction: bool, parallel: int | None) -> None:
    """Raise CapExceeded unless distribution may enumerate a set of card
    elements: |A| <= PARALLEL_BUDGET under symmetry reduction or a pool of
    two or more workers, |A| <= SERIAL_BUDGET otherwise."""
    limit = PARALLEL_BUDGET if symmetry_reduction or (parallel or 1) > 1 else SERIAL_BUDGET
    if card > limit:
        raise CapExceeded(f"enumeration budget is |A| <= {limit}, got {card}")


def distribution(
    spec: AdditiveSetSpec,
    *,
    symmetry_reduction: bool = False,
    parallel: int | None = None,
    cache_dir: str | None = None,
) -> DistributionTable:
    """Tally the longest-progression length over all |A|! orderings.

    One tree (_branches) fixes the positions of all but at most _BLOCK_FREE
    elements, which fill one window of positions in every order, and each
    leaf's orderings are tallied in blocks (_tally_block): one pass of
    bitwise operations on the bit planes of the positions, along the set's
    lines (_lines), built once per call, gives the L of up to 7! orderings
    at once.  Unreduced enumeration walks
    the tree under the identity alone.  Symmetry reduction, on every family,
    walks it under the maps that keep L (_symmetries) and reversal, so one
    ordering per orbit is tallied; it is opt-in and is validated against
    unreduced enumeration in the test suite.  With parallel >= 2 and more
    than _BLOCK_FREE elements, the children of the tree's root are a pool's
    tasks, with no more workers than tasks, and one task runs in-process;
    integer sums keep the counts those of one process.  The budget is
    check_budget's.
    """
    card = spec.cardinality
    check_budget(card, symmetry_reduction, parallel)

    if cache_dir:
        cached = load_distribution(spec, cache_dir)
        if cached is not None:
            return cached

    if card == 1:
        counts = [0, 1]
    else:
        lines = _lines(spec)
        if symmetry_reduction:
            maps = [(row, rev) for rev in (False, True) for row in _symmetries(spec)]
        else:
            maps = [(tuple(range(card)), False)]  # the identity alone
        root = (bytes(card), list(range(card)), 0, maps, 1)
        # at most 7! orderings take less time than starting a pool
        pooled = (parallel or 1) > 1 and card > _BLOCK_FREE
        tasks = _branches(card, root) if pooled else []
        if len(tasks) > 1:
            import multiprocessing  # only here: importing it slows every CLI start

            with multiprocessing.Pool(min(parallel, len(tasks))) as pool:
                parts = pool.starmap(_tally_tree, [(lines, card, task) for task in tasks], 1)
            counts = [sum(col) for col in zip(*parts)]
        else:
            counts = _tally_tree(lines, card, root)

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


def is_three_free(ordering: las.Ordering) -> bool:
    """No 3-term progression subsequence appears in the ordering."""
    return len(ordering) < 3 or las.count_k_subsequences(ordering, 3) == 0


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

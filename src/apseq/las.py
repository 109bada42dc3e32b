"""Longest arithmetic subsequence of an ordering, by two independent
algorithms, plus exact counting of k-term progression subsequences.

Both algorithms take an ordering as canonical indices.  The walk engine of
a set (length_engine) serves every ordering of one spec, for groups and
interval boxes alike.  It keeps one step v of each pair {v, -v} and stores
the lines of x -> x + v: the cycles of a group (listed once per cyclic
subgroup from the smallest member of each coset), the maximal paths inside
a box.  A rising run of positions along a line is a progression with step
v, a falling run one with step -v.  Lines are built in bands of falling
length as scans reach them: a random ordering of a large set has a short
longest progression, so its scan never needs most of the short lines.
length_of_indices probes only every best-th comparison of a line (below
m + best - 1 on a cycle of length m) and extends each probe both ways;
witness then lists the runs of that many terms and returns the smallest
(base index, step).  longest_ap_orbitwalk is that witness for groups.

The pair DP keys chains of index pairs by their common difference, read for
each position from a row of differences over all canonical indices; it
uses no lines, cycles or closed forms, and is the engines' oracle for every
family.

N_k, the number of k-term progression subsequences, counts the tuples of
progression_index_tuples, built from successor tables in groups and
row-major strides in boxes, that appear in order.  count_in_order checks
them in one ordering; count_in_orders checks them in many orderings at once,
one 16-bit lane per ordering, and count_in_order is its oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from operator import itemgetter

from . import counting, groups
from .errors import CapExceeded, InternalInvariantError
from .groups import INTERVAL, AdditiveSetSpec, Frozen

PAIR_DP_CAP = 5000
# Built in full, a group engine stores about |A|^2 line entries, its walks
# being doubled (cyclic:5000: 24,967,500); a box stores fewer (interval:1000:
# 416,166; interval:5000: 10,414,166).  A scan builds only the bands it
# reaches: after one random ordering, interval:1000 holds 124,000 entries and
# interval:5000 2,495,000.
ENGINE_CAP = 5000


class Ordering:
    """A sequence listing every element of the set exactly once, stored as
    the elements' canonical indices; seq converts them to elements on each
    use."""

    __slots__ = ("spec", "indices")

    def __init__(self, spec: AdditiveSetSpec, seq):
        seq = tuple(tuple(x) for x in seq)
        if len(seq) != spec.cardinality:
            raise ValueError(
                f"ordering must list all {spec.cardinality} elements, got {len(seq)}"
            )
        indices = tuple(groups.canonical_index(spec, x) for x in seq)
        if len(set(indices)) != len(indices):
            raise ValueError("ordering repeats an element")
        self.spec = spec
        self.indices = indices

    @classmethod
    def from_indices(cls, spec: AdditiveSetSpec, indices) -> "Ordering":
        card = spec.cardinality
        indices = tuple(indices)
        for i in indices:
            if not (isinstance(i, int) and 0 <= i < card):
                raise ValueError(f"index {i} out of range for {spec}")
        if len(indices) != card:
            raise ValueError(f"ordering must list all {card} elements, got {len(indices)}")
        if len(set(indices)) != card:
            raise ValueError("ordering repeats an element")
        ordering = cls.__new__(cls)
        ordering.spec = spec
        ordering.indices = indices
        return ordering

    @property
    def seq(self) -> tuple:
        return tuple(groups.element_at(self.spec, i) for i in self.indices)

    def positions(self) -> list[int]:
        """positions()[canonical index] = position of that element in seq."""
        pos = [0] * len(self.indices)
        for where, idx in enumerate(self.indices):
            pos[idx] = where
        return pos

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ordering)
            and self.spec == other.spec
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.indices))

    def __repr__(self) -> str:
        return f"Ordering({self.spec}, {list(self.indices)})"


_set = object.__setattr__


class LasResult(Frozen):
    """Length of the longest progression subsequence, with a witness.

    The witness is None only for singleton sets; otherwise base and step
    describe the progression and indices are the positions realizing it.
    """

    __slots__ = ("length", "base", "step", "indices")

    def __init__(
        self, length: int, base: tuple | None, step: tuple | None, indices: tuple[int, ...]
    ):
        _set(self, "length", length)
        _set(self, "base", base)
        _set(self, "step", step)
        _set(self, "indices", indices)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.length, self.base, self.step, self.indices) == (
            other.length, other.base, other.step, other.indices)

    def __hash__(self) -> int:
        return hash((self.length, self.base, self.step, self.indices))

    def __repr__(self) -> str:
        return (
            f"LasResult(length={self.length!r}, base={self.base!r}, "
            f"step={self.step!r}, indices={self.indices!r})"
        )

    def __reduce__(self):
        return self.__class__, (self.length, self.base, self.step, self.indices)


def _singleton_result() -> LasResult:
    return LasResult(1, None, None, (0,))


def step_cycles(spec: AdditiveSetSpec, step_idx: int) -> list[list[int]]:
    """Cycles of x -> x + step over canonical indices, for a group family,
    walked node by node: the reference the group engine's lines are
    checked against."""
    r = groups.element_at(spec, step_idx)
    succ = counting._succ_table(spec, r)
    card = spec.cardinality
    seen = bytearray(card)
    cycles = []
    for start in range(card):
        if seen[start]:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            cyc.append(cur)
            cur = succ[cur]
        cycles.append(cyc)
    return cycles


def longest_ap_orbitwalk(ordering: Ordering) -> LasResult:
    """Longest progression subsequence of an ordering of a group, with the
    witness of the group's walk engine.

    Among equal-length witnesses, the smallest (base index, step index)
    wins.  Raises CapExceeded above ENGINE_CAP elements.
    """
    spec = ordering.spec
    if not spec.is_group:
        raise ValueError("orbit walk requires a group family; use the pair DP")
    return _last_engine(spec).witness(ordering.indices)


@functools.lru_cache(maxsize=1)
def _last_engine(spec: AdditiveSetSpec):
    """The walk engine of the last set the orbit walk saw.  One at most: an
    engine at ENGINE_CAP holds hundreds of MB."""
    return length_engine(spec)


def _diff_rows(spec: AdditiveSetSpec) -> list[list[int]]:
    """Per coordinate of size m, a row of 2m - 1 values such that the
    pair-DP key of x - y is the sum over coordinates of
    row[m - 1 - x_c + y_c], with x_c and y_c counted from 0."""
    interval = spec.family == INTERVAL
    rows = []
    weight = 1
    for m in reversed(spec.radixes):
        diffs = range(m - 1, -m, -1)  # x_c - y_c
        # a box's signed digit is stored as x_c - y_c + m - 1, in radix 2m - 1
        digits = [t + m - 1 for t in diffs] if interval else [t % m for t in diffs]
        rows.append([g * weight for g in digits])
        weight *= 2 * m - 1 if interval else m
    return rows[::-1]


def longest_ap_pairdp(ordering: Ordering) -> LasResult:
    """Longest progression subsequence via the pair dynamic program.

    Works for every family.  dp[j][key] is the length of the longest
    progression ending at position j whose step has the given key: the
    canonical index of the step in a group, and for an interval box the
    lattice difference with coordinates shifted by n - 1 read in radix
    2n - 1.  The keys of every pair (i, j) for one j are read from a row
    over all canonical indices, built per coordinate like a successor
    table.  Quadratic time and memory in |A|; no |A|^2 table is built.
    """
    spec = ordering.spec
    card = spec.cardinality
    if card > PAIR_DP_CAP:
        raise CapExceeded(f"pair DP capped at |A| <= {PAIR_DP_CAP}")
    if card == 1:
        return _singleton_result()

    ids = ordering.indices
    # with x_c counted from 0, a row starts at m - 1 - x_c: row-major order
    # lists these starts for every canonical index
    starts = list(itertools.product(*[range(m - 1, -1, -1) for m in spec.radixes]))
    diff_rows = list(zip(spec.radixes, _diff_rows(spec)))
    dp: list[dict[int, int]] = [{}]
    best_len = 2
    for j in range(1, card):
        row = None
        for lo, (m, values) in zip(starts[ids[j]], diff_rows):
            part = values[lo : lo + m]
            row = part if row is None else [b + o for b in row for o in part]
        keys = map(row.__getitem__, ids[:j])
        dpj = {key: dpi.get(key, 1) + 1 for key, dpi in zip(keys, dp)}
        dp.append(dpj)
        top = max(dpj.values())
        if top > best_len:
            best_len = top

    # The lexicographically smallest (base, step) among the chains of
    # maximal length, as coordinate tuples: their order is that of the base
    # index and the step key.  The chain ending at j with a step key is
    # unique, and its base is the element listed at j less (best_len - 1)
    # times the step.
    steps: dict[int, tuple] = {}
    best = None
    for j, dpj in enumerate(dp):
        if not dpj or max(dpj.values()) != best_len:
            continue
        x = groups.element_at(spec, ids[j])
        for key, length in dpj.items():
            if length != best_len:
                continue
            step = steps.get(key)
            if step is None:
                step = steps[key] = _decode_step(spec, key)
            cand = (groups.add(spec, x, step, 1 - best_len), step)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InternalInvariantError("pair DP found no chain in a set of size >= 2")
    base, step = best
    pos = ordering.positions()
    indices = tuple(
        pos[groups.canonical_index(spec, groups.add(spec, base, step, t))]
        for t in range(best_len)
    )
    return LasResult(best_len, base, step, indices)


def _decode_step(spec: AdditiveSetSpec, key: int) -> tuple:
    """The step whose pair-DP key is key: the element of that canonical
    index in a group; in a box, the element of that index in the box
    [1, 2n - 1]^d, shifted by n."""
    if spec.family != INTERVAL:
        return groups.element_at(spec, key)
    keys = groups.interval_box(2 * spec.n - 1, spec.d)
    return tuple(c - spec.n for c in groups.element_at(keys, key))


def progression_index_tuples(spec: AdditiveSetSpec, k: int) -> tuple[tuple[int, ...], ...]:
    """Every progression k-ordering of the set, as canonical-index tuples,
    step by step in the order of counting.iter_progressions.

    A group step r counts when its first k - 1 multiples are nonzero, and
    its tuples read the successor table of x -> x + r k - 1 times over.  A
    box step v keeps the bases whose last term stays inside, a row-major
    product of one range per coordinate, each tuple striding by v's index
    delta.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    counting.check_enum_cap(spec)
    card = spec.cardinality
    out: list[tuple[int, ...]] = []
    if spec.family != INTERVAL:
        for r in counting._steps(spec):
            succ = counting._succ_table(spec, r)
            cols = [range(card)]
            for _ in range(k - 1):
                cols.append([*map(succ.__getitem__, cols[-1])])
                if cols[-1][0] == 0:  # order of r below k
                    break
            else:
                out += zip(*cols)
        return tuple(out)
    n, d, strides = spec.n, spec.d, spec.strides
    reach = (n - 1) // (k - 1)  # no coordinate of a step moves further
    origin = (0,) * d
    for v in itertools.product(range(-reach, reach + 1), repeat=d):
        if v == origin:
            continue
        bases = [0]
        for c, s in zip(v, strides):
            span = range(max(0, -(k - 1) * c), min(n, n - (k - 1) * c))
            bases = [b + x * s for b in bases for x in span]
        delta = sum(c * s for c, s in zip(v, strides))
        out += zip(*[[b + t * delta for b in bases] for t in range(k)])
    return tuple(out)


def count_in_order(progs, idx_seq: Sequence[int]) -> int:
    """Number of index tuples in progs whose terms appear in increasing
    positions of the ordering idx_seq (canonical indices)."""
    pos = [0] * len(idx_seq)
    for where, idx in enumerate(idx_seq):
        pos[idx] = where
    count = 0
    k = len(progs[0]) if progs else 0
    # the common k = 3 and 4: one unpacked, chained compare per tuple
    if k == 3:
        for a, b, c in progs:
            if pos[a] < pos[b] < pos[c]:
                count += 1
        return count
    if k == 4:
        for a, b, c, e in progs:
            if pos[a] < pos[b] < pos[c] < pos[e]:
                count += 1
        return count
    for terms in progs:
        p = pos[terms[0]]
        for t in terms[1:]:
            q = pos[t]
            if q <= p:
                break
            p = q
        else:
            count += 1
    return count


@functools.lru_cache(maxsize=16)
def lane_ones(lanes: int, width: int) -> int:
    """The int with a 1 at the bottom of each of lanes width-bit lanes."""
    return int.from_bytes(b"\x01".ljust(width // 8, b"\0") * lanes, "little")


def lane_columns(seqs, width: int) -> tuple[list[int], int]:
    """Each element's positions in the orderings of seqs (canonical indices,
    all of one set) as one int per element, and the number of orderings.

    Lane i, width bits from bit width * i, of the int of element x holds the
    position of x in the i-th ordering.  Positions stay below
    2^(width - 1), so the top bit of each lane is free as a guard bit.  seqs
    may be any iterable; each ordering is packed as it is read.
    """
    code = "B" if width == 8 else "H"
    rows = bytearray()
    card = 0
    for seq in seqs:
        card = len(seq)
        pos = memoryview(bytearray(card * width // 8)).cast(code)
        for where, idx in enumerate(seq):
            pos[idx] = where
        rows += pos
    assert card <= 1 << (width - 1), "positions would reach the guard bit"
    # the lanes are native-order items; their bytes read back in that order
    flat = memoryview(rows).cast(code)
    cols = [int.from_bytes(flat[x::card], sys.byteorder) for x in range(card)]
    return cols, len(flat) // card if card else 0


# A 16-bit lane counts at most 65,535 tuples before count_in_orders must
# flush it.
_LANE_FLUSH = 0xFFFF


def count_in_orders(progs, seqs) -> list[int]:
    """count_in_order(progs, seq) for each ordering seq of seqs, in one pass
    over progs.

    Each element's positions are packed by lane_columns into 16-bit lanes
    with guard bit G = 0x8000.  ((col_b | G) - col_a) & G sets G in the
    lanes where b comes after a, and no lane borrows from the next; ANDing
    a tuple's k - 1 comparisons leaves G in the lanes that hold it in
    order.  mask >> 15 adds 1 to those lanes of a 16-bit accumulator,
    which is flushed into per-lane ints every _LANE_FLUSH tuples.
    """
    cols, lanes = lane_columns(seqs, 16)
    counts = [0] * lanes
    if not progs or not lanes:
        return counts
    guard = 0x8000 * lane_ones(lanes, 16)
    high = [c | guard for c in cols]
    k = len(progs[0])
    for start in range(0, len(progs), _LANE_FLUSH):
        part = progs[start : start + _LANE_FLUSH]
        acc = 0
        # the common k = 3 and 4 unrolled, as in count_in_order: x1.6-1.7
        # faster than the general loop at 150 lanes, x2.4-3.7 at 1-4 lanes
        if k == 3:
            for a, b, c in part:
                acc += (guard & (high[b] - cols[a]) & (high[c] - cols[b])) >> 15
        elif k == 4:
            for a, b, c, e in part:
                acc += (
                    guard & (high[b] - cols[a]) & (high[c] - cols[b]) & (high[e] - cols[c])
                ) >> 15
        else:
            for terms in part:
                mask = guard
                for a, b in zip(terms, terms[1:]):
                    mask &= high[b] - cols[a]
                    if not mask:
                        break
                acc += mask >> 15
        lane_counts = memoryview(acc.to_bytes(2 * lanes, sys.byteorder)).cast("H")
        counts = [n + c for n, c in zip(counts, lane_counts)]
    return counts


def count_k_subsequences(ordering: Ordering, k: int) -> int:
    """Exact number of k-term progression subsequences of the ordering."""
    spec = ordering.spec
    card = spec.cardinality
    if k < 2 or k > card:
        raise ValueError(f"k must be in [2, {card}], got {k}")
    progs = progression_index_tuples(spec, k)
    return count_in_order(progs, ordering.indices)


def _longest_run(lines, pos: Sequence[int], best: int) -> int:
    """Most terms of a monotone run of positions along any line, or best if
    none is longer.

    lines holds (m, line) pairs sorted by m, longest first: line lists
    canonical indices along x -> x + v, and m bounds the terms of any run in
    it.  A rising run is a progression with step v, a falling run one with
    step -v.  A run of best + 1 terms is best consecutive comparisons in one
    direction, so only every best-th comparison is probed; each probe is
    extended both ways while the direction holds, and the scan resumes
    best - 1 comparisons past the run's end.
    """
    for m, line in lines:
        if m <= best:
            break
        last = len(line) - 1
        stop = last if last < m else m + best - 1  # runs start below m
        t = best - 1  # comparison t joins terms t and t + 1
        while t < stop:
            lo = t
            hi = t + 1
            a = pos[line[lo]]
            b = pos[line[hi]]
            if a < b:
                while hi < last:
                    c = pos[line[hi + 1]]
                    if c < b:
                        break
                    b = c
                    hi += 1
                while lo:
                    c = pos[line[lo - 1]]
                    if c > a:
                        break
                    a = c
                    lo -= 1
            else:
                while hi < last:
                    c = pos[line[hi + 1]]
                    if c > b:
                        break
                    b = c
                    hi += 1
                while lo:
                    c = pos[line[lo - 1]]
                    if c < a:
                        break
                    a = c
                    lo -= 1
            if hi - lo >= best:
                best = hi - lo + 1
                if m <= best:
                    break
                stop = last if last < m else m + best - 1
            t = hi + best - 1
    return best


def _monotone_runs(line, pos: Sequence[int], size: int):
    """(lo, hi, rising) for every run of exactly size >= 3 terms along the
    line whose positions rise or fall, given that no run is longer.

    A run of size terms is size - 1 consecutive comparisons in one
    direction, so probes size - 1 comparisons apart meet every such run.
    Each probe is extended both ways while the direction holds, and the next
    probe is the last comparison of a run that starts where this one ends.
    """
    last = len(line) - 1
    t = size - 2  # comparison t joins terms t and t + 1
    while t < last:
        lo = t
        hi = t + 1
        a = pos[line[lo]]
        b = pos[line[hi]]
        rising = a < b
        if rising:
            while hi < last and pos[line[hi + 1]] > b:
                hi += 1
                b = pos[line[hi]]
            while lo and pos[line[lo - 1]] < a:
                lo -= 1
                a = pos[line[lo]]
        else:
            while hi < last and pos[line[hi + 1]] < b:
                hi += 1
                b = pos[line[hi]]
            while lo and pos[line[lo - 1]] > a:
                lo -= 1
                a = pos[line[lo]]
        if hi - lo + 1 == size:
            yield lo, hi, rising
        t = hi + size - 2


class _LineBands:
    """Lines of a walk engine, built in bands as scans reach them.

    A band holds the lines of every box step or group subgroup that shares
    one bound on its lines' terms (1 + (n - 1) // max|v_i| for a box step
    v, the order of a subgroup); bands are built in falling order of bound.
    _built lists, longest first, the built lines with more terms than
    _reach, the bound of the next unbuilt band (0 once every band is
    built).  A built line of at most _reach terms waits in _held, by its
    term count, until no unbuilt line can be longer.  So a scan that has
    found a run of best terms builds the next band only while _reach >
    best, and a witness of best terms also while _reach == best.

    The constructor is the set-up both engines share: each engine lists its
    (bound, step or subgroup) pairs as todo, and its _band(bound, items)
    returns the (m, line) pairs of the items of one bound.  Lines are
    slices of, or picks from, one tuple of canonical indices, so they share
    its int objects, and as tuples the cyclic garbage collector stops
    tracking them; _pos is the position buffer of length_of_indices.
    """

    def __init__(self, spec: AdditiveSetSpec, todo: list):
        self.spec = spec
        self.card = card = spec.cardinality
        self._ids = tuple(range(card))
        self._pos = [0] * card
        todo.sort(key=itemgetter(0))
        self._todo = todo
        self._held: dict[int, list] = {}
        self._built: list = []
        self._reach = todo[-1][0] if todo else 0

    def _grow(self):
        """Build the next band and return an iterator over the lines it
        adds to _built, longest first."""
        todo, held, built = self._todo, self._held, self._built
        bound = todo[-1][0]
        items = []
        while todo and todo[-1][0] == bound:
            items.append(todo.pop()[1])
        fresh = self._band(bound, items)
        fresh.sort(key=itemgetter(0), reverse=True)
        for m, run in itertools.groupby(fresh, itemgetter(0)):
            held.setdefault(m, []).extend(run)
        del fresh  # held has the lines: free this copy before built grows
        reach = self._reach = todo[-1][0] if todo else 0
        start = len(built)
        for m in sorted([m for m in held if m > reach], reverse=True):
            built += held.pop(m)
        return itertools.islice(built, start, None)

    @property
    def lines(self) -> list:
        """Every line as an (m, line) pair, longest first, building the
        bands not built yet."""
        while self._reach:
            self._grow()
        return self._built

    def _scan(self, pos: Sequence[int]) -> int:
        """Longest progression length of the ordering with pos[canonical
        index] = position, building bands while an unbuilt line could hold
        a longer run."""
        if self.card == 1:
            return 1
        best = _longest_run(self._built, pos, 2)
        while self._reach > best:
            best = _longest_run(self._grow(), pos, best)
        return best

    length_of_positions = _scan

    def length_of_indices(self, idx_seq: Sequence[int]) -> int:
        pos = self._pos
        for where, idx in enumerate(idx_seq):
            pos[idx] = where
        return self.length_of_positions(pos)

    def witness(self, idx_seq: Sequence[int]) -> LasResult:
        """Longest progression of the ordering idx_seq with its witness:
        among equal lengths the smallest (base index, step) wins, steps
        compared as coordinate tuples (for a group, in the order of their
        canonical indices).

        A rising run along a line with step v is the progression with step
        v from the run's first term; a falling run is the one with step -v
        from the run's last term.  Each line's step is the difference of
        its first two terms, decoded and subtracted by groups.  Length 2
        needs no lines: the smallest base is the smallest index not listed
        last, paired with the smallest step to an element listed after it.
        """
        spec = self.spec
        if self.card == 1:
            return _singleton_result()
        pos = self._pos
        for where, idx in enumerate(idx_seq):
            pos[idx] = where
        best = self._scan(pos)
        at = functools.partial(groups.element_at, spec)
        add = functools.partial(groups.add, spec)
        if best == 2:
            base = 0 if idx_seq[-1] != 0 else 1
            x = at(base)
            step, last = min((add(at(y), x, -1), y) for y in idx_seq[pos[base] + 1 :])
            return LasResult(2, x, step, (pos[base], pos[last]))
        while self._reach >= best:  # lines of exactly best terms hold witnesses
            self._grow()
        best_key = None
        for m, line in self._built:
            if m < best:
                break
            steps = None
            for lo, hi, rising in _monotone_runs(line, pos, best):
                base = line[lo] if rising else line[hi]
                if best_key is not None and base > best_key[0]:
                    continue
                if steps is None:
                    x, y = at(line[0]), at(line[1])
                    steps = (add(y, x, -1), add(x, y, -1))
                key = (base, steps[0] if rising else steps[1])
                if best_key is None or key < best_key:
                    best_key = key
                    terms = line[lo : hi + 1]
        if best_key is None:
            raise InternalInvariantError(f"no run of {best} terms found on a line")
        indices = tuple(sorted(map(pos.__getitem__, terms)))
        return LasResult(best, at(best_key[0]), best_key[1], indices)


@functools.lru_cache(maxsize=None)
def _half_units(m: int) -> tuple[int, ...]:
    """The units u < m / 2 of Z/mZ."""
    return tuple(u for u in range(1, (m + 1) // 2) if math.gcd(u, m) == 1)


def _coset_starts(spec: AdditiveSetSpec, v: tuple, ids: list) -> list[int]:
    """The smallest canonical index of each coset of <v>, rising, as
    members of ids.

    Coordinates before v's first nonzero one, c, are free.  The values at c
    of a coset run through a coset of <g>, g = gcd(v_c, m_c), so its least
    one is below g; the members of that value differ by multiples of e * v,
    e = m_c / g, which are 0 up to c, and the later coordinates recurse on
    e * v.  The indices so chosen are runs of size consecutive indices from
    each of firsts: a free coordinate lengthens every run, a bounded one
    cuts each index of a run into a run of its own.
    """
    firsts, size = [0], 1
    for c, mc in enumerate(spec.moduli):
        if not v[c]:
            firsts, size = [f * mc for f in firsts], size * mc
            continue
        top = math.gcd(v[c], mc)
        v = groups.add(spec, (0,) * len(v), v, mc // top)
        firsts, size = [s * mc for f in firsts for s in range(f, f + size)], top
    starts: list[int] = []
    for f in firsts:
        starts += ids[f : f + size]
    return starts


class GroupLengthEngine(_LineBands):
    """Walk engine, reusable across many orderings of one group spec.

    The lines are the cycles of x -> x + v for one step v of each pair
    {v, -v} of order at least 3, each walked as cyc + cyc[:-1] so every
    cyclic window of the cycle is a slice of the walk, and the scan probes
    it below comparison m + best - 1 only.  The constructor finds each
    cyclic subgroup <v> of order m >= 3 by its smallest generator; the band
    of order m lists the cosets of each such subgroup once, as columns
    mapped from their smallest members through the successor table of v,
    and for each unit u < m / 2 reads the cycles of u * v from them at
    i * u mod m.  Order-2 subgroups only give 2-term progressions, which
    every set of two or more elements has.

    length_of_indices(idx_seq) fills the engine's position buffer from the
    canonical-index sequence and scans it with length_of_positions(pos),
    where pos[canonical index] = position in the ordering.  witness(idx_seq)
    returns the LasResult.
    """

    def __init__(self, spec: AdditiveSetSpec):
        card = spec.cardinality
        done = bytearray(card)
        todo = []
        for step_idx in range(1, card):
            if done[step_idx]:
                continue
            v = groups.element_at(spec, step_idx)
            m = groups.element_order(spec, v)
            if m < 3:
                continue
            todo.append((m, v))
            # the generators u * v and -(u * v) of <v> need no band of their own
            digits = list(zip(v, spec.moduli, spec.strides))
            for u in _half_units(m):
                for t in (u, m - u):
                    done[sum(t * a % mc * w for a, mc, w in digits)] = 1
        super().__init__(spec, todo)

    def _band(self, m: int, subgroups: list) -> list:
        ids = self._ids
        # the doubled walk of unit u reads t * u mod m for t < 2m - 1: runs
        # sliced in strides of u from 64 copies of range(m), each run
        # resuming where the last one passed the end, less the copies' length
        rep = tuple(range(m)) * 64
        getters = []
        for u in _half_units(m)[1:]:
            perm: list[int] = []
            start = 0
            while len(perm) < 2 * m - 1:
                run = rep[start : start + (2 * m - 1 - len(perm)) * u : u]
                perm += run
                start += len(run) * u - len(rep)
            getters.append(itemgetter(*perm))
        lines = []
        for v in subgroups:
            succ = itemgetter(*counting._succ_table(self.spec, v))(ids)
            col = _coset_starts(self.spec, v, ids)
            cols = [col]
            for _ in range(m - 1):
                col = [*map(succ.__getitem__, col)]
                cols.append(col)
            walks = [*zip(*cols, *cols[:-1])]  # walk[i] = start + i * v, doubled
            lines += zip(itertools.repeat(m), walks)
            for get in getters:
                lines += zip(itertools.repeat(m), map(get, walks))
        return lines

    # names of this class's own, which perfbench's tracer wraps
    length_of_positions = _LineBands.length_of_positions
    length_of_indices = _LineBands.length_of_indices


class IntervalLengthEngine(_LineBands):
    """Walk engine for interval boxes, on canonical index sequences.

    The lines are the maximal paths x, x + v, ... inside the box with at
    least 3 terms, for one step v of each pair {v, -v} (first nonzero
    coordinate positive) with every |v_i| <= (n - 1) / 2, as the row-major
    indices from x in strides of v's index delta.  A path of step v has at
    most 1 + (n - 1) // max|v_i| terms, the bound of v's band.  The scan
    and the witness are the group engine's.
    """

    def __init__(self, spec: AdditiveSetSpec):
        n, d = spec.n, spec.d
        half = (n - 1) // 2
        if d == 1:
            steps = [(v,) for v in range(1, half + 1)]
        else:
            origin = (0,) * d
            steps = [v for v in itertools.product(range(-half, half + 1), repeat=d) if v > origin]
        super().__init__(spec, [(1 + (n - 1) // max(map(abs, v)), v) for v in steps])

    def _band(self, bound: int, steps: list) -> list:
        n, d, strides, ids = self.spec.n, self.spec.d, self.spec.strides, self._ids
        lines = []
        if d == 1:
            # the paths of step v start at x < v; 3 terms need x < n - 2v
            for (v,) in steps:
                paths = [ids[x::v] for x in range(min(v, n - 2 * v))]
                lines += zip(map(len, paths), paths)
            return lines
        for v in steps:
            delta = sum(c * s for c, s in zip(v, strides))
            lines += [
                (cnt, ids[idx : idx + cnt * delta : delta])
                for idx, cnt in _box_path_starts(n, v, strides)
            ]
        return lines

    # a name of this class's own, which perfbench's tracer wraps as a scan
    length_of_indices = _LineBands.length_of_indices


def _box_path_starts(n: int, v: tuple, strides) -> list[tuple[int, int]]:
    """(row-major index, term count) of the first point of each maximal path
    along step v in [0, n)^d with at least 3 terms."""
    # per coordinate, (x * stride, terms from x along that coordinate) for
    # the x that leave room for 3 terms, split into x where x - v_i leaves
    # [0, n) (the path starts there) and the rest
    heads, tails = [], []
    for c, s in zip(v, strides):
        if c > 0:
            heads.append([(x * s, (n - 1 - x) // c + 1) for x in range(min(c, n - 2 * c))])
            tails.append([(x * s, (n - 1 - x) // c + 1) for x in range(c, n - 2 * c)])
        elif c < 0:
            heads.append([(x * s, x // -c + 1) for x in range(max(n + c, -2 * c), n)])
            tails.append([(x * s, x // -c + 1) for x in range(-2 * c, n + c)])
        else:
            heads.append([])
            tails.append([(x * s, n) for x in range(n)])
    # a point starts a path iff some coordinate does; split by the first one
    out = []
    for i, head in enumerate(heads):
        if not head:
            continue
        acc = [(0, n)]
        for j in range(len(v)):
            axis = tails[j] if j < i else head if j == i else tails[j] + heads[j]
            acc = [(o + oj, c if c < cj else cj) for o, c in acc for oj, cj in axis]
        out += acc
    return out


def length_engine(spec: AdditiveSetSpec):
    """Walk engine for the family, built once per spec:
    engine.length_of_indices(idx_seq) is the longest progression length of
    the ordering listing the canonical indices idx_seq, and
    engine.witness(idx_seq) its LasResult.  Raises CapExceeded
    above ENGINE_CAP elements, before any table is built."""
    if spec.cardinality > ENGINE_CAP:
        raise CapExceeded(f"length engines capped at |A| <= {ENGINE_CAP}")
    if spec.family == INTERVAL:
        return IntervalLengthEngine(spec)
    return GroupLengthEngine(spec)

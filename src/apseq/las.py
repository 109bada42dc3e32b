"""Longest arithmetic subsequence of an ordering, by two independent
algorithms, plus exact counting of k-term progression subsequences.

Both algorithms take an ordering as canonical indices.  The length engine
of a set (length_engine) serves every ordering of one spec, for groups and
interval boxes alike.  It scans the steps w of groups.step_classes over
bits indexed by the set's elements: one int holds, for every x, whether
x + w comes later than x, and ANDs of its shifted copies mark the runs in
order along x, x + w, ...  A rising run is a progression with step w, a
falling run one with step -w.  Groups of at most two invariant factors read
those bits from one comparison matrix per ordering; other groups and boxes
compare the bit planes of the positions, step by step.  length_of_indices gives
the longest length, witness the smallest (base index, step) of that
length, and longest_ap_orbitwalk is that witness for every family.
step_cycles walks x -> x + r over a successor table: the cycles of a group
and the maximal paths inside a box, from which enumeration builds its
lines.

The pair DP keys chains of index pairs by their common difference, read for
each position from a row of differences over all canonical indices; it
uses no lines, cycles or closed forms, and is the engines' oracle for every
family.

N_k, the number of k-term progression subsequences, is counted by the
same engine (count_of_indices): each set bit of a step's run of k - 1
comparisons is one progression in order.  count_in_order, which checks
index tuples one by one, is its oracle.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Sequence
from operator import itemgetter

from . import counting, groups
from .errors import CapExceeded, InternalInvariantError
from .groups import INTERVAL, AdditiveSetSpec, Frozen

# The pair DP keeps |A|^2 / 2 step keys: its address space peaks at 190 MB
# (interval:3000) to 320 MB (abelian:2x1500) here, 480 MB at interval:5000.
PAIR_DP_CAP = 3000
# A round number, not the engines' limit: the bit planes read positions as
# 16-bit items, which holds up to 2^16 elements.
ENGINE_CAP = 5000


_set = object.__setattr__


class Ordering(Frozen):
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
        _set(self, "spec", spec)
        _set(self, "indices", indices)

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
        _set(ordering, "spec", spec)
        _set(ordering, "indices", indices)
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

    def __repr__(self) -> str:
        # the set by its spec string and the indices as a list, shorter
        # than the field-by-field form
        return f"Ordering({self.spec}, {list(self.indices)})"

    def __reduce__(self):
        # rebuilt from the indices: the constructor takes elements
        return Ordering.from_indices, (self.spec, self.indices)


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


def _singleton_result() -> LasResult:
    return LasResult(1, None, None, (0,))


def step_cycles(spec: AdditiveSetSpec, r: tuple) -> list[tuple[bool, list[int]]]:
    """The walks of x -> x + r over canonical indices, as (closed, walk)
    pairs, read node by node from the successor table: in a box the maximal
    paths, each from an x whose x - r lies outside; in a group the cycles."""
    succ = counting._succ_table(spec, r)
    seen = bytearray(len(succ))
    walks = []
    # a box's paths start where no x - r points in; a group has no such start
    for start in sorted(set(range(len(succ))).difference(succ)) or range(len(succ)):
        if seen[start]:
            continue
        walk = []
        cur = start
        while cur >= 0 and not seen[cur]:
            seen[cur] = 1
            walk.append(cur)
            cur = succ[cur]
        walks.append((cur >= 0, walk))
    return walks


def longest_ap_orbitwalk(ordering: Ordering) -> LasResult:
    """Longest progression subsequence of an ordering of a set of every
    family, with the witness of the set's length engine.

    Among equal-length witnesses, the smallest (base index, step) wins.
    Raises CapExceeded above ENGINE_CAP elements.
    """
    return _last_engine(ordering.spec).witness(ordering.indices)


@functools.lru_cache(maxsize=32)
def _last_engine(spec: AdditiveSetSpec):
    """The length engines of the last 32 sets the orbit walk and
    count_k_subsequences saw.  An engine keeps its steps, a group's matrix
    bands (their steps and where each step's column lies) and a box's first
    _MASKS_KEPT inside masks, but no comparison matrix: a scan builds its
    own."""
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


def count_in_order(progs, idx_seq: Sequence[int]) -> int:
    """Number of index tuples in progs whose terms appear in increasing
    positions of the ordering idx_seq (canonical indices): the oracle of the
    engines' N_k, fed from counting.iter_progressions."""
    pos = [0] * len(idx_seq)
    for where, idx in enumerate(idx_seq):
        pos[idx] = where
    return sum(all(pos[a] < pos[b] for a, b in zip(t, t[1:])) for t in progs)


def count_k_subsequences(ordering: Ordering, k: int) -> int:
    """Exact number of k-term progression subsequences of the ordering.
    Raises CapExceeded above ENGINE_CAP elements."""
    spec = ordering.spec
    card = spec.cardinality
    if k < 2 or k > card:
        raise ValueError(f"k must be in [2, {card}], got {k}")
    return _last_engine(spec).count_of_indices(ordering.indices, k)


# Per j < 8, the translate table reading bit j of a byte as a binary digit
_BIT_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]
# The bits of one comparison-matrix band (1 MB): one band at |A| = 1000, two
# at cyclic:5000.
_BAND_BITS = 1 << 23
# The delta swaps that transpose each 8 x 8 bit block of a little-endian int,
# as (shift, mask over one 8-byte block)
_SWAPS = tuple((shift, mask.to_bytes(8, "little")) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))
# A box's inside masks an engine keeps between scans, |A| bits each (0.16 MB
# of them at ENGINE_CAP); it builds any others each time.
_MASKS_KEPT = 256


class _LengthEngine:
    """Set-up, scan loop and witness shared by both length engines.

    Each engine reads its (bound, v, units) triples from groups.step_classes,
    bound capping the terms along the steps u * v; its _steps_of turns a
    triple into scan steps (w, -w, how to shift by w).  A step's ones hold
    one bit per element, set where x + w comes later than x; the bits where
    x + w is in the set but earlier are their complement.  Both are packed
    as one int, rising bits from bit 0 and falling ones from bit 2|A|, which
    _shift moves by a multiple of w.  The AND of the bits shifted by 0, w,
    ..., (c - 1)w marks the runs of c + 1 terms: each set bit is one
    progression of c + 1 terms in order, along w (rising) or -w (falling).

    _bands gives the steps in bands, each with the source of its ones; the
    scan and count_of_indices share one loop over them.  The plane source,
    one band of every step, is the bit planes of the positions: plane j
    holds bit j of pos[x] at bit x.  Per step, _ones moves each plane by w
    with _shift and decides pos[x + w] > pos[x] from the lowest plane up,
    each plane overriding the lower ones where its two bits differ, then
    keeps the x whose x + w is in the set (_inside_of).
    """

    def __init__(self, spec: AdditiveSetSpec):
        self.spec = spec
        self.card = card = spec.cardinality
        self._pos = [0] * card
        self._todo = sorted(groups.step_classes(spec), key=itemgetter(0))
        self._steps = None

    def _scan_steps(self) -> list:
        """(bound, step) pairs, the bound falling, derived on first use so
        that constructing an engine costs what listing todo costs."""
        if self._steps is None:
            card = self.card
            self._all = (1 << card) - 1
            self._halves = self._all | self._all << 2 * card
            self._steps = [(bound, step) for bound, v, units in reversed(self._todo)
                           for step in self._steps_of(v, units)]
        return self._steps

    def _planes(self, pos: Sequence[int]) -> list[int]:
        """Bit j of pos[x] at bit x of plane j, for j up to the top bit of
        |A| - 1: the low or high bytes of the 16-bit positions, from the
        last element on, read as binary digits."""
        from array import array  # only here: importing it slows every CLI start

        data = array("H", pos).tobytes()
        high, low = data[::-2], data[-2::-2]
        if sys.byteorder == "big":
            high, low = low, high
        return [int((high if j >= 8 else low).translate(_BIT_DIGITS[j & 7]), 2)
                for j in range((self.card - 1).bit_length())]

    def _ones(self, step: tuple, planes: list[int]) -> int:
        later = 0
        for plane in planes:
            moved = self._shift(step, plane, 1)
            later ^= (later ^ moved) & (moved ^ plane)
        inside = self._inside_of(step)
        rising = later & inside
        return rising | (rising ^ inside) << 2 * self.card

    def _run(self, step, ones: int, count: int) -> int:
        """The bits of ones from which count comparisons hold in a row,
        built by doubling; 0 as soon as none does."""
        run, have = ones, 1
        for bit in bin(count)[3:]:
            run &= self._shift(step, run, have)
            have *= 2
            if bit == "1" and run:
                run &= self._shift(step, ones, have)
                have += 1
            if not run:
                break
        return run

    def _bands(self, pos: Sequence[int]):
        """(steps, ones_of, source) per band of scan steps, bound falling
        within a band, ones_of(step, source) giving a step's ones: the plane
        source is one band of every step, compared from the planes of pos."""
        return [(self._scan_steps(), self._ones, self._planes(pos))]

    def _scan(self, pos: Sequence[int], ties: bool = False) -> tuple:
        """The longest progression length of the ordering with
        pos[canonical index] = position and, given ties, the smallest
        (base index, step) among the progressions of that length.

        Each band's steps are scanned in falling order of bound while the
        bound is above the best length, or, given ties, not below it.  The
        lowest rising bit of a step's longest runs is its smallest base with
        step w; the falling bits, shifted back by the run's length, are the
        bases with step -w.
        """
        best, key = 2, None
        for steps, ones_of, source in self._bands(pos):
            for bound, step in steps:
                if bound < best + (not ties):
                    break
                ones = ones_of(step, source)
                length = best + (not ties)
                run = self._run(step, ones, length - 1)
                if not run:
                    continue
                while length < bound and (longer := run & self._shift(step, ones, length - 1)):
                    run, length = longer, length + 1
                if length > best:
                    best, key = length, None
                if ties:
                    falling = self._shift(step, run >> 2 * self.card, 1 - best)
                    for bits, w in ((run & self._all, step[0]), (falling, step[1])):
                        lowest = ((bits & -bits).bit_length() - 1, w)
                        if bits and (key is None or lowest < key):
                            key = lowest
        return best, key

    def length_of_positions(self, pos: Sequence[int]) -> int:
        return self._scan(pos)[0] if self.card > 1 else 1

    def _positions(self, idx_seq: Sequence[int]) -> list[int]:
        """The engine's buffer filled with pos[canonical index] = position."""
        pos = self._pos
        for where, idx in enumerate(idx_seq):
            pos[idx] = where
        return pos

    def length_of_indices(self, idx_seq: Sequence[int]) -> int:
        return self.length_of_positions(self._positions(idx_seq))

    def count_of_indices(self, idx_seq: Sequence[int], k: int) -> int:
        """N_k of the ordering idx_seq: its k-term progressions in order.
        Every pair is one in exactly one direction; for k >= 3 it is the
        number of runs of k - 1 comparisons over the steps with bound k or
        more."""
        if k == 2:
            return self.card * (self.card - 1) // 2
        count = 0
        for steps, ones_of, source in self._bands(self._positions(idx_seq)):
            for bound, step in steps:
                if bound < k:
                    break
                count += self._run(step, ones_of(step, source), k - 1).bit_count()
        return count

    def witness(self, idx_seq: Sequence[int]) -> LasResult:
        """Longest progression of the ordering idx_seq with its witness:
        among equal lengths the smallest (base index, step) wins, steps
        compared as coordinate tuples (for a group, in the order of their
        canonical indices).  Length 2 needs no scan: the smallest base is
        the smallest index not listed last, paired with the smallest step to
        an element listed after it.
        """
        spec = self.spec
        if self.card == 1:
            return _singleton_result()
        pos = self._positions(idx_seq)
        best, key = self._scan(pos, ties=True)
        at = functools.partial(groups.element_at, spec)
        add = functools.partial(groups.add, spec)
        if best == 2:
            base = 0 if idx_seq[-1] != 0 else 1
            x = at(base)
            step, last = min((add(at(y), x, -1), y) for y in idx_seq[pos[base] + 1 :])
            return LasResult(2, x, step, (pos[base], pos[last]))
        base, step = at(key[0]), key[1]
        indices = tuple(
            pos[groups.canonical_index(spec, add(base, step, t))] for t in range(best)
        )
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise InternalInvariantError(f"witness {base} + t * {step} is out of order")
        return LasResult(best, base, step, indices)


class GroupLengthEngine(_LengthEngine):
    """Length engine, reusable across many orderings of one group spec.

    groups.step_classes lists each cyclic subgroup <v> of order m >= 3 by
    its smallest generator; order-2 subgroups only give 2-term progressions,
    which every set of two or more elements has.  The scan steps are u * v
    for each unit u < m / 2, with bound m, expanded on the first scan, each
    as whichever of w, -w has the lower index.  A run never passes m - 1
    comparisons, as m would close the cycle.

    With at most two invariant factors (d <= 2), a step's ones come from a
    comparison matrix built once per ordering and band of columns.  Its
    tiled layout gives element x the offset x_0 * 2 m_1 + x_1 (x at d = 1):
    kept over doubled coordinates, the later elements shifted by x's offset
    give row x, the w with x + w later than x, at w's offset.  The exponent
    is then at least sqrt|A|, far above L, so a scan visits almost every
    step; with more factors it can be below L, and the tiled rows would be
    2^(d - 1) times wider, so those groups compare the bit planes.  There,
    _shift moves bit x + w to bit x by rotating each coordinate c by w_c
    within its blocks of m_c * stride_c bits; every x + w is in the group.

    length_of_indices(idx_seq) fills the position buffer, pos[canonical
    index] = position, and scans it with length_of_positions(pos).
    """

    def _steps_of(self, v: tuple, units: tuple) -> list:
        moduli, strides = self.spec.moduli, self.spec.strides
        if self._starts is None:  # per coordinate, bit 0 of each block in both halves
            self._starts = [self._all // ((1 << m * s) - 1) * (1 + (1 << 2 * self.card))
                            for m, s in zip(moduli, strides)]
        steps = []
        for u in units:
            w = tuple(u * a % mc for a, mc in zip(v, moduli))
            w, neg = sorted((w, tuple(-a % mc for a, mc in zip(w, moduli))))
            turns = tuple((c, a, mc, s, self._starts[c])
                          for c, (a, mc, s) in enumerate(zip(w, moduli, strides)) if a)
            steps.append((w, neg, turns))
        return steps

    def _plan(self) -> list:
        """The matrix bands in column order, derived on the first scan, each
        at most _BAND_BITS: its first tiled column, its width in bytes, the
        byte columns its steps read and its (bound, step) pairs, bound
        falling, each step extended by the slice of its column in the
        band's transposed bytes."""
        if self._banded is None:
            rows, inner = (self.card + 7) & -8, self.spec.moduli[-1]
            per = max(1, _BAND_BITS // (8 * rows))
            bands: dict = {}
            for bound, step in self._scan_steps():
                i = sum(a * s for a, s in zip(step[0], self.spec.strides))
                col = i + i // inner * inner
                bands.setdefault(col // 8 // per, []).append((col, bound, step))
            self._banded = []
            for band, members in sorted(bands.items()):
                lo = 8 * per * band
                js = sorted({(col - lo) >> 3 for col, _, _ in members})
                at = {j: n * rows for n, j in enumerate(js)}
                steps = []
                for col, bound, step in members:
                    start = at[(col - lo) >> 3]
                    steps.append((bound, step + (slice(start + (col & 7), start + rows, 8),)))
                self._banded.append((lo, js[-1] + 1, js, steps))
        return self._banded

    def _bands(self, pos: Sequence[int]):
        """Past two invariant factors the plane source; otherwise the matrix
        bands, each transposed when the scan reaches it."""
        if len(self.spec.moduli) > 2:
            return super()._bands(pos)
        order = [0] * self.card
        for x, where in enumerate(pos):
            order[where] = x
        return ((steps, self._column, self._transposed(order, lo, width, js))
                for lo, width, js, steps in self._plan())

    def _transposed(self, order: list, lo: int, width: int, js: list) -> bytes:
        """The byte columns js of one band of the comparison matrix of the
        ordering listing order, each row x (the tiled columns from lo of the
        w with x + w later than x) read off the later elements, walking the
        ordering from its end; gathered by strided slices and transposed by
        8 x 8 bit blocks, so that a step's rising bits are one more strided
        slice."""
        card, rows, inner = self.card, (self.card + 7) & -8, self.spec.moduli[-1]
        # an element's bits in the tiled layout: its copies over the doubled
        # coordinates
        tile = (1 + (1 << inner)) * (1 + ((inner < card) << 2 * card))
        table, later, mask = [bytes(width)] * rows, 0, (1 << 8 * width) - 1
        for x in reversed(order):
            at = x + x // inner * inner
            table[x] = (later >> at + lo & mask).to_bytes(width, "little")
            later |= tile << at
        table = b"".join(table)
        bits = int.from_bytes(b"".join(table[j::width] for j in js), "little")
        del table  # peak memory: about five times the band's bits
        for shift, word in _SWAPS:
            swap = (bits ^ bits >> shift) & int.from_bytes(word * (len(js) * rows // 8), "little")
            bits ^= swap ^ swap << shift
        return bits.to_bytes(len(js) * rows, "little")

    def _column(self, step: tuple, table: bytes) -> int:
        rising = int.from_bytes(table[step[3]], "little")
        return rising | (rising ^ self._all) << 2 * self.card

    def _inside_of(self, step: tuple) -> int:
        return self._all

    def _shift(self, step: tuple, bits: int, t: int) -> int:
        for c, a, m, s, starts in step[2]:
            b = a * t % m
            if not b:
                continue
            if not c:  # each half of twice its width holds it twice over
                bits = ((bits | bits << self.card) >> b * s) & self._halves
                continue
            # the x whose coordinate c stays below m - b: (m - b) * s bits
            # from each block's start
            keep = (starts << (m - b) * s) - starts
            bits = (bits >> b * s & keep) | (bits << (m - b) * s & (keep ^ self._halves))
        return bits

    _banded = _starts = None

    # names of this class's own, which perfbench's tracer wraps
    length_of_positions = _LengthEngine.length_of_positions
    length_of_indices = _LengthEngine.length_of_indices


class IntervalLengthEngine(_LengthEngine):
    """Length engine for interval boxes, on canonical index sequences.

    The scan steps are the v of groups.step_classes, whose bound is the most
    terms of a path of step v in the box.  Bit x + v moves to bit x by a
    shift of v's index delta, which is positive; the bits of the x whose
    x + v leaves the box are dropped, so a run from x stays inside it.
    """

    def __init__(self, spec: AdditiveSetSpec):
        super().__init__(spec)
        self._masks: dict = {}

    def _steps_of(self, v: tuple, units: tuple) -> list:
        delta = sum(c * s for c, s in zip(v, self.spec.strides))
        return [(v, tuple(-c for c in v), delta)]

    def _inside_of(self, step: tuple) -> int:
        """The bits of the x whose x + v is in the box, kept for the first
        _MASKS_KEPT steps that ask."""
        v = step[0]
        inside = self._masks.get(v)
        if inside is None:
            n, inside = self.spec.n, 1
            for c, s in zip(v[::-1], self.spec.strides[::-1]):
                lo, hi = max(0, -c), min(n, n - c)
                # the inner coordinates' bits, s of them, at x * s for x in [lo, hi)
                inside *= ((1 << (hi - lo) * s) - 1) // ((1 << s) - 1) << lo * s
            if len(self._masks) < _MASKS_KEPT:
                self._masks[v] = inside
        return inside

    def _shift(self, step: tuple, bits: int, t: int) -> int:
        # a set bit of a run vouches that the bits it is shifted by are inside
        shift = t * step[2]
        return bits >> shift if shift >= 0 else bits << -shift

    # a name of this class's own, which perfbench's tracer wraps as a scan
    length_of_indices = _LengthEngine.length_of_indices


def length_engine(spec: AdditiveSetSpec):
    """Length engine for the family, built once per spec:
    engine.length_of_indices(idx_seq) is the longest progression length of
    the ordering listing the canonical indices idx_seq, and
    engine.witness(idx_seq) its LasResult.  Raises CapExceeded
    above ENGINE_CAP elements, before any table is built."""
    if spec.cardinality > ENGINE_CAP:
        raise CapExceeded(f"length engines capped at |A| <= {ENGINE_CAP}")
    if spec.family == INTERVAL:
        return IntervalLengthEngine(spec)
    return GroupLengthEngine(spec)

"""Longest arithmetic subsequence of an ordering, by two independent
algorithms, plus exact counting of k-term progression subsequences.

The orbit walk scans, for every nonidentity step, the cycles of x -> x + step
and finds the longest stretch of consecutive cycle nodes whose positions in
the ordering strictly increase.  The pair DP keys chains of index pairs by
their common difference.  Each algorithm is the other's oracle.

For many orderings of one set, length_engine builds a length-only walk
engine once, for groups and interval boxes alike.  It keeps one step v of
each pair {v, -v} and stores the lines of x -> x + v: the cycles of a group,
the maximal paths inside a box.  A rising run of positions along a line is a
progression with step v, a falling run one with step -v.  The scan probes
only every best-th comparison of a line and extends each probe both ways.
Every engine takes an ordering as its sequence of canonical indices, through
length_of_indices; the pair DP is its oracle for every family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from . import counting, groups
from .errors import CapExceeded, InternalInvariantError
from .groups import INTERVAL, AdditiveSetSpec

PAIR_DP_CAP = 5000
# A walk engine stores about |A|^2 / 2 line entries (cyclic:5000: 12.5 million).
ENGINE_CAP = 5000


class Ordering:
    """A sequence listing every element of the set exactly once."""

    __slots__ = ("spec", "seq", "indices")

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
        self.seq = seq
        self.indices = indices

    @classmethod
    def from_indices(cls, spec: AdditiveSetSpec, indices) -> "Ordering":
        return cls(spec, [groups.element_at(spec, i) for i in indices])

    def positions(self) -> list[int]:
        """positions()[canonical index] = position of that element in seq."""
        pos = [0] * len(self.indices)
        for where, idx in enumerate(self.indices):
            pos[idx] = where
        return pos

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ordering)
            and self.spec == other.spec
            and self.seq == other.seq
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.seq))

    def __repr__(self) -> str:
        return f"Ordering({self.spec}, {list(self.indices)})"


@dataclass(frozen=True)
class LasResult:
    """Length of the longest progression subsequence, with a witness.

    The witness is None only for singleton sets; otherwise base and step
    describe the progression and indices are the positions realizing it.
    """

    length: int
    base: Optional[tuple]
    step: Optional[tuple]
    indices: tuple[int, ...]


def _singleton_result() -> LasResult:
    return LasResult(1, None, None, (0,))


def step_cycles(spec: AdditiveSetSpec, step_idx: int) -> list[list[int]]:
    """Cycles of x -> x + step over canonical indices, for a group family."""
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
    """Longest progression subsequence via per-step orbit walks.

    Group families only; runs in time |A| * (number of steps).  Among
    equal-length witnesses, the smallest (base index, step index) wins.
    """
    spec = ordering.spec
    if not spec.is_group:
        raise ValueError("orbit walk requires a group family; use the pair DP")
    card = spec.cardinality
    if card == 1:
        return _singleton_result()
    pos = ordering.positions()
    best_len = 1
    best_key = None  # (base_idx, step_idx)
    for step_idx in range(1, card):
        for cyc in step_cycles(spec, step_idx):
            m = len(cyc)
            if m < 2:
                continue
            walk = cyc + cyc[:-1]
            run = 1
            prev = pos[walk[0]]
            for t in range(1, len(walk)):
                cur = pos[walk[t]]
                if cur > prev:
                    run += 1
                else:
                    run = 1
                prev = cur
                if run >= best_len and run >= 2:
                    base_idx = cyc[(t - run + 1) % m]
                    key = (base_idx, step_idx)
                    if run > best_len or best_key is None or key < best_key:
                        best_len = run
                        best_key = key
    if best_key is None:
        raise InternalInvariantError("no progression pair found in a set of size >= 2")
    base_idx, step_idx = best_key
    base = groups.element_at(spec, base_idx)
    step = groups.element_at(spec, step_idx)
    terms = counting.progression_terms(spec, counting.APSpec(base, step, best_len))
    indices = tuple(pos[groups.canonical_index(spec, t)] for t in terms)
    return LasResult(best_len, base, step, indices)


def _interval_diff_key(diff: tuple, n: int) -> int:
    """Injective code for a lattice difference vector with entries in
    [-(n-1), n-1]."""
    key = 0
    radix = 2 * n - 1
    for c in diff:
        if not -(n - 1) <= c <= n - 1:
            raise InternalInvariantError(f"difference {diff} out of signed range")
        key = key * radix + (c + n - 1)
    return key


def longest_ap_pairdp(ordering: Ordering, *, cap: int = PAIR_DP_CAP) -> LasResult:
    """Longest progression subsequence via the pair dynamic program.

    Works for every family; differences for the interval family live in the
    ambient lattice.  Quadratic time and memory in |A|.
    """
    spec = ordering.spec
    card = spec.cardinality
    if card > cap:
        raise CapExceeded(f"pair DP capped at |A| <= {cap}")
    if card == 1:
        return _singleton_result()

    seq = ordering.seq
    n_pos = len(seq)
    is_interval = spec.family == INTERVAL
    moduli = None if is_interval else spec.moduli

    if is_interval:
        def diff_key(j: int, i: int) -> int:
            return _interval_diff_key(
                tuple(a - b for a, b in zip(seq[j], seq[i])), spec.n
            )
    else:
        def diff_key(j: int, i: int) -> int:
            key = 0
            for a, b, m in zip(seq[j], seq[i], moduli):
                key = key * m + (a - b) % m
            return key

    dp: list[dict[int, int]] = [dict() for _ in range(n_pos)]
    best_len = 2
    for j in range(1, n_pos):
        dpj = dp[j]
        for i in range(j):
            key = diff_key(j, i)
            prev = dp[i].get(key)
            length = 2 if prev is None else prev + 1
            dpj[key] = length
            if length > best_len:
                best_len = length

    # Reconstruct the lexicographically smallest (base index, step key)
    # witness among the chains of maximal length.
    pos_of = {elem: where for where, elem in enumerate(seq)}
    best_key = None
    best_chain = None
    for j in range(n_pos):
        for key, length in dp[j].items():
            if length != best_len:
                continue
            chain = [j]
            cur = j
            cur_key = key
            while True:
                prev_len = dp[cur].get(cur_key, 0)
                if prev_len <= 2:
                    break
                step = _decode_step(spec, cur_key)
                prev_elem = _subtract(spec, seq[cur], step)
                cur = pos_of[prev_elem]
                chain.append(cur)
            step = _decode_step(spec, key)
            first = _subtract(spec, seq[chain[-1]], step)
            chain.append(pos_of[first])
            chain.reverse()
            base_idx = groups.canonical_index(spec, seq[chain[0]])
            cand = (base_idx, key)
            if best_key is None or cand < best_key:
                best_key = cand
                best_chain = chain
    if best_chain is None:
        raise InternalInvariantError("pair DP found no chain in a set of size >= 2")
    indices = tuple(best_chain)
    base = seq[indices[0]]
    step = _decode_step(spec, best_key[1])
    return LasResult(best_len, base, step, indices)


def _decode_step(spec: AdditiveSetSpec, key: int):
    if spec.family == INTERVAL:
        radix = 2 * spec.n - 1
        coords = []
        for _ in range(spec.d):
            key, c = divmod(key, radix)
            coords.append(c - (spec.n - 1))
        return tuple(reversed(coords))
    return groups.element_at(spec, key)


def _subtract(spec: AdditiveSetSpec, x: tuple, y: tuple) -> tuple:
    if spec.family == INTERVAL:
        return tuple(a - b for a, b in zip(x, y))
    return tuple((a - b) % m for a, b, m in zip(x, y, spec.moduli))


def progression_index_tuples(
    spec: AdditiveSetSpec, k: int, *, enum_cap: int = counting.DEFAULT_ENUM_CAP
) -> tuple[tuple[int, ...], ...]:
    """Every progression k-ordering of the set, as canonical-index tuples."""
    return tuple(
        tuple(groups.canonical_index(spec, t) for t in terms)
        for _ap, terms in counting.iter_progressions(spec, k, enum_cap=enum_cap)
    )


def count_in_order(progs, idx_seq: Sequence[int]) -> int:
    """Number of index tuples in progs whose terms appear in increasing
    positions of the ordering idx_seq (canonical indices)."""
    pos = [0] * len(idx_seq)
    for where, idx in enumerate(idx_seq):
        pos[idx] = where
    count = 0
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


def count_k_subsequences(
    ordering: Ordering, k: int, *, enum_cap: int = counting.DEFAULT_ENUM_CAP
) -> int:
    """Exact number of k-term progression subsequences of the ordering."""
    spec = ordering.spec
    card = spec.cardinality
    if k < 2 or k > card:
        raise ValueError(f"k must be in [2, {card}], got {k}")
    progs = progression_index_tuples(spec, k, enum_cap=enum_cap)
    return count_in_order(progs, ordering.indices)


def _check_engine_cap(spec: AdditiveSetSpec) -> None:
    if spec.cardinality > ENGINE_CAP:
        raise CapExceeded(f"length engines capped at |A| <= {ENGINE_CAP}")


def _longest_run(lines, pos: Sequence[int]) -> int:
    """Most terms of a monotone run of positions along any line.

    lines holds (m, line) pairs sorted by m, longest first: line lists
    canonical indices along x -> x + v, and m bounds the terms of any run in
    it.  A rising run is a progression with step v, a falling run one with
    step -v.  A run of best + 1 terms is best consecutive comparisons in one
    direction, so only every best-th comparison is probed; each probe is
    extended both ways while the direction holds, and the scan resumes
    best - 1 comparisons past the run's end.
    """
    best = 2
    for m, line in lines:
        if m <= best:
            break
        last = len(line) - 1
        t = best - 1  # comparison t joins terms t and t + 1
        while t < last:
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
            t = hi + best - 1
    return best


def _negation_table(moduli) -> list[int]:
    """Entry i is the canonical index of -element_i."""
    table = [0]
    for m in moduli:
        table = [base * m + (-c) % m for base in table for c in range(m)]
    return table


class GroupLengthEngine:
    """Length-only walk engine, reusable across many orderings of one group
    spec.

    The build keeps one step v of each pair {v, -v} of order at least 3 and
    stores each cycle of x -> x + v walked as cyc + cyc[:-1], so every
    cyclic window of the cycle is a slice of the walk.  Steps of order 2
    only give 2-term progressions, which every set of two or more elements
    has.

    length_of_indices(idx_seq) fills the engine's position buffer from the
    canonical-index sequence and scans it with length_of_positions(pos),
    where pos[canonical index] = position in the ordering.
    """

    def __init__(self, spec: AdditiveSetSpec):
        if not spec.is_group:
            raise ValueError("length engine requires a group family")
        _check_engine_cap(spec)
        self.spec = spec
        self.card = card = spec.cardinality
        ids = list(range(card))  # walks share these int objects
        neg = _negation_table(spec.moduli)
        lines = []
        for step_idx in range(1, card):
            if neg[step_idx] <= step_idx:  # -v comes first, or v has order 2
                continue
            succ = counting._succ_table(spec, groups.element_at(spec, step_idx))
            seen = bytearray(card)
            for start in range(card):
                if seen[start]:
                    continue
                cyc = []
                cur = start
                while not seen[cur]:
                    seen[cur] = 1
                    cyc.append(ids[cur])
                    cur = succ[cur]
                lines.append((len(cyc), cyc + cyc[:-1]))
        # longer cycles first so the m <= best cut fires often
        lines.sort(key=itemgetter(0), reverse=True)
        self.lines = lines
        self._pos = [0] * card

    def length_of_positions(self, pos: Sequence[int]) -> int:
        if self.card == 1:
            return 1
        return _longest_run(self.lines, pos)

    def length_of_indices(self, idx_seq: Sequence[int]) -> int:
        pos = self._pos
        for where, idx in enumerate(idx_seq):
            pos[idx] = where
        return self.length_of_positions(pos)


class IntervalLengthEngine:
    """Length-only walk engine for interval boxes, on canonical index
    sequences.

    The build keeps one step v of each pair {v, -v} (first nonzero
    coordinate positive) with every |v_i| <= (n - 1) / 2, and stores each
    maximal path x, x + v, ... inside the box with at least 3 terms, as the
    row-major indices from x in strides of v's index delta.  The scan is the
    group engine's.
    """

    def __init__(self, spec: AdditiveSetSpec):
        if spec.family != INTERVAL:
            raise ValueError("interval engine requires the interval family")
        _check_engine_cap(spec)
        self.spec = spec
        self.card = card = spec.cardinality
        n, d = spec.n, spec.d
        strides = [n ** (d - 1 - i) for i in range(d)]
        half = (n - 1) // 2
        ids = list(range(card))  # paths share these int objects
        lines = []
        if d == 1:
            # the paths of step v start at x < v; 3 terms need x < n - 2v
            for v in range(1, half + 1):
                paths = [ids[x::v] for x in range(min(v, n - 2 * v))]
                lines += zip(map(len, paths), paths)
        else:
            origin = (0,) * d
            for v in itertools.product(range(-half, half + 1), repeat=d):
                if v <= origin:
                    continue
                delta = sum(c * s for c, s in zip(v, strides))
                lines += [
                    (cnt, ids[idx : idx + cnt * delta : delta])
                    for idx, cnt in _box_path_starts(n, v, strides)
                ]
        lines.sort(key=itemgetter(0), reverse=True)
        self.lines = lines
        self._pos = [0] * card

    def length_of_indices(self, idx_seq: Sequence[int]) -> int:
        if self.card == 1:
            return 1
        pos = self._pos
        for where, idx in enumerate(idx_seq):
            pos[idx] = where
        return _longest_run(self.lines, pos)


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
    """Length-only walk engine for the family, built once per spec:
    engine.length_of_indices(idx_seq) is the longest progression length of
    the ordering listing the canonical indices idx_seq.  Raises CapExceeded
    above ENGINE_CAP elements, before any table is built."""
    if spec.family == INTERVAL:
        return IntervalLengthEngine(spec)
    return GroupLengthEngine(spec)

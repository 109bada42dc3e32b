"""Longest arithmetic subsequence of an ordering, by two independent
algorithms, plus exact counting of k-term progression subsequences.

Both algorithms take an ordering as canonical indices.  The walk engine of
a set (length_engine) is built once per spec, for groups and interval boxes
alike.  It keeps one step v of each pair {v, -v} and stores the lines of
x -> x + v: the cycles of a group (walked once per cyclic subgroup), the
maximal paths inside a box.  A rising run of positions along a line is a
progression with step v, a falling run one with step -v.
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
row-major strides in boxes, that appear in order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from . import counting, groups
from .errors import CapExceeded, InternalInvariantError
from .groups import INTERVAL, AdditiveSetSpec

PAIR_DP_CAP = 5000
# A group engine stores about |A|^2 line entries, its walks being doubled
# (cyclic:5000: 24,967,500); a box stores fewer (interval:1000: 416,166).
ENGINE_CAP = 5000
# Most orderings one Monte Carlo experiment draws (simulate exits 2 above
# it); exhaustive enumeration runs 10! = 3,628,800 orderings serially.
SAMPLE_CAP = 10**7


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


def longest_ap_pairdp(ordering: Ordering, *, cap: int = PAIR_DP_CAP) -> LasResult:
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
    if card > cap:
        raise CapExceeded(f"pair DP capped at |A| <= {cap}")
    if card == 1:
        return _singleton_result()

    seq = ordering.seq
    ids = ordering.indices
    # x_c counted from 0 is x_c less the least value, so a row starts at
    # the coordinate's greatest value (that of the last element) less x_c
    tops = groups.element_at(spec, card - 1)
    diff_rows = list(zip(tops, spec.radixes, _diff_rows(spec)))
    dp: list[dict[int, int]] = [{}]
    best_len = 2
    for j in range(1, card):
        row = None
        for x, (top, m, values) in zip(seq[j], diff_rows):
            lo = top - x
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
    # unique, and its base is seq[j] - (best_len - 1) * step.
    steps: dict[int, tuple] = {}
    best = None
    for j, dpj in enumerate(dp):
        if not dpj or max(dpj.values()) != best_len:
            continue
        for key, length in dpj.items():
            if length != best_len:
                continue
            step = steps.get(key)
            if step is None:
                step = steps[key] = _decode_step(spec, key)
            cand = (groups.add(spec, seq[j], step, 1 - best_len), step)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InternalInvariantError("pair DP found no chain in a set of size >= 2")
    base, step = best
    pos_of = {x: where for where, x in enumerate(seq)}
    indices = tuple(pos_of[groups.add(spec, base, step, t)] for t in range(best_len))
    return LasResult(best_len, base, step, indices)


def _decode_step(spec: AdditiveSetSpec, key: int) -> tuple:
    """The step whose pair-DP key is key: the element of that canonical
    index in a group; in a box, the element of that index in the box
    [1, 2n - 1]^d, shifted by n."""
    if spec.family != INTERVAL:
        return groups.element_at(spec, key)
    keys = groups.interval_box(2 * spec.n - 1, spec.d)
    return tuple(c - spec.n for c in groups.element_at(keys, key))


def progression_index_tuples(
    spec: AdditiveSetSpec, k: int, *, enum_cap: int = counting.DEFAULT_ENUM_CAP
) -> tuple[tuple[int, ...], ...]:
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
    counting.check_enum_cap(spec, enum_cap)
    card = spec.cardinality
    out: list[tuple[int, ...]] = []
    if spec.family != INTERVAL:
        for r in itertools.product(*map(range, spec.moduli)):
            succ = counting._succ_table(spec, r)
            cols = [range(card)]
            for _ in range(k - 1):
                cols.append([*map(succ.__getitem__, cols[-1])])
                if cols[-1][0] == 0:  # order of r below k
                    break
            else:
                out += zip(*cols)
        return tuple(out)
    n, d = spec.n, spec.d
    strides = [n ** (d - 1 - i) for i in range(d)]
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


def _engine_witness(engine, idx_seq: Sequence[int]) -> LasResult:
    """Longest progression of the ordering idx_seq with its witness: among
    equal lengths the smallest (base index, step) wins, steps compared as
    coordinate tuples (for a group, in the order of their canonical
    indices).

    A rising run along a line with step v is the progression with step v
    from the run's first term; a falling run is the one with step -v from
    the run's last term.  Each line's step is the difference of its first
    two terms, decoded and subtracted by groups.  Length 2 needs no lines: the smallest base is the smallest
    index not listed last, paired with the smallest step to an element
    listed after it.
    """
    spec = engine.spec
    if engine.card == 1:
        return _singleton_result()
    pos = engine._pos
    for where, idx in enumerate(idx_seq):
        pos[idx] = where
    best = _longest_run(engine.lines, pos)
    at = functools.partial(groups.element_at, spec)
    add = functools.partial(groups.add, spec)
    if best == 2:
        base = 0 if idx_seq[-1] != 0 else 1
        x = at(base)
        step, last = min((add(at(y), x, -1), y) for y in idx_seq[pos[base] + 1 :])
        return LasResult(2, x, step, (pos[base], pos[last]))
    best_key = None
    for m, line in engine.lines:
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
    return LasResult(best, groups.element_at(spec, best_key[0]), best_key[1], indices)


class GroupLengthEngine:
    """Walk engine, reusable across many orderings of one group spec.

    The build keeps one step v of each pair {v, -v} of order at least 3 and
    stores each cycle of x -> x + v walked as cyc + cyc[:-1], so every
    cyclic window of the cycle is a slice of the walk, and the scan probes
    it below comparison m + best - 1 only.  The cosets of each cyclic
    subgroup <v> of order m are walked once; for each unit u < m / 2 the
    cycles of u * v read them at i * u mod m.  Order-2 subgroups only give
    2-term progressions, which every set of two or more elements has.

    length_of_indices(idx_seq) fills the engine's position buffer from the
    canonical-index sequence and scans it with length_of_positions(pos),
    where pos[canonical index] = position in the ordering.  witness(idx_seq)
    returns the LasResult (see _engine_witness).
    """

    def __init__(self, spec: AdditiveSetSpec):
        if not spec.is_group:
            raise ValueError("length engine requires a group family")
        _check_engine_cap(spec)
        self.spec = spec
        self.card = card = spec.cardinality
        ids = list(range(card))  # walks share these int objects
        done = bytearray(card)
        lines = []
        for step_idx in range(1, card):
            if done[step_idx]:
                continue
            if groups.element_order(spec, groups.element_at(spec, step_idx)) < 3:
                continue
            # the cycles of every generator u * v of <v> are its cosets
            cosets = [[*map(ids.__getitem__, c)] for c in step_cycles(spec, step_idx)]
            multiples = cosets[0]  # multiples[u] = u * v
            m = len(multiples)
            for u in range(1, (m + 1) // 2):
                if math.gcd(u, m) == 1:
                    done[multiples[u]] = done[multiples[m - u]] = 1
                    perm = list(map(m.__rmod__, range(0, m * u, u)))
                    walk = itemgetter(*perm, *perm[:-1])
                    lines += [(m, walk(cyc)) for cyc in cosets]
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

    witness = _engine_witness


class IntervalLengthEngine:
    """Walk engine for interval boxes, on canonical index sequences.

    The build keeps one step v of each pair {v, -v} (first nonzero
    coordinate positive) with every |v_i| <= (n - 1) / 2, and stores each
    maximal path x, x + v, ... inside the box with at least 3 terms, as the
    row-major indices from x in strides of v's index delta.  The scan and
    the witness are the group engine's.
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
        # paths share these int objects; as tuple slices they are tuples,
        # which the cyclic garbage collector stops tracking
        ids = tuple(range(card))
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

    witness = _engine_witness


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
    if spec.family == INTERVAL:
        return IntervalLengthEngine(spec)
    return GroupLengthEngine(spec)

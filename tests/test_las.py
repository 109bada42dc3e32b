import functools
import itertools
import math
import random
import tracemalloc

import pytest

from apseq import counting, enumeration, groups, las
from apseq.counting import iter_progressions
from apseq.errors import CapExceeded
from apseq.groups import abelian, cyclic, elementary, interval_box, parse_set_spec
from apseq.las import (
    ENGINE_CAP,
    PAIR_DP_CAP,
    Ordering,
    count_in_order,
    count_k_subsequences,
    length_engine,
    longest_ap_orbitwalk,
    longest_ap_pairdp,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency: the property tests are skipped
    st = None


def _ordering(spec, indices):
    return Ordering.from_indices(spec, indices)


def test_ordering_validation():
    with pytest.raises(ValueError):
        Ordering(cyclic(3), [(0,), (1,)])
    with pytest.raises(ValueError):
        Ordering(cyclic(3), [(0,), (1,), (1,)])
    with pytest.raises(ValueError):
        Ordering(cyclic(3), [(0,), (1,), (3,)])


def test_from_indices_equals_ordering_of_elements():
    specs = [interval_box(1), interval_box(5), interval_box(3, 2), cyclic(2), cyclic(7),
             abelian(2, 4), elementary(3, 2)]
    rng = random.Random(5)
    for spec in specs:
        for _ in range(3):
            idx = list(range(spec.cardinality))
            rng.shuffle(idx)
            seq = [groups.element_at(spec, i) for i in idx]
            built = Ordering.from_indices(spec, idx)
            assert built == Ordering(spec, seq)
            assert built.seq == tuple(seq)
            assert built.indices == tuple(idx)
            assert hash(built) == hash(Ordering(spec, seq))


def test_from_indices_validation():
    for spec in (cyclic(4), interval_box(4), abelian(2, 2)):
        with pytest.raises(ValueError, match="must list all 4 elements, got 3"):
            Ordering.from_indices(spec, [0, 1, 2])
        with pytest.raises(ValueError, match="repeats an element"):
            Ordering.from_indices(spec, [0, 1, 2, 2])
        for bad in (4, -1, 1.0, "1"):
            with pytest.raises(ValueError, match="out of range"):
                Ordering.from_indices(spec, [0, bad, 2, 3])


def test_orbitwalk_wraparound_example():
    o = _ordering(cyclic(7), [0, 2, 6, 1, 3, 5, 4])
    res = longest_ap_orbitwalk(o)
    assert res.length == 4
    assert res.base == (0,)
    assert res.step == (6,)
    assert res.indices == (0, 2, 5, 6)


def test_orbitwalk_identity_ordering():
    res = longest_ap_orbitwalk(_ordering(cyclic(4), [0, 1, 2, 3]))
    assert res.length == 4


def test_singletons():
    for spec in [cyclic(1), interval_box(1)]:
        o = _ordering(spec, [0])
        assert longest_ap_orbitwalk(o).length == 1
        assert longest_ap_pairdp(o).length == 1


def test_pairdp_interval_examples():
    o = Ordering(interval_box(7), [(2,), (7,), (1,), (6,), (3,), (4,), (5,)])
    assert longest_ap_pairdp(o).length == 4
    # same index pattern read over the interval loses the wraparound run
    o2 = _ordering(interval_box(7), [0, 2, 6, 1, 3, 5, 4])
    assert longest_ap_pairdp(o2).length == 3
    o3 = _ordering(interval_box(2), [1, 0])
    assert longest_ap_pairdp(o3).length == 2


def test_pairdp_matches_orbitwalk_on_wraparound():
    o = _ordering(cyclic(7), [0, 2, 6, 1, 3, 5, 4])
    res = longest_ap_pairdp(o)
    assert res.length == 4
    assert res.base == (0,)
    assert res.step == (6,)
    assert res.indices == (0, 2, 5, 6)


def test_pairdp_cap():
    card = PAIR_DP_CAP + 1
    with pytest.raises(CapExceeded):
        longest_ap_pairdp(_ordering(cyclic(card), range(card)))


def test_witness_reverifies():
    rnd = random.Random(7)
    for spec in [cyclic(12), abelian(2, 6), interval_box(10), elementary(3, 2)]:
        card = spec.cardinality
        for _ in range(20):
            indices = list(range(card))
            rnd.shuffle(indices)
            o = _ordering(spec, indices)
            for res in (longest_ap_pairdp(o), longest_ap_orbitwalk(o)):
                assert len(res.indices) == res.length
                assert list(res.indices) == sorted(res.indices)
                # terms at those positions really form the claimed progression
                terms = [o.seq[i] for i in res.indices]
                cur = res.base
                assert terms[0] == cur
                for t in terms[1:]:
                    cur = (
                        tuple(a + b for a, b in zip(cur, res.step))
                        if spec.family == groups.INTERVAL
                        else tuple(
                            (a + b) % m for a, b, m in zip(cur, res.step, spec.moduli)
                        )
                    )
                    assert t == cur


def _definition_las(ordering):
    # exponential reference: try every index subsequence, test the progression
    # property on the element values directly
    spec = ordering.spec
    seq = ordering.seq
    n = len(seq)

    def is_progression(elems):
        if len(elems) < 2:
            return False
        if spec.family == groups.INTERVAL:
            step = tuple(a - b for a, b in zip(elems[1], elems[0]))
            nxt = lambda x: tuple(a + b for a, b in zip(x, step))
        else:
            mods = spec.moduli
            step = tuple((a - b) % m for a, b, m in zip(elems[1], elems[0], mods))
            nxt = lambda x: tuple((a + b) % m for a, b, m in zip(x, step, mods))
        if all(c == 0 for c in step):
            return False
        cur = elems[0]
        for e in elems[1:]:
            cur = nxt(cur)
            if e != cur:
                return False
        return True

    best = 1
    for size in range(2, n + 1):
        for positions in itertools.combinations(range(n), size):
            if is_progression([seq[i] for i in positions]):
                best = max(best, size)
    return best


def test_algorithms_match_definition_oracle():
    rnd = random.Random(31)
    for spec in [cyclic(5), cyclic(6), abelian(2, 2), interval_box(6), interval_box(2, 2)]:
        card = spec.cardinality
        perms = list(itertools.permutations(range(card)))
        rnd.shuffle(perms)
        for perm in perms[:60]:
            o = _ordering(spec, perm)
            want = _definition_las(o)
            assert longest_ap_pairdp(o).length == want, (spec, perm)
            assert longest_ap_orbitwalk(o).length == want, (spec, perm)


def test_algorithms_agree_exhaustive_small():
    specs = [cyclic(n) for n in range(2, 6)] + [abelian(2, 2)]
    for spec in specs:
        card = spec.cardinality
        for perm in itertools.permutations(range(card)):
            o = _ordering(spec, perm)
            assert (
                longest_ap_orbitwalk(o).length == longest_ap_pairdp(o).length
            ), (spec, perm)


def test_algorithms_agree_randomized():
    rnd = random.Random(20260808)
    specs = [cyclic(24), cyclic(37), abelian(2, 4, 8), abelian(6, 6), elementary(5, 2)]
    for spec in specs:
        card = spec.cardinality
        indices = list(range(card))
        for _ in range(40):
            rnd.shuffle(indices)
            o = _ordering(spec, indices)
            assert longest_ap_orbitwalk(o).length == longest_ap_pairdp(o).length


def test_witnesses_agree_between_algorithms():
    # the full LasResult: length, base, step and positions; on boxes, the
    # engine's tie-break among runs of one line and between lines
    exhaustive = [cyclic(n) for n in range(1, 8)] + [abelian(2, 2)]
    for spec in exhaustive + [interval_box(n) for n in range(1, 8)] + [interval_box(2, 2)]:
        for perm in itertools.permutations(range(spec.cardinality)):
            o = _ordering(spec, perm)
            assert longest_ap_orbitwalk(o) == longest_ap_pairdp(o), (spec, perm)
    rnd = random.Random(99)
    seeded = [cyclic(10), abelian(2, 6), abelian(2, 4), abelian(2, 2, 2), cyclic(8),
              cyclic(60), abelian(2, 6, 12)]
    for spec in seeded:
        indices = list(range(spec.cardinality))
        for _ in range(50):
            rnd.shuffle(indices)
            o = _ordering(spec, indices)
            assert longest_ap_orbitwalk(o) == longest_ap_pairdp(o), (spec, indices)


@pytest.mark.parametrize(
    "text", ["interval:1", "interval:2", "interval:9", "interval:40", "interval:2,2",
             "interval:4,2", "interval:3,3"]
)
def test_interval_engine_witness_matches_pairdp(text):
    # the same tie-break: smallest base index, then smallest step (the
    # pair DP's key orders lattice steps lexicographically)
    spec = parse_set_spec(text)
    engine = length_engine(spec)
    rnd = random.Random(5)
    indices = list(range(spec.cardinality))
    for _ in range(40):
        rnd.shuffle(indices)
        assert engine.witness(indices) == longest_ap_pairdp(_ordering(spec, indices))


def test_orbitwalk_cap():
    with pytest.raises(CapExceeded):
        longest_ap_orbitwalk(_ordering(cyclic(ENGINE_CAP + 1), range(ENGINE_CAP + 1)))


def _k_max(spec):
    return spec.n if spec.family == groups.INTERVAL else spec.exponent


def _index_tuples(spec, k):
    # the oracle's progressions: counting's walker, which reads counting._steps
    # and not groups.step_classes as the engines do
    index = {groups.element_at(spec, i): i for i in range(spec.cardinality)}
    return [tuple(map(index.__getitem__, terms)) for _ap, terms in iter_progressions(spec, k)]


def _oracle_orderings(card, seed):
    # the identity and its reverse, then 5 seeded shuffles
    rnd = random.Random(seed)
    seqs = [list(range(card)), list(range(card))[::-1]]
    for _ in range(5):
        seq = list(range(card))
        rnd.shuffle(seq)
        seqs.append(seq)
    return seqs


@pytest.mark.parametrize(
    "spec",
    [interval_box(n) for n in range(2, 13)]
    + [interval_box(n, 2) for n in range(2, 7)]
    + [interval_box(n, 3) for n in range(2, 5)]
    + [cyclic(n) for n in range(2, 21)]
    + [abelian(2, 4), abelian(3, 9), abelian(2, 2, 2), elementary(3, 2)]
    + [interval_box(30), cyclic(50), abelian(2, 6), elementary(3, 3)],
    ids=str,
)
def test_count_k_subsequences_match_count_in_order(spec):
    seqs = _oracle_orderings(spec.cardinality, 41)
    for k in range(2, _k_max(spec) + 1):
        progs = _index_tuples(spec, k)
        for seq in seqs:
            got = count_k_subsequences(_ordering(spec, seq), k)
            assert got == count_in_order(progs, seq), (spec, k, seq)


def test_count_k_subsequences_edge_rows():
    # k = |A|: only the identity and its reverse hold a progression in order
    spec = interval_box(6)
    for seq in (range(6), range(5, -1, -1)):
        assert count_k_subsequences(_ordering(spec, seq), 6) == 1
    # no progression 3-ordering in a group of exponent 2
    spec = elementary(2, 4)
    assert _index_tuples(spec, 3) == []
    assert {count_k_subsequences(_ordering(spec, s), 3) for s in _oracle_orderings(16, 7)} == {0}
    # every pair is a progression in order in one direction
    assert count_k_subsequences(_ordering(cyclic(2), [1, 0]), 2) == 1


def test_length_engines_match_public_algorithms():
    rnd = random.Random(3)
    for spec in [cyclic(15), abelian(3, 6), interval_box(12), interval_box(3, 2)]:
        engine = length_engine(spec)
        card = spec.cardinality
        indices = list(range(card))
        for _ in range(30):
            rnd.shuffle(indices)
            o = _ordering(spec, indices)
            want = longest_ap_pairdp(o).length
            assert engine.length_of_indices(tuple(indices)) == want


def test_reversal_invariance():
    rnd = random.Random(11)
    for spec in [cyclic(12), interval_box(10)]:
        card = spec.cardinality
        indices = list(range(card))
        for _ in range(20):
            rnd.shuffle(indices)
            fwd = longest_ap_pairdp(_ordering(spec, indices)).length
            rev = longest_ap_pairdp(_ordering(spec, indices[::-1])).length
            assert fwd == rev


def test_affine_invariance_cyclic():
    rnd = random.Random(13)
    n = 12
    spec = cyclic(n)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    indices = list(range(n))
    for _ in range(15):
        rnd.shuffle(indices)
        base_len = longest_ap_orbitwalk(_ordering(spec, indices)).length
        for _ in range(5):
            u = rnd.choice(units)
            b = rnd.randrange(n)
            mapped = [(u * v + b) % n for v in indices]
            assert longest_ap_orbitwalk(_ordering(spec, mapped)).length == base_len


def _raw_sequence_las(values):
    # independent check: longest progression subsequence of an arbitrary
    # integer sequence, plain dictionary DP
    best = 1 if len(values) < 2 else 2
    dp = [dict() for _ in values]
    for j in range(1, len(values)):
        for i in range(j):
            d = values[j] - values[i]
            length = dp[i].get(d, 1) + 1
            dp[j][d] = length
            if length > best:
                best = length
    return best


def test_affine_invariance_interval():
    # injective affine relabeling of the entries preserves lengths
    rnd = random.Random(17)
    n = 9
    spec = interval_box(n)
    indices = list(range(n))
    for _ in range(15):
        rnd.shuffle(indices)
        base_len = longest_ap_pairdp(_ordering(spec, indices)).length
        # reflected entries stay inside [1, n]
        mapped = [n - 1 - v for v in indices]
        assert longest_ap_pairdp(_ordering(spec, mapped)).length == base_len
        # general affine images leave the box, so compare raw-sequence lengths
        assert _raw_sequence_las(indices) == base_len
        for _ in range(4):
            u = rnd.choice([-3, -2, -1, 2, 3, 5])
            b = rnd.randrange(-20, 20)
            assert _raw_sequence_las([u * v + b for v in indices]) == base_len


def test_las_extremes():
    # L = |A| exactly when the ordering is itself a progression
    spec = cyclic(8)
    assert longest_ap_orbitwalk(_ordering(spec, [0, 3, 6, 1, 4, 7, 2, 5])).length == 8
    for perm in itertools.permutations(range(4)):
        o = _ordering(cyclic(4), perm)
        L = longest_ap_orbitwalk(o).length
        is_prog = count_k_subsequences(o, 4) > 0
        assert (L == 4) == is_prog


def test_count_k_subsequences_examples():
    for n in (5, 7):
        ident = _ordering(interval_box(n), range(n))
        assert count_k_subsequences(ident, n) == 1
    o = Ordering(interval_box(7), [(2,), (7,), (1,), (6,), (3,), (4,), (5,)])
    assert count_k_subsequences(o, 4) == 1
    o2 = _ordering(cyclic(2), [0, 1])
    assert count_k_subsequences(o2, 2) == 1


def test_count_k_subsequences_domain():
    o = _ordering(cyclic(5), range(5))
    with pytest.raises(ValueError):
        count_k_subsequences(o, 1)
    with pytest.raises(ValueError):
        count_k_subsequences(o, 6)
    # N_k runs the length engine: one set past its cap
    with pytest.raises(CapExceeded):
        count_k_subsequences(_ordering(cyclic(ENGINE_CAP + 1), range(ENGINE_CAP + 1)), 3)


def test_consistency_with_length():
    rnd = random.Random(23)
    for spec in [cyclic(9), interval_box(8)]:
        card = spec.cardinality
        indices = list(range(card))
        for _ in range(10):
            rnd.shuffle(indices)
            o = _ordering(spec, indices)
            L = longest_ap_pairdp(o).length
            assert count_k_subsequences(o, L) >= 1
            if L + 1 <= card:
                assert count_k_subsequences(o, L + 1) == 0


def _regular_symmetries(spec):
    """Index maps of |A| symmetries that act regularly on the set: the
    translations of a group, or the coordinate reflections of {1, 2}^d."""
    elems = list(groups.elements(spec))
    if spec.is_group:
        def act(c, x):
            return tuple((a + b) % m for a, b, m in zip(x, c, spec.moduli))
    else:
        assert spec.n == 2

        def act(c, x):
            return tuple(3 - a if b == 2 else a for a, b in zip(x, c))
    return [[groups.canonical_index(spec, act(c, x)) for x in elems] for c in elems]


@pytest.mark.parametrize(
    "text", ["interval:2,2", "abelian:2x2", "abelian:2x4", "abelian:2x2x2", "interval:2,3"]
)
def test_length_engine_matches_pairdp_exhaustive(text):
    # every ordering is the image of exactly one ordering starting with index
    # 0 under exactly one of the symmetries, which all preserve L; the pair DP
    # runs once per such representative, the engine on every ordering
    spec = parse_set_spec(text)
    engine = length_engine(spec)
    maps = _regular_symmetries(spec)
    checked = 0
    for tail in itertools.permutations(range(1, spec.cardinality)):
        perm = (0,) + tail
        want = longest_ap_pairdp(_ordering(spec, perm)).length
        for row in maps:
            image = [row[v] for v in perm]
            assert engine.length_of_indices(image) == want, (text, image)
            checked += 1
    assert checked == math.factorial(spec.cardinality)


@pytest.mark.parametrize(
    "text, want",
    [
        ("cyclic:1", 1),
        ("interval:1", 1),
        ("interval:1,3", 1),
        ("cyclic:2", 2),
        ("interval:2", 2),
        # 2v = 0 for every v, so no 3-term progression exists
        ("elementary:2^3", 2),
    ],
)
def test_length_engine_edge_sets(text, want):
    spec = parse_set_spec(text)
    engine = length_engine(spec)
    perms = list(itertools.permutations(range(spec.cardinality)))
    for perm in perms:
        assert engine.length_of_indices(perm) == want
    for perm in perms[:50]:
        assert longest_ap_pairdp(_ordering(spec, perm)).length == want


@pytest.mark.parametrize(
    "spec",
    [cyclic(ENGINE_CAP + 1), abelian(2, 2 * (ENGINE_CAP // 4 + 1)),
     interval_box(ENGINE_CAP + 1), interval_box(71, 2)],
    ids=str,
)
def test_length_engine_cap(spec):
    with pytest.raises(CapExceeded):
        length_engine(spec)


def _maximal_box_paths(spec):
    """Every maximal progression of at least 3 terms in the box, as its
    canonical indices in the direction in which they rise."""
    n, d = spec.n, spec.d
    points = set(groups.elements(spec))
    paths = []
    for v in itertools.product(range(-(n - 1), n), repeat=d):
        if v <= (0,) * d:
            continue
        for x in points:
            if tuple(a - b for a, b in zip(x, v)) in points:
                continue
            path = [x]
            while (nxt := tuple(a + b for a, b in zip(path[-1], v))) in points:
                path.append(nxt)
            if len(path) >= 3:
                paths.append(tuple(groups.canonical_index(spec, p) for p in path))
    return sorted(paths)


@pytest.mark.parametrize(
    "spec",
    [interval_box(n) for n in (3, 4, 7, 8)]
    + [interval_box(n, 2) for n in (2, 3, 5, 6)]
    + [interval_box(n, 3) for n in (3, 4)]
    + [interval_box(3, 4)],
    ids=str,
)
def test_interval_engine_lines_are_the_maximal_paths(spec):
    # the golden tables check boxes of dimension 1 only
    lines = enumeration._lines(spec)
    counts = [m for m, _ in lines]
    assert counts == sorted(counts, reverse=True)
    assert all(m == len(line) for m, line in lines)
    assert sorted(tuple(line) for _, line in lines) == _maximal_box_paths(spec)


def _coordinate_cycles(spec, v):
    """The cycles of x -> x + v, as canonical indices, by coordinates."""
    seen, cycles = set(), []
    for x in groups.elements(spec):
        cyc = []
        while x not in seen:
            seen.add(x)
            cyc.append(groups.canonical_index(spec, x))
            x = groups.add(spec, x, v)
        if cyc:
            cycles.append(cyc)
    return cycles


def _undirected_cycle(cyc):
    """The smallest rotation of the cycle read either way round."""
    turns = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
    return min(tuple(t) for way in (turns, [t[::-1] for t in turns]) for t in way)


@pytest.mark.parametrize(
    "text",
    [f"cyclic:{n}" for n in range(1, 17)]
    + ["abelian:2x4", "abelian:3x9", "abelian:4x8", "abelian:2x6x12", "abelian:2x2x2"]
    + ["elementary:3^3", "elementary:5^2"],
)
def test_group_engine_lines_are_the_cycles(text):
    # one copy of the cycles of one step of each pair {v, -v} of order >= 3,
    # walked by coordinate arithmetic, independently of the successor
    # tables that enumeration's lines walk
    spec = parse_set_spec(text)
    lines = enumeration._lines(spec)
    counts = [m for m, _ in lines]
    assert counts == sorted(counts, reverse=True)
    for m, line in lines:
        assert len(line) == 2 * m - 1 and tuple(line[m:]) == tuple(line[: m - 1])
    want = []
    for step_idx in range(1, spec.cardinality):
        v = groups.element_at(spec, step_idx)
        neg = groups.canonical_index(spec, tuple((-c) % k for c, k in zip(v, spec.moduli)))
        if neg > step_idx:
            want += [_undirected_cycle(c) for c in _coordinate_cycles(spec, v)]
    got = [_undirected_cycle(list(line[:m])) for m, line in lines]
    assert all(len(c) == len(set(c)) for c in got)
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("text", ["cyclic:98", "abelian:3x69"])
def test_group_engine_walks_of_large_units_are_the_cycles(text):
    # subgroups of order 98 and 69: many units u, each giving its own step u * v
    test_group_engine_lines_are_the_cycles(text)


def test_group_engine_translations_match_pairdp():
    # the translates of an ordering put its longest runs at every offset of
    # their cycles, so the lane scan's rotations must carry them across the
    # ends of every coordinate block
    rnd = random.Random(17)
    for text in ["cyclic:7", "cyclic:12", "cyclic:25", "cyclic:60", "abelian:4x8",
                 "abelian:3x3x9"]:
        spec = parse_set_spec(text)
        engine = length_engine(spec)
        maps = _regular_symmetries(spec)
        perm = list(range(spec.cardinality))
        for _ in range(4):
            rnd.shuffle(perm)
            want = longest_ap_pairdp(_ordering(spec, perm)).length
            for row in maps:
                image = [row[x] for x in perm]
                assert engine.length_of_indices(image) == want, (text, image)


@pytest.mark.parametrize("text", ["cyclic:16", "interval:16"])
def test_length_engines_agree_in_any_feed_order(text):
    # the 3-free orderings (L = 2) scan every step, random ones only the
    # steps of the longest bounds; one engine sees the 3-free orderings
    # first, the other the same orderings reversed
    spec = parse_set_spec(text)
    rnd = random.Random(text)
    three_free = [o.indices for o in enumeration.three_free_orderings(4)]
    randoms = []
    for _ in range(40):
        perm = list(range(16))
        rnd.shuffle(perm)
        randoms.append(tuple(perm))
    # the pair DP takes about 0.4 ms per 3-free ordering, so it checks every
    # 64th; all of them have L = 2 (test_criterion_04_three_free_structure)
    want = {perm: 2 for perm in three_free}
    for perm in three_free[::64]:
        assert longest_ap_pairdp(_ordering(spec, perm)).length == 2
    for perm in randoms:
        want[perm] = longest_ap_pairdp(_ordering(spec, perm)).length
    feed = three_free + randoms
    for order in (feed, feed[::-1]):
        engine = length_engine(spec)
        for perm in order:
            assert engine.length_of_indices(perm) == want[perm], (text, perm)


@pytest.mark.parametrize(
    "text",
    ["interval:60", "interval:9,2", "interval:5,3", "cyclic:60", "abelian:4x8",
     "abelian:3x3x9", "abelian:2x6x12", "interval:300", "interval:18,2", "abelian:2x2x76"],
)
def test_witness_after_partial_build_matches_pairdp(text):
    # the last three have positions past one byte: their scans read the
    # high byte of each position as a bit plane
    spec = parse_set_spec(text)
    rnd = random.Random(text)
    perms = []
    for _ in range(12):
        perm = list(range(spec.cardinality))
        rnd.shuffle(perm)
        perms.append(perm)
    scanned = length_engine(spec)
    scanned.length_of_indices(perms[0])
    fresh = length_engine(spec)
    for perm in perms:
        want = longest_ap_pairdp(_ordering(spec, perm))
        assert fresh.witness(perm) == want, (text, perm)
        assert scanned.witness(perm) == want, (text, perm)


@pytest.mark.parametrize("text", ["interval:1000", "cyclic:1000"])
def test_engine_scans_and_witnesses_build_no_lines(text, monkeypatch):
    # lengths and witnesses come from the lane scan; only enumeration walks
    # lines, and no engine keeps any
    spec = parse_set_spec(text)
    engine = length_engine(spec)

    def no_walk(*args):
        raise AssertionError("a scan walked a successor table")

    monkeypatch.setattr(las, "step_cycles", no_walk)
    monkeypatch.setattr(counting, "_succ_table", no_walk)
    perm = list(range(1000))
    random.Random(1).shuffle(perm)
    got = engine.length_of_indices(perm)
    assert engine.witness(perm).length == got
    assert not hasattr(engine, "lines") and not hasattr(engine, "_lines_of")


@pytest.mark.parametrize("text", ["abelian:2x2500", "abelian:2x2x1250"])
def test_lane_engine_keeps_little_after_a_witness(text):
    # an inner radix of 2500 or 1250 gives the most coordinate rotations, on
    # the comparison matrix (two factors) and on the bit planes (three): an
    # engine keeps its steps, its matrix plan and per coordinate one int of
    # block starts, from which each rotation builds its mask
    perm = list(range(5000))
    random.Random(3).shuffle(perm)
    tracemalloc.start()
    try:
        engine = length_engine(parse_set_spec(text))
        engine.witness(perm)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 8 * 2**20


# Groups whose scans read the comparison matrix (d <= 2): |A| not a multiple
# of 8, steps whose negation has the lower index, and two factors over the
# tiled layout; then groups of three or more factors, which keep the lanes.
MATRIX_SETS = ["cyclic:13", "cyclic:50", "cyclic:57", "abelian:3x9", "abelian:2x26",
               "abelian:6x12", "elementary:7^2"]
LANE_SETS = ["abelian:2x2x4x4", "elementary:3^3"]


def _negations_first(spec):
    """The steps u * v of groups.step_classes whose negation has the lower
    canonical index."""
    zero = (0,) * len(spec.moduli)
    index = functools.partial(groups.canonical_index, spec)
    return [w for _bound, v, units in groups.step_classes(spec)
            for w in (groups.add(spec, zero, v, u) for u in units)
            if index(groups.add(spec, zero, w, -1)) < index(w)]


def test_matrix_sets_cover_their_cases():
    specs = [parse_set_spec(text) for text in MATRIX_SETS]
    assert all(len(spec.moduli) <= 2 for spec in specs)
    assert any(spec.cardinality % 8 for spec in specs)
    assert any(_negations_first(spec) for spec in specs)
    assert any(len(spec.moduli) == 2 and spec.moduli[1] % 8 for spec in specs)
    assert all(len(parse_set_spec(text).moduli) >= 3 for text in LANE_SETS)


@functools.lru_cache(maxsize=None)
def _route_oracles(text):
    """Seven orderings with their pair-DP witnesses, and N_k for every k >= 3
    on the first three (the identity, its reverse and a shuffle)."""
    spec = parse_set_spec(text)
    seqs = _oracle_orderings(spec.cardinality, text)
    witnesses = [longest_ap_pairdp(_ordering(spec, seq)) for seq in seqs]
    counts = {}
    for k in range(3, _k_max(spec) + 1):
        progs = _index_tuples(spec, k)
        for seq in seqs[:3]:
            counts[k, tuple(seq)] = count_in_order(progs, seq)
    return seqs, witnesses, counts


@pytest.mark.parametrize("per_band", [None, 1, 3], ids=lambda b: f"band{b or ''}")
@pytest.mark.parametrize("text", MATRIX_SETS + LANE_SETS)
def test_group_scan_routes_match_oracles(text, per_band, monkeypatch):
    # per_band byte columns in each band put band edges between the steps
    spec = parse_set_spec(text)
    if per_band:
        rows = (spec.cardinality + 7) & -8
        monkeypatch.setattr(las, "_BAND_BITS", per_band * 8 * rows)
    lane_compares = []
    lane_ones = las.GroupLengthEngine._ones
    monkeypatch.setattr(las.GroupLengthEngine, "_ones",
                        lambda self, *args: lane_compares.append(1) or lane_ones(self, *args))
    engine = length_engine(spec)
    seqs, witnesses, counts = _route_oracles(text)
    for seq, want in zip(seqs, witnesses):
        assert engine.length_of_indices(seq) == want.length, (text, seq)
        assert engine.witness(seq) == want, (text, seq)
    for (k, seq), want in counts.items():
        assert engine.count_of_indices(seq, k) == want, (text, k, seq)
    assert bool(lane_compares) == (text in LANE_SETS)
    if per_band and text in MATRIX_SETS:
        # cyclic:13's six columns fit in one byte
        widths = [width for _lo, width, _js, _steps in engine._plan()]
        assert max(widths) <= per_band and (len(widths) > 1 or spec.cardinality <= 16)


def test_matrix_route_matches_the_lanes_on_the_tiled_layout_at_the_cap(monkeypatch):
    # inner radix 2500: the widest tiled rows, with the default band budget
    # splitting the second coset's columns; past the pair DP's cap, the lane
    # route is the reference
    spec = abelian(2, 2500)
    perm = list(range(spec.cardinality))
    random.Random(5).shuffle(perm)
    matrix = length_engine(spec)
    got = matrix.length_of_indices(perm), matrix.witness(perm), matrix.count_of_indices(perm, 3)
    assert len(matrix._plan()) > 1
    monkeypatch.setattr(las.GroupLengthEngine, "_bands", las._LengthEngine._bands)
    lanes = length_engine(spec)
    assert got == (lanes.length_of_indices(perm), lanes.witness(perm),
                   lanes.count_of_indices(perm, 3))


def _reverifies(spec, seq, res):
    terms = [groups.add(spec, res.base, res.step, t) for t in range(res.length)]
    return (list(res.indices) == sorted(set(res.indices))
            and [seq[i] for i in res.indices] == [groups.canonical_index(spec, x) for x in terms])


@pytest.mark.parametrize("text", ["cyclic:5000", "abelian:2x2500"])
def test_length_engine_metamorphic_past_the_pair_dp_cap(text):
    # no oracle reaches these sets: L is unchanged by reversal and by maps
    # x -> u * x + t (the form of enumeration._symmetries' rows, which are
    # too many to list here), and a progression planted in order shows up
    # with a witness that re-verifies
    spec = parse_set_spec(text)
    card, e = spec.cardinality, spec.exponent
    assert card > PAIR_DP_CAP
    rnd = random.Random(text)
    engine = length_engine(spec)
    perm = list(range(card))
    rnd.shuffle(perm)
    length = engine.length_of_indices(perm)
    assert engine.length_of_indices(perm[::-1]) == length
    elems = list(groups.elements(spec))
    for u in (e - 1, 7):
        assert math.gcd(u, e) == 1
        t = groups.element_at(spec, rnd.randrange(card))
        row = [groups.canonical_index(spec, groups.add(spec, t, x, u)) for x in elems]
        assert engine.length_of_indices([row[x] for x in perm]) == length, (text, u, t)
    k = length + 3
    step = groups.element_at(spec, 0)
    while groups.element_order(spec, step) < k:
        step = groups.element_at(spec, rnd.randrange(card))
    base = groups.element_at(spec, rnd.randrange(card))
    terms = [groups.canonical_index(spec, groups.add(spec, base, step, t)) for t in range(k)]
    at = sorted(perm.index(x) for x in terms)
    for where, x in zip(at, terms):
        perm[where] = x
    res = engine.witness(perm)
    assert res.length >= k and res.length == engine.length_of_indices(perm)
    assert _reverifies(spec, perm, res)


# the builder of the length engines' planes and of the block tally's
@pytest.mark.parametrize("length", [0, 1, 7, 9, 5040])
def test_bit_planes_match_their_definition(length):
    data = bytes(random.Random(length).randrange(256) for _ in range(length))
    for count in range(9):
        want = [sum((b >> j & 1) << i for i, b in enumerate(data)) for j in range(count)]
        assert las.bit_planes(data, count) == want
        assert las.bit_planes(bytearray(data), count) == want


def _chains(limit, depth, smallest=2):
    """Divisibility chains of at most depth factors with product <= limit."""
    out = []
    for f in range(smallest, limit + 1):
        out.append((f,))
        if depth > 1:
            out += [(f,) + rest for rest in _chains(limit // f, depth - 1, f)
                    if rest[0] % f == 0]
    return out


def _shift_sets():
    """Every chain with |Z| <= 60 and at most 3 factors, and the boxes of
    dimension 2 and 3 with n <= 5: the coordinate shifts of the lane scan."""
    return [abelian(*c) for c in _chains(60, 3)] + [
        interval_box(n, d) for d in (2, 3) for n in range(1, 6)
    ]


@pytest.mark.parametrize("spec", _shift_sets(), ids=str)
def test_lane_scan_coordinate_shifts_match_pairdp(spec):
    engine = length_engine(spec)
    rnd = random.Random(str(spec))
    perm = list(range(spec.cardinality))
    for _ in range(5):
        rnd.shuffle(perm)
        assert engine.witness(perm) == longest_ap_pairdp(_ordering(spec, perm)), (spec, perm)


PROPERTY_LIMIT = 60
PROPERTY_SETS = {
    "cyclic": [cyclic(n) for n in range(1, PROPERTY_LIMIT + 1)],
    "abelian": [abelian(*c) for c in _chains(PROPERTY_LIMIT, 3)],
    "interval": [
        interval_box(n, d)
        for d in (1, 2, 3)
        for n in range(1, PROPERTY_LIMIT + 1)
        if n**d <= PROPERTY_LIMIT
    ],
}

if st is not None:

    def _ordering_of(sets):
        return st.sampled_from(sets).flatmap(
            lambda spec: st.tuples(st.just(spec), st.permutations(range(spec.cardinality)))
        )

    any_ordering = st.one_of(*(_ordering_of(sets) for sets in PROPERTY_SETS.values()))
    property_settings = settings(derandomize=True, max_examples=200, deadline=None)

    @property_settings
    @given(any_ordering)
    def test_length_engine_matches_pairdp_property(case):
        spec, perm = case
        want = longest_ap_pairdp(_ordering(spec, perm)).length
        assert length_engine(spec).length_of_indices(perm) == want

    @property_settings
    @given(any_ordering)
    def test_length_engine_reversal_property(case):
        spec, perm = case
        engine = length_engine(spec)
        assert engine.length_of_indices(perm[::-1]) == engine.length_of_indices(perm)

    @property_settings
    @given(_ordering_of(PROPERTY_SETS["cyclic"]), st.data())
    def test_length_engine_affine_property_cyclic(case, data):
        spec, perm = case
        n = spec.n
        u = data.draw(st.sampled_from([u for u in range(1, n + 1) if math.gcd(u, n) == 1]))
        c = data.draw(st.integers(0, n - 1))
        engine = length_engine(spec)
        mapped = [(u * v + c) % n for v in perm]
        assert engine.length_of_indices(mapped) == engine.length_of_indices(perm)

    @property_settings
    @given(_ordering_of(PROPERTY_SETS["interval"]))
    def test_length_engine_reflection_property_interval(case):
        # x -> n + 1 - x in every coordinate maps row-major index i to |A|-1-i
        spec, perm = case
        engine = length_engine(spec)
        mapped = [spec.cardinality - 1 - v for v in perm]
        assert engine.length_of_indices(mapped) == engine.length_of_indices(perm)

import itertools
import math
import random

import pytest

from apseq import enumeration, groups, las
from apseq.cli import _golden_rows
from apseq.enumeration import (
    construct_three_free,
    distribution,
    is_three_free,
    load_distribution,
    save_distribution,
    three_free_count,
    three_free_orderings,
    three_free_structure_check,
)
from apseq.errors import CapExceeded
from apseq.groups import cyclic, interval_box, totient

INTERVAL_ROWS = {
    1: [1],
    2: [0, 2],
    3: [0, 4, 2],
    4: [0, 10, 12, 2],
    5: [0, 20, 82, 16, 2],
    6: [0, 48, 516, 134, 20, 2],
    7: [0, 104, 3232, 1480, 198, 24, 2],
}

CYCLIC_ROWS = {
    1: [1],
    2: [0, 2],
    3: [0, 0, 6],
    4: [0, 8, 8, 8],
    5: [0, 0, 40, 60, 20],
    6: [0, 0, 468, 192, 48, 12],
    7: [0, 0, 462, 3150, 1176, 210, 42],
}


def test_interval_rows_small():
    for n, row in INTERVAL_ROWS.items():
        assert distribution(interval_box(n)).row() == row


def test_cyclic_rows_small():
    for n, row in CYCLIC_ROWS.items():
        assert distribution(cyclic(n)).row() == row


def test_row_sums():
    for n in range(1, 8):
        assert sum(distribution(interval_box(n)).row()) == math.factorial(n)
        assert sum(distribution(cyclic(n)).row()) == math.factorial(n)


def test_full_length_columns():
    for n in range(2, 8):
        assert distribution(interval_box(n)).row()[-1] == 2
        assert distribution(cyclic(n)).row()[-1] == n * totient(n)


def test_divisibility_of_rows():
    for n in range(2, 8):
        orbit = n * totient(n)
        for c in distribution(cyclic(n)).row():
            assert c % orbit == 0
        for c in distribution(interval_box(n)).row():
            assert c % 2 == 0


def test_budget_cap():
    with pytest.raises(CapExceeded):
        distribution(interval_box(11))
    with pytest.raises(CapExceeded):
        distribution(cyclic(13), parallel=2)
    # one worker runs no pool, so the serial budget holds
    with pytest.raises(CapExceeded):
        distribution(interval_box(11), parallel=1)
    with pytest.raises(CapExceeded):
        distribution(cyclic(13), symmetry_reduction=True)


def test_symmetry_reduction_matches_unreduced():
    for n in range(2, 9):
        assert (
            distribution(interval_box(n), symmetry_reduction=True).row()
            == distribution(interval_box(n)).row()
        )
        assert (
            distribution(cyclic(n), symmetry_reduction=True).row()
            == distribution(cyclic(n)).row()
        )


@pytest.mark.parametrize("text", ["interval:9", "cyclic:9", "cyclic:10"])
def test_symmetry_reduction_matches_golden(text):
    spec = groups.parse_set_spec(text)
    row = distribution(spec, symmetry_reduction=True).row()
    golden = _golden_rows(spec.family)[spec.n]
    assert row + [0] * (len(golden) - len(row)) == golden


# Orbit representatives tallied per set: interval:9 has about 9!/4 orbits
# under reflection and reversal, cyclic:10 about 10!/80 and abelian:3x3
# about 9!/36 under the affine maps and reversal.  A reduction that drops
# reversal tallies twice as many.  The exact counts are the orbit counts,
# as the README states for interval:9 and cyclic:10.
@pytest.mark.parametrize(
    "text, most", [("interval:9", 103_680), ("cyclic:10", 47_628), ("abelian:3x3", 10_584)]
)
def test_symmetry_reduction_scan_count(text, most, monkeypatch):
    spec = groups.parse_set_spec(text)
    tally = enumeration._tally_block
    lanes_seen = []

    def counted(lines, cols, lanes, counts):
        lanes_seen.append(lanes)
        return tally(lines, cols, lanes, counts)

    monkeypatch.setattr(enumeration, "_tally_block", counted)
    table = distribution(spec, symmetry_reduction=True)
    assert sum(table.row()) == math.factorial(spec.cardinality)
    assert sum(lanes_seen) <= most
    exact = {"interval:9": 90_816, "cyclic:10": 45_648, "abelian:3x3": 10_176}
    assert sum(lanes_seen) == exact[text]


# Rows of sets outside the golden tables, tallied along lines built
# independently of enumeration's: those the length engines once kept.
OTHER_ROWS = {
    "abelian:2x4": [0, 1664, 7808, 30848, 0, 0, 0, 0],
    "interval:2,3": [0, 40320, 0, 0, 0, 0, 0, 0],
    "elementary:3^2": [0, 0, 362880, 0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize(
    "text, symmetry",
    [("interval:8", False), ("cyclic:8", False), ("abelian:2x4", False),
     ("interval:2,3", False), ("elementary:3^2", False), ("interval:9", True),
     ("cyclic:10", True)],
)
def test_distribution_builds_no_length_engine(text, symmetry, monkeypatch):
    # enumeration walks its lines itself; length engines only scan
    def no_engine(spec):
        raise AssertionError("enumeration built a length engine")

    monkeypatch.setattr(las, "length_engine", no_engine)
    spec = groups.parse_set_spec(text)
    row = distribution(spec, symmetry_reduction=symmetry).row()
    want = OTHER_ROWS.get(text) or _golden_rows(spec.family)[spec.n]
    assert row + [0] * (len(want) - len(row)) == want


def _scrambled_leaf(card, f, lo, seed):
    """A leaf (where, free, lo) of f free elements, drawn with the seed, at
    positions lo .. lo + f - 1, and the other elements scrambled over the
    positions outside that window."""
    rng = random.Random(seed)
    elements = list(range(card))
    rng.shuffle(elements)
    outside = [p for p in range(card) if not lo <= p < lo + f]
    rng.shuffle(outside)
    where = bytearray(card)
    for x, p in zip(elements[f:], outside):
        where[x] = p
    return bytes(where), elements[:f], lo


def _leaf_orderings(card, leaves):
    """Every ordering, as canonical indices, of each leaf (where, free, lo)."""
    for where, free, lo in leaves:
        for perm in itertools.permutations(free):
            seq = [0] * card
            for x in set(range(card)) - set(free):
                seq[where[x]] = x
            seq[lo : lo + len(free)] = perm
            yield tuple(seq)


def _reference_counts(spec, orderings, method):
    counts = [0] * (spec.cardinality + 1)
    if method == "scan":
        length_of = las.length_engine(spec).length_of_indices
        for seq in orderings:
            counts[length_of(seq)] += 1
    else:
        for seq in orderings:
            counts[las.longest_ap_pairdp(las.Ordering.from_indices(spec, seq)).length] += 1
    return counts


# Leaves of a free window of at most 7 positions, the other elements
# scrambled outside it: one leaf as large as the set allows, at the top;
# eight one smaller and one of each size below, at the bottom and in the
# middle, so that 7 of 6! rows fill a shared block and the rest start the
# next; and one of |A| - 3 free elements in the middle, at most 6! rows.
@pytest.mark.parametrize(
    "text",
    ["interval:1", "cyclic:1", "interval:2", "cyclic:2", "interval:3,2", "abelian:2x4",
     "elementary:3^2", "cyclic:8", "interval:8"],
)
def test_block_tally_matches_per_ordering_lengths(text):
    spec = groups.parse_set_spec(text)
    card = spec.cardinality
    lines = enumeration._lines(spec)
    top = min(card, 7)
    batches = [[_scrambled_leaf(card, top, card - top, 0)]]
    if card >= 3:
        sizes = [top - 1] * 8 + list(range(top - 2, -1, -1))
        batches.append([_scrambled_leaf(card, f, i % 2 * (card - f) // 2, i)
                        for i, f in enumerate(sizes, 1)])
        f = min(card - 3, 6)
        batches.append([_scrambled_leaf(card, f, (card - f) // 2, 99)])
    for leaves in batches:
        orderings = list(_leaf_orderings(card, leaves))
        if card == 1:
            got = [0, 1]  # distribution's own case: no block has one element
        else:
            got = enumeration._tally_leaves(lines, card, leaves)
        assert sum(got) == len(orderings)
        assert got == _reference_counts(spec, orderings, "scan"), (text, leaves)
        if len(orderings) <= 720:
            assert got == _reference_counts(spec, orderings, "pairdp"), (text, leaves)


@pytest.mark.parametrize("text", ["cyclic:12", "interval:12"])
def test_block_tally_twelve_elements(text):
    # positions up to 11 in every lane, so each difference meets the guard
    # bit; the free window is at the top, where the fixed elements' columns
    # hold the smaller positions
    spec = groups.parse_set_spec(text)
    leaves = [_scrambled_leaf(12, 7, 5, 12)]
    got = enumeration._tally_leaves(enumeration._lines(spec), 12, leaves)
    orderings = list(_leaf_orderings(12, leaves))
    assert sum(got) == len(orderings) == math.factorial(7)
    assert got == _reference_counts(spec, orderings, "scan")
    assert got == _reference_counts(spec, orderings, "pairdp")


def test_symmetry_reduction_every_family():
    # every non-cyclic group and every box with d >= 2 of at most 9 elements
    for text in ["abelian:2x2", "abelian:2x4", "abelian:2x2x2", "abelian:3x3",
                 "elementary:2^3", "elementary:3^2", "interval:2,2", "interval:2,3",
                 "interval:3,2"]:
        spec = groups.parse_set_spec(text)
        reduced = distribution(spec, symmetry_reduction=True).row()
        assert reduced == distribution(spec).row(), text


# sets of more than 7 elements, so that the root of the tree has children
# to pool; unreduced cyclic:10 runs past the serial budget's edge
@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("text", ["interval:8", "cyclic:8", "interval:9", "cyclic:10"])
def test_parallel_matches_serial(text, symmetry):
    spec = groups.parse_set_spec(text)
    serial = distribution(spec, symmetry_reduction=symmetry).row()
    assert distribution(spec, symmetry_reduction=symmetry, parallel=2).row() == serial


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    import multiprocessing

    real_pool, sizes = multiprocessing.Pool, []

    def recording_pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    # one orbit of end pairs on cyclic:11 (the affine maps of a prime field
    # and reversal), so one task, run in-process; no pool for sets of at
    # most 7 elements; three orbits of end pairs on cyclic:10
    for spec, symmetry in [(cyclic(11), True), (interval_box(7), False),
                           (interval_box(6), True), (cyclic(10), True)]:
        serial = distribution(spec, symmetry_reduction=symmetry).row()
        assert distribution(spec, symmetry_reduction=symmetry, parallel=8).row() == serial
    assert sizes == [3]


def test_abelian_distribution_row_sum():
    table = distribution(groups.abelian(2, 4))
    assert sum(table.row()) == math.factorial(8)


def test_three_free_count_values():
    assert three_free_count(2) == 2
    assert three_free_count(4) == 8
    assert three_free_count(6) == 0
    assert three_free_count(8) == 128
    assert three_free_count(16) == 32768
    with pytest.raises(ValueError):
        three_free_count(1)


def test_three_free_count_matches_enumeration():
    for n in (2, 4, 6):
        row = distribution(cyclic(n)).row()
        assert row[1] == three_free_count(n)


def test_construct_base_case():
    built = set()
    trivial = las.Ordering.from_indices(cyclic(1), [0])
    for evens_first in (True, False):
        o = construct_three_free(1, trivial, trivial, evens_first)
        built.add(o.indices)
    assert built == {(0, 1), (1, 0)}


def test_construct_rejects_bad_input():
    not_free = las.Ordering.from_indices(cyclic(4), [0, 1, 2, 3])
    other = las.Ordering.from_indices(cyclic(4), [0, 2, 1, 3])
    with pytest.raises(ValueError):
        construct_three_free(3, not_free, other)
    with pytest.raises(ValueError):
        construct_three_free(2, other, other)


def test_construction_image_matches_enumeration_m3():
    image = {o.indices for o in three_free_orderings(3)}
    assert len(image) == 128
    spec = cyclic(8)
    import itertools

    direct = {
        perm
        for perm in itertools.permutations(range(8))
        if is_three_free(las.Ordering.from_indices(spec, perm))
    }
    assert image == direct


def test_construction_output_passes_checks():
    for o in three_free_orderings(3):
        assert three_free_structure_check(o)
        assert is_three_free(o)


def test_structure_check_examples():
    assert three_free_structure_check(las.Ordering.from_indices(cyclic(4), [0, 2, 1, 3]))
    assert not three_free_structure_check(
        las.Ordering.from_indices(cyclic(4), [0, 1, 2, 3])
    )
    with pytest.raises(ValueError):
        three_free_structure_check(las.Ordering.from_indices(cyclic(6), range(6)))


def test_structure_check_equals_three_freeness():
    import itertools

    for n in (4, 8):
        spec = cyclic(n)
        for perm in itertools.permutations(range(n)):
            o = las.Ordering.from_indices(spec, perm)
            assert three_free_structure_check(o) == is_three_free(o)
            if n == 8:
                break  # full n=8 equivalence runs in the m=3 image test
        if n == 8:
            # spot-check a deterministic slice of the 8! orderings
            perms = list(itertools.permutations(range(8)))[:2000]
            for perm in perms:
                o = las.Ordering.from_indices(spec, perm)
                assert three_free_structure_check(o) == is_three_free(o)


def test_cache_roundtrip(tmp_path):
    spec = cyclic(5)
    table = distribution(spec, cache_dir=str(tmp_path))
    loaded = load_distribution(spec, str(tmp_path))
    assert loaded is not None
    assert loaded.counts == table.counts
    # corrupted checksum is ignored
    path = save_distribution(table, str(tmp_path))
    import json

    doc = json.loads(open(path).read())
    doc["counts"][3] += 1
    open(path, "w").write(json.dumps(doc))
    assert load_distribution(spec, str(tmp_path)) is None


def test_cache_used_by_distribution(tmp_path):
    spec = cyclic(6)
    first = distribution(spec, cache_dir=str(tmp_path))
    again = distribution(spec, cache_dir=str(tmp_path))
    assert first.counts == again.counts

import itertools
import math

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


# Orbit representatives tallied per set: interval:9 has 9!/4 orbits under
# reflection and reversal, cyclic:10 about 10!/80 under the affine maps and
# reversal.  A reduction that drops reversal tallies twice as many.  The
# exact counts are the README's.
@pytest.mark.parametrize("text, most", [("interval:9", 103_680), ("cyclic:10", 47_628)])
def test_symmetry_reduction_scan_count(text, most, monkeypatch):
    spec = groups.parse_set_spec(text)
    tally = enumeration._tally_block
    lanes_seen = []

    def counted(lines, cols, lanes, counts):
        lanes_seen.append(lanes)
        return tally(lines, cols, lanes, counts)

    monkeypatch.setattr(enumeration, "_tally_block", counted)
    table = distribution(spec, symmetry_reduction=True)
    assert sum(table.row()) == math.factorial(spec.n)
    assert sum(lanes_seen) <= most
    assert sum(lanes_seen) == {"interval:9": 100_800, "cyclic:10": 45_648}[text]


def _placed_orderings(card, placed):
    """Every ordering, as canonical indices, that puts each element of
    placed at its position."""
    fixed = dict(placed)
    free = [x for x in range(card) if x not in fixed]
    open_positions = [p for p in range(card) if p not in fixed.values()]
    for where in itertools.permutations(open_positions):
        seq = [0] * card
        for x, p in [*fixed.items(), *zip(free, where)]:
            seq[p] = x
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


# Placements (element, position): none on sets of up to 8 elements and one
# on 9, so 8 free elements split into one block per position of another,
# and three, which leave a single block of 5! or 6! orderings.
@pytest.mark.parametrize(
    "text",
    ["interval:1", "cyclic:1", "interval:2", "cyclic:2", "interval:3,2", "abelian:2x4",
     "elementary:3^2", "cyclic:8", "interval:8"],
)
def test_block_tally_matches_per_ordering_lengths(text):
    spec = groups.parse_set_spec(text)
    card = spec.cardinality
    lines = las.length_engine(spec).lines
    placements = [()] if card <= 8 else [((0, card // 2),)]
    if card >= 3:
        placements.append(((card - 1, 0), (1, card // 2), (2, card - 1)))
    for placed in placements:
        got = [0] * (card + 1)
        if card == 1:
            got[1] = 1  # distribution's own case: no block has one element
        else:
            enumeration._tally_placed(lines, card, placed, got)
        orderings = list(_placed_orderings(card, placed))
        assert sum(got) == len(orderings)
        assert got == _reference_counts(spec, orderings, "scan"), (text, placed)
        if len(orderings) <= 720:
            assert got == _reference_counts(spec, orderings, "pairdp"), (text, placed)


def test_block_tally_of_listed_orderings():
    spec = cyclic(8)
    orderings = list(itertools.permutations(range(8)))[::97]
    got = [0] * 9
    enumeration._tally_orderings(las.length_engine(spec).lines, 8, orderings, got)
    assert got == _reference_counts(spec, orderings, "pairdp")


@pytest.mark.parametrize("text", ["cyclic:12", "interval:12"])
def test_block_tally_twelve_elements(text):
    # positions up to 11 in every lane, so each difference meets the guard bit
    spec = groups.parse_set_spec(text)
    placed = ((0, 0), (5, 3), (7, 11), (3, 6), (9, 7))
    got = [0] * 13
    enumeration._tally_placed(las.length_engine(spec).lines, 12, placed, got)
    orderings = list(_placed_orderings(12, placed))
    assert sum(got) == len(orderings) == math.factorial(7)
    assert got == _reference_counts(spec, orderings, "scan")
    assert got == _reference_counts(spec, orderings, "pairdp")


def test_symmetry_reduction_unsupported_family():
    with pytest.raises(ValueError):
        distribution(groups.abelian(2, 2), symmetry_reduction=True)


def test_parallel_matches_serial():
    for spec in [interval_box(6), cyclic(6)]:
        assert distribution(spec, parallel=2).row() == distribution(spec).row()


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

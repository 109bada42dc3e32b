import itertools
import math
import pickle
import random
import re
import time

import pytest

from apseq import groups
from apseq.errors import CapExceeded
from apseq.groups import (
    AdditiveSetSpec,
    abelian,
    canonical_index,
    cyclic,
    element_at,
    element_order,
    elementary,
    elements,
    interval_box,
    normalize_invariant_factors,
    parse_set_spec,
    totient,
)


def test_element_order_examples():
    assert element_order(cyclic(12), (8,)) == 3
    assert element_order(abelian(2, 4), (1, 2)) == 2
    assert element_order(cyclic(5), (0,)) == 1
    assert element_order(elementary(3, 2), (0, 0)) == 1


def test_element_order_interval_rejected():
    with pytest.raises(ValueError):
        element_order(interval_box(5), (2,))


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    for p in (2, 3, 5, 7, 11, 13):
        assert totient(p) == p - 1
    with pytest.raises(ValueError):
        totient(0)


def test_canonical_index_examples():
    assert canonical_index(cyclic(9), (4,)) == 4
    assert canonical_index(interval_box(3, 2), (1, 1)) == 0
    assert canonical_index(interval_box(3, 2), (3, 3)) == 8
    assert element_at(abelian(2, 4), 7) == (1, 3)


def test_canonical_index_dimension_mismatch():
    with pytest.raises(ValueError):
        canonical_index(cyclic(7), (5, 1))


def test_index_roundtrip_all_families():
    specs = [
        interval_box(4, 2),
        cyclic(11),
        abelian(2, 4, 8),
        elementary(3, 3),
        cyclic(10**4),
        abelian(10, 100),
        interval_box(30, 2),
    ]
    for spec in specs:
        for i in range(spec.cardinality):
            assert canonical_index(spec, element_at(spec, i)) == i
        # the radixes list each coordinate's values, read row-major
        assert math.prod(spec.radixes) == spec.cardinality
        low = 1 if spec.family == groups.INTERVAL else 0
        values = [range(low, low + m) for m in spec.radixes]
        assert list(elements(spec)) == list(itertools.product(*values))
        # add is unreduced in a box and reduced modulo each modulus in a group
        rng = random.Random(str(spec))
        for _ in range(200):
            x = element_at(spec, rng.randrange(spec.cardinality))
            r = element_at(spec, rng.randrange(spec.cardinality))
            times = rng.randint(-4, 4)
            want = [a + times * b for a, b in zip(x, r)]
            if spec.is_group:
                want = [c % m for c, m in zip(want, spec.moduli)]
            assert groups.add(spec, x, r, times) == tuple(want)
            assert groups.add(spec, x, r) == groups.add(spec, x, r, 1)
    assert groups.add(interval_box(4, 2), (4, 1), (1, 2), 2) == (6, 5)
    assert groups.add(interval_box(4, 2), (1, 1), (1, 2), -1) == (0, -1)
    assert groups.add(abelian(2, 4), (1, 1), (1, 2), -1) == (0, 3)


def test_element_at_out_of_range():
    with pytest.raises(ValueError):
        element_at(cyclic(5), 5)
    with pytest.raises(ValueError):
        element_at(cyclic(5), -1)


def test_normalize_invariant_factors_examples():
    assert normalize_invariant_factors((4, 8)) == (4, 8)
    assert normalize_invariant_factors((2, 3)) == (6,)
    assert normalize_invariant_factors((6, 4)) == (2, 12)


def test_normalize_rejects_small_factors():
    with pytest.raises(ValueError):
        normalize_invariant_factors((1, 4))
    with pytest.raises(ValueError):
        normalize_invariant_factors(())


def test_normalize_preserves_group():
    # (6,4) -> (2,12): same multiset of element orders, listed exhaustively
    left = abelian(*normalize_invariant_factors((6, 4)))
    spec_raw = AdditiveSetSpec("abelian", factors=(2, 12))
    assert left == spec_raw
    orders_chain = sorted(
        element_order(left, x) for x in elements(left)
    )
    # product group Z/6 x Z/4 built directly, without the chain requirement
    orders_raw = sorted(
        math.lcm(6 // math.gcd(a, 6), 4 // math.gcd(b, 4))
        for a in range(6)
        for b in range(4)
    )
    assert orders_chain == orders_raw


def test_normalize_chain_and_product_random():
    import random

    rnd = random.Random(5)
    for _ in range(50):
        facs = [rnd.randrange(2, 30) for _ in range(rnd.randrange(1, 4))]
        chain = normalize_invariant_factors(facs)
        assert math.prod(chain) == math.prod(facs)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0


def test_order_divides_exponent_and_kills():
    for spec in [cyclic(12), abelian(2, 4), abelian(2, 6), elementary(5, 2)]:
        for x in elements(spec):
            order = element_order(spec, x)
            assert spec.exponent % order == 0
            multiple = tuple((order * a) % m for a, m in zip(x, spec.moduli))
            assert multiple == groups.identity(spec)


def test_order_counts_match_totient():
    for n in range(1, 101):
        spec = cyclic(n)
        tallies = {}
        for x in elements(spec):
            order = element_order(spec, x)
            tallies[order] = tallies.get(order, 0) + 1
        for j in range(1, n + 1):
            expected = totient(j) if n % j == 0 else 0
            assert tallies.get(j, 0) == expected


def _coordinate_walk(spec, x, w):
    """The walk x, x + w, ... added up coordinate by coordinate, stopping
    before a term outside the box or a repeated term."""
    walk = []
    while groups.is_valid_element(spec, x) and x not in walk:
        walk.append(x)
        x = tuple(a + b for a, b in zip(x, w))
        if spec.is_group:
            x = tuple(a % m for a, m in zip(x, spec.moduli))
    return walk


@pytest.mark.parametrize(
    "text",
    ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:12", "interval:1", "interval:2", "interval:3",
     "interval:8", "interval:3,2", "interval:4,3", "elementary:2^3", "elementary:3^2",
     "abelian:2x6", "abelian:2x6x12"],
)
def test_step_classes_list_each_long_step_once(text):
    spec = parse_set_spec(text)
    if spec.is_group:
        zero = groups.identity(spec)
        candidates = [w for w in elements(spec) if w != zero]
    else:
        candidates = [w for w in itertools.product(range(1 - spec.n, spec.n), repeat=spec.d)
                      if any(w)]
    # the steps whose longest walk has 3 or more terms, with that length
    want = {}
    for w in candidates:
        longest = max(len(_coordinate_walk(spec, x, w)) for x in elements(spec))
        if longest >= 3:
            want[w] = longest
    got = {}
    for bound, v, units in groups.step_classes(spec):
        for u in units:
            if spec.is_group:
                w = tuple(u * a % m for a, m in zip(v, spec.moduli))
                pair = (w, tuple(-a % m for a, m in zip(w, spec.moduli)))
            else:
                assert units == (1,)
                w = v
                pair = (w, tuple(-a for a in w))
            for step in pair:
                assert step not in got, (text, step)
                got[step] = bound
        if spec.is_group:
            # the generators of <v>: the multiples of v whose walk from 0
            # passes through all of <v>
            cycle = _coordinate_walk(spec, zero, v)
            gens = [y for y in cycle if len(_coordinate_walk(spec, zero, y)) == len(cycle)]
            assert 2 * len(units) == len(gens), (text, v)
    assert got == want


def test_parse_set_spec_roundtrip():
    for text in ["interval:10,2", "interval:7", "cyclic:9", "abelian:2x4x8", "elementary:3^2"]:
        spec = parse_set_spec(text)
        assert str(spec) == text
        assert parse_set_spec(str(spec)) == spec


def test_parse_set_spec_rejects_garbage():
    for text in ["interval", "interval:", "ring:5", "abelian:4x6", "elementary:4^2"]:
        with pytest.raises(ValueError):
            parse_set_spec(text)


def test_cardinality_cap():
    with pytest.raises(CapExceeded):
        interval_box(10**4, 2)
    # refused before |A| is computed in full, naming the spec and not |A|
    for text in ["interval:10,100000000", "elementary:3^100000000", "interval:10,1000000",
                 "interval:2,5000", "interval:1,100000000", "interval:1,25",
                 f"cyclic:{groups.MAX_CARDINALITY + 1}"]:
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=re.escape(text)):
            parse_set_spec(text)
        assert time.perf_counter() - start < 1.0
    assert interval_box(1, groups.MAX_DIMENSION).cardinality == 1
    assert cyclic(groups.MAX_CARDINALITY).cardinality == groups.MAX_CARDINALITY


@pytest.mark.parametrize("make", [
    lambda: parse_set_spec("elementary:1000000000000000003"),
    lambda: parse_set_spec("cyclic:" + "9" * 5000),
    lambda: parse_set_spec("cyclic:" + "9" * 4000),
    lambda: parse_set_spec("abelian:2x" + "4" * 30),
    lambda: groups.cyclic(10**5000),
], ids=["elementary-19-digits", "cyclic-5000-digits", "cyclic-4000-digits",
        "abelian-30-digits", "cyclic-10^5000"])
def test_numbers_above_cap_fail_fast(make):
    # refused before the primality check or int()'s digit limit, with a short
    # message that shows a long number by its digit count
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        make()
    assert time.perf_counter() - start < 1.0
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("spec", [
    cyclic(1), cyclic(12), abelian(2, 4, 8), elementary(3, 3),
    interval_box(5), interval_box(4, 2), interval_box(3, 3),
], ids=str)
def test_stored_shape(spec):
    radixes = spec.radixes
    assert spec.strides == tuple(math.prod(radixes[i + 1:]) for i in range(len(radixes)))
    assert spec.cardinality == math.prod(radixes)
    assert spec.dimension == len(radixes)
    if spec.is_group:
        assert spec.exponent == max(element_order(spec, x) for x in elements(spec))
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert (copy.radixes, copy.strides, copy.cardinality) == (
        radixes, spec.strides, spec.cardinality)


def test_abelian_requires_chain():
    with pytest.raises(ValueError):
        abelian(4, 6)

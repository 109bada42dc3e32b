"""The package's ten value classes: pinned repr text, equality and hash over
the compared fields only, pickling, read-only fields and constructor checks.

The repr strings and error messages are those of the frozen dataclasses
these classes replaced, so callers see no change."""

import pickle

import pytest

from apseq.asymptotics import ThresholdResult
from apseq.counting import APSpec, CountResult
from apseq.enumeration import DistributionTable
from apseq.errors import CapExceeded
from apseq.groups import AdditiveSetSpec, abelian, cyclic, elementary, interval_box
from apseq.las import LasResult
from apseq.montecarlo import SAMPLE_CAP, ExperimentConfig, SubseqCountStats
from apseq.nonabelian import DihedralElement, FreeWord

# (make, repr text, compared fields in order, a different instance)
CASES = {
    "AdditiveSetSpec": (
        lambda: interval_box(5, 2),
        "AdditiveSetSpec(family='interval', n=5, d=2, p=0, factors=())",
        ("interval", 5, 2, 0, ()),
        lambda: interval_box(5, 3),
    ),
    "AdditiveSetSpec-abelian": (
        lambda: AdditiveSetSpec("abelian", factors=[2, 4]),
        "AdditiveSetSpec(family='abelian', n=0, d=1, p=0, factors=(2, 4))",
        ("abelian", 0, 1, 0, (2, 4)),
        lambda: elementary(3, 2),
    ),
    "CountResult": (
        lambda: CountResult(3, 5, "BoundsOnly"),
        "CountResult(lower=3, upper=5, method='BoundsOnly', exact=None)",
        (3, 5, "BoundsOnly", None),
        lambda: CountResult(4, 4, "ClosedForm", 4),
    ),
    "APSpec": (
        lambda: APSpec((1,), (2,), 3),
        "APSpec(base=(1,), step=(2,), length=3)",
        ((1,), (2,), 3),
        lambda: APSpec((1,), (2,), 2),
    ),
    "LasResult": (
        lambda: LasResult(3, (0,), (1,), (0, 2, 5)),
        "LasResult(length=3, base=(0,), step=(1,), indices=(0, 2, 5))",
        (3, (0,), (1,), (0, 2, 5)),
        lambda: LasResult(1, None, None, (0,)),
    ),
    "DistributionTable": (
        lambda: DistributionTable(cyclic(3), (0, 0, 0, 6), 6),
        "DistributionTable(spec=AdditiveSetSpec(family='cyclic', n=3, d=1, p=0, "
        "factors=()), counts=(0, 0, 0, 6), total=6)",
        (cyclic(3), (0, 0, 0, 6), 6),
        lambda: DistributionTable(interval_box(3), (0, 0, 2, 4), 6),
    ),
    "ThresholdResult": (
        lambda: ThresholdResult(2.5, (2, 3), "cyclic:5", False, None, 1e-12),
        "ThresholdResult(value=2.5, window=(2, 3), family='cyclic:5', "
        "boundary_clamped=False, asymptotic=None, residual=1e-12, mode='interp')",
        (2.5, (2, 3), "cyclic:5", False, None, 1e-12, "interp"),
        lambda: ThresholdResult(2.5, (2, 3), "cyclic:5", False, None, 1e-12, "smooth"),
    ),
    "ExperimentConfig": (
        lambda: ExperimentConfig(cyclic(5), 10, 7),
        "ExperimentConfig(spec=AdditiveSetSpec(family='cyclic', n=5, d=1, p=0, "
        "factors=()), samples=10, seed=7, k=None)",
        (cyclic(5), 10, 7, None),
        lambda: ExperimentConfig(cyclic(5), 10, 7, 3),
    ),
    "SubseqCountStats": (
        lambda: SubseqCountStats(1.5, 0.25, 1.4, 0.4, 10),
        "SubseqCountStats(mean=1.5, stderr=0.25, expected=1.4, z=0.4, samples=10)",
        (1.5, 0.25, 1.4, 0.4, 10),
        lambda: SubseqCountStats(1.5, 0.25, 1.4, 0.4, 11),
    ),
    "DihedralElement": (
        lambda: DihedralElement(5, 7, 3),
        "DihedralElement(n=5, rot=2, flip=1)",
        (5, 2, 1),
        lambda: DihedralElement(5, 2, 0),
    ),
    "FreeWord": (
        lambda: FreeWord(((1, 1), (1, -1), (2, 1))),
        "FreeWord(letters=((2, 1),))",
        (((2, 1),),),
        lambda: FreeWord(((2, -1),)),
    ),
}


def _field_names(obj):
    return [name for name in type(obj).__slots__ if not name.startswith("_")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_contract(name):
    make, text, fields, make_other = CASES[name]
    a, b, other = make(), make(), make_other()
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(fields)
    assert a != other and not a == other
    assert a != fields  # the field tuple itself is not an instance
    for case, (make_x, *_rest) in CASES.items():
        x = make_x()
        if type(x) is not type(a):
            assert a != x and x != a, case
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(a, protocol))
        assert type(copy) is type(a)
        assert copy == a and hash(copy) == hash(a) and repr(copy) == text
    names = _field_names(a)
    assert len(names) >= len(fields)
    for field in names + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and repr(a) == text


@pytest.mark.parametrize("make, error, message", [
    (lambda: AdditiveSetSpec("bogus", n=3), ValueError, "unknown family 'bogus'"),
    (lambda: interval_box(0), ValueError, "interval box requires n >= 1 and d >= 1"),
    (lambda: cyclic(0), ValueError, "cyclic group requires n >= 1"),
    (lambda: abelian(), ValueError, "abelian group requires at least one factor"),
    (lambda: AdditiveSetSpec("abelian", factors=(1, 2)), ValueError,
     "invariant factors must be >= 2"),
    (lambda: abelian(4, 6), ValueError,
     "factors must form a divisibility chain; use normalize_invariant_factors first"),
    (lambda: elementary(4), ValueError, "4 is not prime"),
    (lambda: elementary(3, 0), ValueError, "elementary p-group requires d >= 1"),
    (lambda: cyclic(10**8), CapExceeded, "cyclic:100000000 exceeds the cap |A| <= 10000000"),
    (lambda: interval_box(3, 30), CapExceeded, "interval:3,30 exceeds the cap of 24 coordinates"),
    (lambda: CountResult(5, 3, "m"), ValueError, "lower 5 > upper 3"),
    (lambda: CountResult(1, 3, "m", 4), ValueError, "exact 4 outside [1, 3]"),
    (lambda: ExperimentConfig(cyclic(5), 10, -1), ValueError,
     "seed must be in [0, 2^64), got -1"),
    (lambda: ExperimentConfig(cyclic(5), 0, 1), ValueError, "samples must be >= 1"),
    (lambda: ExperimentConfig(cyclic(5), SAMPLE_CAP + 1, 1), CapExceeded,
     f"samples capped at {SAMPLE_CAP}"),
    (lambda: DihedralElement(0, 1, 0), ValueError, "dihedral index n must be >= 1"),
    (lambda: FreeWord(((3, 1),)), ValueError, "bad letter (3, 1)"),
])
def test_value_class_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message

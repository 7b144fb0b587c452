"""The immutable records against `dataclasses.dataclass(frozen=True)` twins.

Every value class of the library is built by `series._record`, which
promises a frozen dataclass's behaviour without importing `dataclasses`.
Each test builds a frozen dataclass twin with the same fields, defaults
and (where the class writes one) `__repr__`, and checks on seeded field
values that repr, ==, != and hash agree with the twin's; that positional,
keyword and default construction give equal records; that a record
equals no record of another class and no plain tuple; and that
assignment and deletion raise AttributeError.  The field values are
already in the form the constructors store, so a record and its twin
hold the same values.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from rrcalc import (
    CHOW,
    INTEGERS,
    RATIONALS,
    AbstractCurve,
    AbstractSurface,
    BundleClass,
    CurveBundle,
    FormSingularityData,
    GKClass,
    Morphism,
    RingSpec,
    SurfaceBundle,
    TheoryModel,
    TruncatedSeries,
    ring_of,
)
from rrcalc.acceptance import CriterionResult
from rrcalc.cli import CommandResult
from rrcalc.series import _record
from rrcalc.theories import MetricReport

CASES = 120
SPEC = ring_of(CHOW, (2,))


def _ring_spec(rng):
    k = rng.randint(0, 3)
    return (
        tuple(rng.sample("xyz", k)),
        tuple(rng.randint(0, 2) for _ in range(k)),
        rng.choice((INTEGERS, RATIONALS)),
        tuple(rng.randint(1, 2) for _ in range(k)),
        rng.choice((None, rng.randint(0, 3))),
    )


def _theory_model(rng):
    if rng.random() < 0.5:
        return rng.randint(0, 1), rng.choice((INTEGERS, RATIONALS)), None
    head = rng.choice((1, 2, Fraction(1, 2)))
    return rng.randint(0, 1), RATIONALS, TruncatedSeries([head, rng.randint(-1, 1)])


def _morphism(rng):
    source = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
    j = rng.randrange(len(source))
    if rng.random() < 0.5:
        return source, source[:j] + source[j + 1 :], j
    return source, source[:j] + (source[j] + rng.randint(0, 1),) + source[j + 1 :], j


def _bundle_class(rng):
    chern = SPEC.one() + SPEC.element({(1,): rng.randint(-1, 1), (2,): rng.randint(-1, 1)})
    return rng.randint(-2, 2), chern


def _gk_class(rng):
    level = rng.randint(0, 2)
    return level, SPEC.element({(level,): rng.randint(-1, 1)})


def _metric_report(rng):
    matrix = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(2))
    return matrix, Fraction(rng.randint(-1, 1), rng.randint(1, 2)), rng.random() < 0.5


def _criterion_result(rng):
    return rng.randint(1, 2), rng.choice("ab"), rng.random() < 0.5, rng.choice("cd"), 0.5


def _command_result(rng):
    inputs = {"n": rng.randint(0, 1)}
    outputs = {"out": [rng.randint(0, 1)]}
    return rng.choice(("todd", "chi")), inputs, outputs, rng.choice((None, True))


def _small(count, low=0):
    return lambda rng: tuple(rng.randint(low, low + 1) for _ in range(count))


RECORDS = {
    RingSpec: _ring_spec,
    TheoryModel: _theory_model,
    Morphism: _morphism,
    BundleClass: _bundle_class,
    GKClass: _gk_class,
    MetricReport: _metric_report,
    CriterionResult: _criterion_result,
    CommandResult: _command_result,
    AbstractCurve: _small(1),
    CurveBundle: _small(2, -1),
    AbstractSurface: _small(2, -1),
    SurfaceBundle: _small(4, -1),
    FormSingularityData: _small(3),
}


def _twin(cls):
    """A frozen dataclass with cls's fields, class-level defaults and own repr."""
    fields = [
        (name, object, cls.__dict__[name]) if name in cls.__dict__ else (name, object)
        for name in cls._fields
    ]
    own_repr = cls.__repr__.__qualname__ == f"{cls.__qualname__}.__repr__"  # not _record's
    namespace = {"__repr__": cls.__repr__} if own_repr else {}
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)
    twin.__qualname__ = cls.__qualname__  # repr names the class by its qualname
    return twin


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    twin, make = _twin(cls), RECORDS[cls]
    assert cls._fields == tuple(field.name for field in dataclasses.fields(twin))
    other = next(record for record in RECORDS if record is not cls)
    stranger = other(*RECORDS[other](random.Random(0)))
    rng = random.Random(2310)
    for _ in range(CASES):
        values, others = make(rng), make(rng)
        record, copy, unequal = cls(*values), cls(*values), cls(*others)
        assert repr(record) == repr(twin(*values))
        assert _hash_or_error(record) == _hash_or_error(twin(*values))
        assert record == copy and not record != copy and record is not copy
        assert (record == unequal) == (twin(*values) == twin(*others)) == (values == others)
        assert (record != unequal) == (twin(*values) != twin(*others))
        for foreign in (stranger, twin(*values), values, None):
            assert record.__eq__(foreign) is NotImplemented
            assert record != foreign and not record == foreign
        assert cls(**dict(zip(cls._fields, values))) == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    record = cls(*RECORDS[cls](random.Random(1)))
    before = repr(record)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_the_arguments_its_twin_refuses(cls):
    twin, values = _twin(cls), RECORDS[cls](random.Random(2))
    first = cls._fields[0]
    for args, kwargs in (
        ((*values, values[0]), {}),
        (values, {first: values[0]}),
        (values, {"extra": 0}),
        ((), {}),
    ):
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_defaults_fill_the_trailing_fields():
    assert RingSpec.__dict__["scalars"] == INTEGERS
    for seed in range(40):
        variables, bounds, scalars, _, _ = _ring_spec(random.Random(seed))
        ones = (1,) * len(variables)
        assert RingSpec(variables, bounds) == RingSpec(variables, bounds, INTEGERS, ones, None)
        assert RingSpec(variables, bounds, scalars) == RingSpec(variables, bounds, scalars, ones)
        assert RingSpec(variables=variables, bounds=bounds) == RingSpec(variables, bounds)
    assert TheoryModel(0, RATIONALS) == TheoryModel(0, RATIONALS, None) == TheoryModel(
        beta=0, scalars=RATIONALS
    )
    assert repr(TheoryModel(1, INTEGERS)) == "<ktheory over integers>"


def test_the_generic_constructor_fills_defaults_and_runs_the_checks():
    @_record
    class Interval:
        low: int
        high: int = 10

        def __post_init__(self):
            if self.high < self.low:
                raise ValueError("empty interval")

    twin = _twin(Interval)
    for args, kwargs in (((3,), {}), ((3, 4), {}), ((), {"low": 3}), ((3,), {"high": 5})):
        assert repr(Interval(*args, **kwargs)) == repr(twin(*args, **kwargs))
    assert Interval(3) == Interval(low=3, high=10) != Interval(3, 11)
    with pytest.raises(ValueError, match="empty interval"):
        Interval(12)


def test_dict_caches_stay_out_of_equality_hash_and_repr():
    spec = RingSpec(("x", "y"), (2, 1), RATIONALS, (1, 2), 3)
    fresh = RingSpec(("x", "y"), (2, 1), RATIONALS, (1, 2), 3)
    before = repr(spec), hash(spec)
    assert spec.total_degree == 3 and spec._packing  # cached_property entries
    assert set(vars(spec)) == {*RingSpec._fields, "total_degree", "_packing"}
    assert (repr(spec), hash(spec)) == before and spec == fresh
    theory = TheoryModel(0, RATIONALS, TruncatedSeries([1, 1, 0]))
    assert theory.law(*ring_of(theory, (1, 1)).generators()) is not None  # fills _built_law
    assert "_built_law" in vars(theory)
    assert theory == TheoryModel(0, RATIONALS, TruncatedSeries([1, 1, 0]))

"""The immutable value types: the contract every ``Record`` keeps."""

import copy
import inspect
import pickle

import pytest

from linegeo import (
    ComplexPair,
    DomainError,
    FirstIntegrals,
    GeodesicState,
    NormalizationCertificate,
    OscillationReport,
    QuadraticSection,
    Rotation,
    StandardSphere,
    TangentVector,
    Trajectory,
    Translation,
    TurningPoints,
    integrate,
)
from linegeo.checks import CheckResult

_TRAJ = integrate(GeodesicState(0.0, 0.3, 0.5j), 0.5, 1e-8)
_TP = TurningPoints(R_min=0.2, R_max=0.6, ratio=12.5)

#: (type, keyword arguments, values of the fields left out: defaults, or
#: derived at construction)
RECORDS = [
    (ComplexPair, {"xi": 0.3 + 0.1j, "eta": -1.0 + 2.0j}, {}),
    (Translation, {"alpha1": 0.5 - 1.0j, "a1": 0.25}, {}),
    # not a unit spinor: the normalised fields must survive copies bit for bit
    (Rotation, {"alpha2": 0.3 + 0.4j, "alpha3": -0.7 + 0.1j}, {}),
    (TangentVector, {"base": ComplexPair(0.3, 1.0j), "dxi": 1.0 + 1.0j, "deta": -2.0j}, {}),
    (QuadraticSection, {"beta1": 1.0, "beta2": 2.0j, "beta3": 3.0 - 1.0j}, {}),
    (StandardSphere, {"c": 1.5}, {}),
    (
        NormalizationCertificate,
        {
            "translation": Translation(0.5j, 1.0),
            "rotation": Rotation(0.6, 0.8j),
            "result": StandardSphere(2.0),
            "intermediate_gamma": 2.0 + 0.0j,
            "intermediate_c": 2.0,
        },
        {},
    ),
    (GeodesicState, {"t": 0.5, "xi": 0.2 + 0.1j, "xidot": 1.0j}, {}),
    (FirstIntegrals, {"I1": 0.6, "I2": 0.16}, {}),
    (
        Trajectory,
        {name: getattr(_TRAJ, name) for name in Trajectory.__slots__ if name != "t_hit"},
        {"t_hit": None},
    ),
    (TurningPoints, {"R_min": 0.2, "R_max": 0.6, "ratio": 12.5}, {}),
    (
        OscillationReport,
        {
            "observed_min": 0.21,
            "observed_max": 0.59,
            "predicted": _TP,
            "discrepancy_min": 0.01,
            "discrepancy_max": 0.01,
            "radial_turnings": 4,
            "conclusive": True,
        },
        {},
    ),
    (
        CheckResult,
        {"name": "demo", "passed": True, "threshold": 1e-8, "observed": 3e-11},
        {"margin": 1e-8 / 3e-11, "detail": ""},
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_record_contract(cls, kwargs, defaults):
    record = cls(**kwargs)
    fields = cls.__slots__
    assert set(fields) == set(kwargs) | set(defaults)
    values = [getattr(record, name) for name in fields]

    # keyword and positional construction agree, the constructor taking the
    # fields in slot order (less those derived at construction), and the
    # defaults hold
    params = [name for name in fields if name in inspect.signature(cls).parameters]
    assert list(inspect.signature(cls).parameters) == params
    assert cls(*[kwargs.get(name, defaults.get(name)) for name in params]) == record
    for name, default in defaults.items():
        assert getattr(record, name) == default

    # no field can be set or deleted, and no new attribute added
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == values

    # equality and hashing go by type and field values, not tuple semantics
    twin = cls(**kwargs)
    assert twin == record and not twin != record
    other = StandardSphere(1.0) if cls is not StandardSphere else FirstIntegrals(1.0, 1.0)
    assert record != other and record != tuple(values)
    if cls is Trajectory:
        with pytest.raises(TypeError):  # list fields are unhashable
            hash(record)
    else:
        assert hash(twin) == hash(record)

    # dataclass-style repr
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({body})"

    # copies and pickles keep the type and every field bit for bit; the
    # repr of a float round-trips exactly, signed zero included
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        pickle.loads(pickle.dumps(record, protocol=0)),
    ):
        assert type(clone) is cls and clone is not record
        assert clone == record
        assert repr(clone) == repr(record)


def test_record_repr_matches_the_dataclass_format():
    assert repr(ComplexPair(1.0, 2.0j)) == "ComplexPair(xi=(1+0j), eta=2j)"
    assert repr(GeodesicState(0.5, 0.0, 1.0)) == "GeodesicState(t=0.5, xi=0j, xidot=(1+0j))"


def test_copies_are_not_validated_again(monkeypatch):
    # a copy or unpickled record is rebuilt from its stored fields: no
    # constructor runs, so Rotation is not normalised a second time
    records = [cls(**kwargs) for cls, kwargs, _ in RECORDS]
    pickles = [pickle.dumps(record) for record in records]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructed again")

    for cls, _, _ in RECORDS:
        monkeypatch.setattr(cls, "__init__", refuse)
    for record, pickled in zip(records, pickles):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickled)):
            assert type(clone) is type(record) and clone == record


_BASE = ComplexPair(0.3, 1.0j)
#: the value types whose fields are complex, as (type, the fields in the
#: order they are checked, a constructor from those fields)
COMPLEX_RECORDS = [
    (ComplexPair, ("xi", "eta"), ComplexPair),
    # the real a1 is checked, and its realness, before alpha1
    (Translation, ("a1", "alpha1"), lambda a1, alpha1: Translation(alpha1, a1)),
    (Rotation, ("alpha2", "alpha3"), Rotation),
    (TangentVector, ("dxi", "deta"), lambda dxi, deta: TangentVector(_BASE, dxi, deta)),
    (QuadraticSection, ("beta1", "beta2", "beta3"), QuadraticSection),
]
_FIELD_CASES = [
    pytest.param(fields, make, field, id=f"{cls.__name__}.{fields[field]}")
    for cls, fields, make in COMPLEX_RECORDS
    for field in range(len(fields))
]


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize("fields, make, field", _FIELD_CASES)
def test_non_finite_field_is_named(fields, make, field, bad):
    values = [0.5] * len(fields)
    values[field] = bad
    with pytest.raises(DomainError) as info:
        make(*values)
    assert str(info.value) == f"{fields[field]} must be finite, got {complex(bad)!r}"
    # with every later field bad as well, the first checked is still named
    values[field:] = [complex(0.0, bad)] * (len(fields) - field)
    with pytest.raises(DomainError) as info:
        make(*values)
    assert str(info.value) == f"{fields[field]} must be finite, got {complex(0.0, bad)!r}"


def test_translation_checks_the_realness_of_a1_before_alpha1():
    with pytest.raises(DomainError, match=r"^translation component a1 must be real$"):
        Translation(float("nan"), 1j)

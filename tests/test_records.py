"""The immutable value types: the contract every ``Record`` keeps."""

import copy
import pickle

import pytest

from linegeo import (
    ComplexPair,
    FirstIntegrals,
    GeodesicState,
    NormalizationCertificate,
    OscillationReport,
    PolarState,
    QuadraticSection,
    Rotation,
    StandardSphere,
    TangentVector,
    Trajectory,
    Translation,
    TurningPoints,
    integrate,
)
from linegeo import line_space
from linegeo.checks import CheckResult

_TRAJ = integrate(GeodesicState(0.0, 0.3, 0.5j), StandardSphere(1.0), 0.5, 1e-8)
_TP = TurningPoints(R_min=0.2, R_max=0.6, ratio=12.5)

#: (type, keyword arguments, defaults of the fields left out)
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
    (PolarState, {"R": 0.4, "theta": 0.3, "Rdot": 0.2, "thetadot": 1.1}, {"t": 0.0}),
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
        {"detail": ""},
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

    # keyword and positional construction agree, and the defaults hold
    assert cls(*[kwargs.get(name, defaults.get(name)) for name in fields]) == record
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
    assert repr(PolarState(0.5, 0.0, 0.0, 1.0)) == (
        "PolarState(R=0.5, theta=0.0, Rdot=0.0, thetadot=1.0, t=0.0)"
    )


def test_copies_are_not_validated_again(monkeypatch):
    # a copy or unpickled record is rebuilt from its stored fields: no
    # constructor runs, so Rotation is not normalised a second time
    rotation = Rotation(1.0 + 2.0j, 3.0 - 0.5j)
    pickled = pickle.dumps(rotation)

    def refuse(name, value):
        raise AssertionError(f"{name} validated again")

    monkeypatch.setattr(line_space, "finite_complex", refuse)
    for clone in (copy.copy(rotation), copy.deepcopy(rotation), pickle.loads(pickled)):
        assert (clone.alpha2, clone.alpha3) == (rotation.alpha2, rotation.alpha3)

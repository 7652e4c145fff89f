"""The contract of the package's record classes: what callers may rely on.

Every exported class is a frozen record.  Its fields come in a fixed order,
by position or keyword, with the defaults listed below; ``vars()`` maps them
in that order; ``repr`` spells them; ``==`` and ``hash`` read them, and only
a record of the same class can be equal; no attribute can be set or deleted,
nor a field changed through ``vars()``; copy, deepcopy and pickle give an
equal record; a record can be weakly referenced; its type is its class, which
cannot be switched away; the class's signature lists the fields in order with
their defaults; and each constructor guard raises its message.
"""

import copy
import inspect
import math
import pickle
import weakref

import pytest

import lightclock
from lightclock import (
    SPEED_OF_LIGHT,
    AlterationReport,
    BetaGamma,
    CountDiagramMeasures,
    CountPair,
    Dual,
    EinsteinMeasures,
    EquilinearResult,
    Event4,
    ExpansionRates,
    GravCompareInput,
    GravitySource,
    LambdaFactor,
    LightClockSpec,
    MediumVelocity,
    MetricPoint,
    PartialInterval,
    PropagationScenario,
    PulseCounts,
    RadarRecord,
    Rapidity,
    TriangleEinstein,
    VelocityTriangle,
)


def profile(t):
    return 2.0 * t


# each record: its required fields, then its defaulted fields with their
# defaults, in field order; and a full set of values it accepts
RECORDS = {
    AlterationReport: ("gamma frequency_ratio lifetime_ratio mass_ratio clock_rate_ratio", {},
                       (0.5, 0.5, 2.0, 2.0, 0.5)),
    GravCompareInput: ("r_s r_P r_R", {"lambda_P_per_m2": 0.0, "lambda_R_per_m2": 0.0},
                       (1.0, 2.0, 3.0, 1e-52, 2e-52)),
    LightClockSpec: ("round_trip_length_L", {"light_speed_c": SPEED_OF_LIGHT}, (2.0, 1.0)),
    CountPair: ("count_a count_b", {}, (1.0, 2.0)),
    CountDiagramMeasures: ("t_E_counts r_E_counts t_E r_E v_E K", {},
                           (70.0, 10.0, 7.0, 1.0, 0.125, 0.5)),
    Dual: ("real", {"eps": 0.0}, (1.5, -2.0)),
    RadarRecord: ("t1 t2 t3", {}, (1.0, 2.0, 4.0)),
    Rapidity: ("omega c", {}, (0.5, 1.0)),
    EinsteinMeasures: ("t_E r_E v_E K t1_split t3_split t2_pred", {"degenerate": False},
                       (2.5, 1.5, 0.6, 0.6, 1.0, 4.0, 2.0, True)),
    VelocityTriangle: ("omega1 omega2 omega3 theta phi p1 p2 n c", {},
                       (1.0, 2.0, 2.5, 0.5, 2.0, 0.8, 1.7, 0.3, 1.0)),
    Event4: ("t x", {"y": 0.0, "z": 0.0}, (1.0, 2.0, 3.0, 4.0)),
    BetaGamma: ("v beta gamma", {}, (0.6, 1.25, 0.8)),
    TriangleEinstein: ("v1 v2 v3 residual_projection residual_beta residual_normal", {},
                       (0.1, 0.2, 0.3, 1e-17, -2e-17, 0.0)),
    LambdaFactor: ("v", {"d": 0.0, "c": SPEED_OF_LIGHT, "mode": "real"},
                   (0.5, 0.25, 1.0, "complex")),
    GravitySource: ("schwarzschild_r0", {"c": SPEED_OF_LIGHT, "lambda_per_m2": 0.0},
                    (1.0, 2.0, 1e-52)),
    MetricPoint: ("R", {"theta": math.pi / 2.0, "dt": 0.0, "dR": 0.0, "dtheta": 0.0,
                        "dphi": 0.0}, (3.0, 1.0, 0.5, Dual(0.25, 1.0), 0.125, 0.0625)),
    ExpansionRates: ("H q", {"friedmann_residual": None}, (0.5, -1.0, 1e-16)),
    PartialInterval: ("value branch", {}, (-0.5, "transition")),
    PropagationScenario: ("velocity_profile t1 a b", {"c": SPEED_OF_LIGHT},
                          (profile, 1.5, 1.0, 2.0, 1.0)),
    MediumVelocity: ("omega witness", {}, (0.75, 1.25)),
    PulseCounts: ("tau1 tau2 tau3 t1 t2 t3", {}, (1.0, 2.0, 3.0, 1.0, 2.0, 3.0)),
    EquilinearResult: ("w1 w2 w3 residual", {}, (0.5, 1.0, 1.5, 0.0)),
}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def fields(cls):
    required, defaults, _ = RECORDS[cls]
    return required.split() + list(defaults)


def full(cls):
    return dict(zip(fields(cls), RECORDS[cls][2]))


def test_every_exported_class_is_listed():
    exported = {getattr(lightclock, name) for name in lightclock.__all__}
    assert {value for value in exported if isinstance(value, type)} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls):
        values = full(cls)
        by_position, by_keyword = cls(*values.values()), cls(**values)
        assert vars(by_position) == vars(by_keyword) == values
        assert list(vars(by_position)) == fields(cls)

    def test_defaults(self, cls):
        required, defaults, values = RECORDS[cls]
        record = cls(*values[:len(required.split())])
        assert list(vars(record)) == fields(cls)
        assert {name: vars(record)[name] for name in defaults} == defaults

    def test_missing_or_unknown_argument(self, cls):
        values = full(cls)
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**values, unknown=1.0)
        with pytest.raises(TypeError):
            cls(*values.values(), 1.0)

    def test_repr(self, cls):
        record = cls(**full(cls))
        if cls is Dual:
            assert repr(record) == "1.5 + -2.0ε"
        else:
            spelled = ", ".join(f"{name}={value!r}" for name, value in full(cls).items())
            assert repr(record) == f"{cls.__name__}({spelled})"

    def test_eq_and_hash(self, cls):
        values = full(cls)
        record, same = cls(**values), cls(**values)
        assert record == same and not record != same
        assert hash(record) == hash(same) == hash(tuple(values.values()))
        # the first field changed: a float, or the profile of a scenario
        changed = math.sqrt if cls is PropagationScenario else 0.875
        other = cls(**{**values, fields(cls)[0]: changed})
        assert record != other and not record == other
        assert record != tuple(values.values())

    def test_frozen(self, cls):
        record = cls(**full(cls))
        name = fields(cls)[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1.0
        assert vars(record) == full(cls)

    def test_a_write_into_vars_changes_nothing(self, cls):
        record, same = cls(**full(cls)), cls(**full(cls))
        vars(record)[fields(cls)[0]] = 100.0
        assert vars(record) == full(cls)
        assert record == same and hash(record) == hash(same)

    def test_copy_deepcopy_and_pickle(self, cls):
        record = cls(**full(cls))
        for twin in copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)):
            assert type(twin) is cls and twin == record

    def test_weakref(self, cls):
        record = cls(**full(cls))
        assert weakref.ref(record)() is record

    def test_type_is_the_record_class(self, cls):
        assert type(cls(**full(cls))) is cls

    def test_class_cannot_be_switched_to_its_base(self, cls):
        record = cls(**full(cls))
        with pytest.raises(AttributeError):
            record.__class__ = type(record).__base__
        assert type(record) is cls and vars(record) == full(cls)

    def test_signature_lists_the_fields_with_their_defaults(self, cls):
        parameters = inspect.signature(cls).parameters
        assert list(parameters) == fields(cls)
        given = {name: p.default for name, p in parameters.items() if p.default is not p.empty}
        assert given == RECORDS[cls][1]


def test_records_of_two_types_with_equal_values_differ():
    alike = [Dual(1.0, 2.0), CountPair(1.0, 2.0), Rapidity(1.0, 2.0), MediumVelocity(1.0, 2.0)]
    for i, a in enumerate(alike):
        for b in alike[i + 1:]:
            assert a != b and b != a and not a == b
    assert RadarRecord(1.0, 2.0, 3.0) != BetaGamma(1.0, 2.0, 3.0)


# == compares the fields as a tuple does: a NaN equals itself alone, and
# 0.0 equals -0.0; records that compare equal hash alike
@pytest.mark.parametrize("a,b,equal", [
    (Event4(math.nan, 1.0), Event4(math.nan, 1.0), True),
    (Event4(float("nan"), 1.0), Event4(float("nan"), 1.0), False),
    (Event4(0.0, 1.0), Event4(-0.0, 1.0), True),
], ids=["one-nan-object", "two-nan-objects", "signed-zero"])
def test_eq_on_nan_and_signed_zero_fields(a, b, equal):
    assert (a == b) is equal and (a != b) is not equal
    assert (a == b) is (tuple(vars(a).values()) == tuple(vars(b).values()))
    if equal:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls,args,message", [
    (LightClockSpec, (0.0,), "round_trip_length_L must be positive"),
    (LightClockSpec, (1.0, -1.0), "light_speed_c must be positive"),
    (CountPair, (-1.0, 2.0), "counter readings must be non-negative"),
    (CountPair, (2.0, 1.0), "count_b must not precede count_a"),
    (Dual, (math.nan,), "real part must be finite"),
    (Dual, (1.0, math.inf), "infinitesimal coefficient must be finite"),
    (LambdaFactor, (0.5, 0.0, 1.0, "imaginary"), "mode must be 'real' or 'complex'"),
    (GravitySource, (-1.0,), "a source needs a finite r0 >= 0 and c > 0"),
    (PropagationScenario, (profile, 1.0, 2.0, 1.0), r"need 0 < a < b"),
    (PropagationScenario, (profile, 3.0, 1.0, 2.0), r"t1 must lie inside \[a, b\]"),
    (RadarRecord, (0.0, 1.0, 2.0), "invalid medium time: t1 must be positive"),
    (RadarRecord, (1.0, 3.0, 2.0), "radar record requires t1 <= t2 <= t3"),
    (Rapidity, (-0.5, 1.0), "medium velocity must be non-negative"),
    (Rapidity, (0.5, 0.0), "c must be positive"),
    (GravCompareInput, (-1.0, 2.0, 3.0), "r_s must be non-negative"),
    (GravCompareInput, (2.0, 1.0, 3.0), "both radii must lie at or outside r_s"),
])
def test_guard(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


class TestDual:
    def test_eq_compares_both_parts(self):
        assert Dual(1.0, 2.0) == Dual(1.0, 2.0)
        assert Dual(1.0, 2.0) != Dual(1.0, 3.0)
        assert Dual(1.0) != 1.0 and not Dual(1.0) == 1.0

    def test_order_compares_standard_parts(self):
        a, b = Dual(1.0, 2.0), Dual(1.0, 3.0)
        assert a <= b and a >= b and not a < b and not a > b
        assert Dual(1.0, 5.0) < 2 and 0.5 < Dual(1.0, -5.0)
        assert Dual(1.0) <= 1.0 and not Dual(1.0) < 1.0

    def test_repr(self):
        assert repr(Dual(2.0)) == "2.0 + 0.0ε"
        assert repr(Dual(1.0, 1.0) * Dual(1.0, 1.0)) == "1.0 + 2.0ε"

    def test_repr_shows_each_level_of_a_nested_dual(self):
        assert repr(Dual(Dual(1.0, 1.0), Dual(1.0, 0.0))) == "(1.0 + 1.0ε) + (1.0 + 0.0ε)ε"
        assert repr(Dual(2.0, Dual(0.5, -1.0))) == "2.0 + (0.5 + -1.0ε)ε"

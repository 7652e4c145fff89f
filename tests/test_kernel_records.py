"""The records the kernels return are built by calling each record's
``__new__`` directly, past ``type.__call__``: each is the record the class
call builds from its fields, and the constructor guards still run."""

import math

import pytest

from lightclock import (
    AlterationReport,
    BetaGamma,
    CountDiagramMeasures,
    EinsteinMeasures,
    EquilinearResult,
    Event4,
    ExpansionRates,
    LightClockSpec,
    MediumVelocity,
    PartialInterval,
    PropagationScenario,
    RadarRecord,
    Rapidity,
    TriangleEinstein,
    VelocityTriangle,
    alteration_report,
    beta_gamma,
    einstein_from_count_diagram,
    einstein_measures,
    equilinear_check,
    hubble_deceleration,
    lorentz_transform,
    medium_velocity,
    partial_interval,
    rapidity_from_vE,
    record_from_rapidity,
    solve_triangle,
    triangle_to_einstein,
)


def scenario(profile):
    return PropagationScenario(profile, t1=1.0, a=1.0, b=4.0, c=1.0)


# one call per construction site, with the class it returns
SITES = {
    "beta_gamma": (BetaGamma, lambda: beta_gamma(0.6, 1.0)),
    "solve_triangle-degenerate": (VelocityTriangle, lambda: solve_triangle(1.0, 0.0, 1.0, 1.0)),
    "solve_triangle": (VelocityTriangle, lambda: solve_triangle(0.5, 0.5, 1.0, 1.0)),
    "triangle_to_einstein": (TriangleEinstein,
                             lambda: triangle_to_einstein(solve_triangle(0.5, 0.5, 1.0, 1.0))),
    "lorentz_transform": (Event4, lambda: lorentz_transform(Event4(1.0, 0.5, 0.25), 0.6, 1.0)),
    "einstein_measures": (EinsteinMeasures,
                          lambda: einstein_measures(RadarRecord(1.0, 2.0, 4.0), 1.0)),
    "rapidity_from_vE": (Rapidity, lambda: rapidity_from_vE(0.5, 1.0)),
    "record_from_rapidity": (RadarRecord, lambda: record_from_rapidity(0.5, 1.0, 1.0)),
    "einstein_from_count_diagram": (CountDiagramMeasures, lambda: einstein_from_count_diagram(
        LightClockSpec(1.0, 1.0), (20, 40, 60), (80, 110, 140))),
    "hubble_deceleration": (ExpansionRates, lambda: hubble_deceleration(lambda t: t**1.7, 3.0)),
    "partial_interval-interior": (PartialInterval,
                                  lambda: partial_interval(-0.5, 1.0, 1.0, 0.5, 1.0)),
    "partial_interval": (PartialInterval, lambda: partial_interval(0.5, 1.0, 1.0, 0.5, 1.0)),
    "alteration_report": (AlterationReport, lambda: alteration_report(0.5)),
    # a constant profile settles the witness on the grid, a linear one by bisection
    "medium_velocity-grid": (MediumVelocity,
                             lambda: medium_velocity(scenario(lambda t: 0.5), 1.0, 2.0)),
    "medium_velocity-bisection": (MediumVelocity,
                                  lambda: medium_velocity(scenario(lambda t: t), 1.0, 2.0)),
    "equilinear_check": (EquilinearResult,
                         lambda: equilinear_check(scenario(lambda t: 0.5), 1.0, 2.0, 4.0)),
}


@pytest.mark.parametrize("cls,call", SITES.values(), ids=SITES)
def test_a_kernel_returns_the_record_its_class_call_builds(cls, call):
    result = call()
    built = cls(**vars(result))
    assert type(result) is cls
    assert result == built and hash(result) == hash(built)
    with pytest.raises(AttributeError, match="frozen record"):
        setattr(result, next(iter(vars(result))), 0.0)


def test_the_witness_sites_are_both_reached():
    assert medium_velocity(scenario(lambda t: 0.5), 1.0, 2.0).witness == 1.0
    witness = medium_velocity(scenario(lambda t: t), 1.0, 2.0).witness
    assert 1.0 < witness < 2.0 and math.isclose(witness, 1.0 / math.log(2.0))


def test_a_post_init_guard_runs_on_the_direct_path():
    with pytest.raises(ValueError, match="^invalid medium time: t1 must be positive$"):
        record_from_rapidity(0.5, 1.0, -1.0)

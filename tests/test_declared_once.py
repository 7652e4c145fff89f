"""Each physical constant and each kernel default is declared in one place:
c and G in the package, the defaults of optional parameters in the kernel
signatures, which the CLI leaves to the kernel when a parameter is omitted."""

import inspect
import json
import math

import pytest
from conftest import run_main

import lightclock
from lightclock import (
    GravitySource,
    LambdaFactor,
    LightClockSpec,
    PropagationScenario,
    cli,
    hubble_deceleration,
    source_from_mass,
    source_from_r0,
)


def _default(obj, name):
    return inspect.signature(obj).parameters[name].default


@pytest.mark.parametrize(
    "obj,name",
    [
        (LightClockSpec, "light_speed_c"),
        (LambdaFactor, "c"),
        (GravitySource, "c"),
        (source_from_r0, "c"),
        (source_from_mass, "c"),
        (PropagationScenario, "c"),
    ],
)
def test_light_speed_defaults_are_the_package_constant(obj, name):
    assert _default(obj, name) is lightclock.SPEED_OF_LIGHT


@pytest.mark.parametrize(
    "obj", [source_from_mass, hubble_deceleration]
)
def test_gravitational_constant_defaults_are_the_package_constant(obj):
    assert _default(obj, "G") is lightclock.GRAVITATIONAL_CONSTANT


def test_constants():
    assert lightclock.SPEED_OF_LIGHT == 299792458.0
    assert lightclock.GRAVITATIONAL_CONSTANT == 6.6743e-11
    assert "GRAVITATIONAL_CONSTANT" in lightclock.__all__
    assert not hasattr(cli, "DEFAULT_C")


HALF_PI = repr(math.pi / 2.0)


@pytest.mark.parametrize(
    "argv,spelt_out",
    [
        (["metric", "schwarzschild", "--mass", "1e30", "--R", "3e4", "--dt", "1e-3",
          "--dR", "20", "--dphi", "1e-4"],
         ["--G", "6.6743e-11", "--theta", HALF_PI, "--dtheta", "0"]),
        (["metric", "linear", "--v", "0.3", "--dt", "1", "--dr", "0.5", "--natural-units"],
         ["--d", "0", "--mode", "real"]),
        (["lorentz", "--t", "1", "--x", "0.5", "--v3", "0.3", "--c", "1"],
         ["--y", "0", "--z", "0"]),
        (["dilation", "--rs-over-rp", "0.5", "--rr-over-rp", "4"],
         ["--Lambda", "0", "--lambda-unit", "s^-2"]),
        (["hubble", "--model", "powerlaw", "--exponent", "0.5", "--t", "2", "--rho", "1e-26"],
         ["--G", "6.6743e-11"]),
        (["metric", "modified", "--r0", "1e4", "--R", "3e4"],
         ["--Lambda", "0", "--lambda-unit", "s^-2"]),
    ],
)
def test_omitted_parameter_takes_the_kernel_default(argv, spelt_out):
    code, out, err = run_main(*argv)
    assert (code, err) == (0, ""), err
    assert run_main(*argv, *spelt_out) == (code, out, err)
    assert json.loads(out)

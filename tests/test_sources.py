"""A source is its Schwarzschild radius r0, the light speed and Λ in m^-2.

``source_from_r0`` keeps r0 as given; ``source_from_mass`` is the one place a
mass and G enter, as r0 = 2GM/c².  On the CLI, G goes with a mass: a row reads
``r0|mass,[G]``.
"""

import json
import math

import pytest
from conftest import run_main
from hypothesis import assume, given
from hypothesis import strategies as st

from lightclock import GravitySource, potential_velocity, source_from_mass, source_from_r0

FINITE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
# a light speed the CLI accepts: positive, finite, with a square that is not 0
LIGHT_SPEED = st.floats(min_value=1e-150, max_value=1e300)


class TestRecord:
    def test_fields_are_what_the_formulas_read(self):
        assert list(vars(GravitySource(1.0))) == ["schwarzschild_r0", "c", "lambda_per_m2"]
        with pytest.raises(AttributeError):
            GravitySource(1.0).schwarzschild_r0 = 2.0

    @pytest.mark.parametrize("r0,c", [(-1.0, 1.0), (-1e-300, 1.0), (math.inf, 1.0),
                                      (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_r0_outside_zero_to_inf_or_c_not_positive_is_refused(self, r0, c):
        with pytest.raises(ValueError, match="a source needs a finite r0 >= 0 and c > 0"):
            GravitySource(r0, c)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_lambda_is_refused_naming_it(self, lam):
        with pytest.raises(ValueError, match=rf"a source needs a finite r0 >= 0 and c > 0"
                                             rf".* and Lambda = {lam!r} m\^-2$"):
            GravitySource(1.0, 1.0, lam)

    def test_a_nan_light_speed_is_refused_from_r0(self):
        with pytest.raises(ValueError, match=r"c = nan m/s"):
            source_from_r0(1.0, c=math.nan)

    def test_unknown_lambda_unit_is_refused(self):
        with pytest.raises(ValueError, match="lambda_unit must be one of"):
            source_from_mass(1.0, Lambda=1.0, lambda_unit="km^-2")

    def test_potential_velocity_is_c_sqrt_r0_over_R(self):
        src = source_from_r0(0.5, c=3.0)
        assert potential_velocity(src, 2.0) == 3.0 * 0.5


class TestMassConstructor:
    def test_negative_r0_names_mass_and_G(self):
        with pytest.raises(ValueError, match=r"of mass 1\.0 kg with G = -1\.0"):
            source_from_mass(1.0, G=-1.0, c=1.0)


@given(r0=FINITE, c=LIGHT_SPEED)
def test_source_from_r0_keeps_r0(r0, c):
    assert source_from_r0(r0, c).schwarzschild_r0 == r0


@given(mass=FINITE, G=st.floats(min_value=0.0, max_value=1e300), c=LIGHT_SPEED)
def test_source_from_mass_is_2GM_over_c2(mass, G, c):
    r0 = 2.0 * G * mass / (c * c)
    assume(r0 < math.inf)
    assert source_from_mass(mass, G, c).schwarzschild_r0 == r0


class TestCli:
    def test_r0_with_G_is_two_naming_both(self):
        code, out, err = run_main("metric", "schwarzschild", "--r0", "1", "--G", "0",
                                  "--R", "2")
        assert (code, out) == (2, "")
        assert "'r0'" in err and "'G'" in err

    def test_a_bad_c_is_named_before_both_sides(self):
        code, out, err = run_main("metric", "schwarzschild", "--r0", "1", "--G", "0",
                                  "--R", "2", "--c", "0")
        assert (code, out) == (2, "")
        assert err.startswith("config error: parameter 'c' must be positive")

    def test_mass_with_G_zero_is_massless(self):
        code, out, err = run_main("metric", "schwarzschild", "--mass", "1", "--G", "0",
                                  "--R", "2", "--c", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["lambda"] == 1.0

    def test_negative_mass_names_the_mass(self):
        code, out, err = run_main("metric", "schwarzschild", "--mass", "-1", "--G", "-1",
                                  "--R", "2")
        assert (code, out) == (1, "")
        assert "mass must be non-negative" in err

    def test_a_lambda_past_the_float_range_in_m2_names_it(self):
        # 1e305 cm^-2 is inf in m^-2: the source refuses it, not the horizon scan
        code, out, err = run_main("horizon", "--r0", "1", "--Lambda", "1e305",
                                  "--lambda-unit", "cm^-2")
        assert (code, out) == (1, "")
        assert err.startswith("domain error: horizon: a source needs") and "Lambda = inf" in err

    def test_negative_r0_names_r0_not_a_mass(self):
        code, out, err = run_main("metric", "schwarzschild", "--r0", "-1", "--R", "2")
        assert (code, out) == (1, "")
        assert "got r0 = -1.0 m" in err and "mass" not in err

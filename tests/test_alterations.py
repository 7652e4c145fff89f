import math

import numpy as np
import pytest
from conftest import run_main
from hypothesis import given, strategies as st

from lightclock import (
    GravCompareInput,
    alteration_report,
    altered_light_speed,
    decay_lifetime,
    frequency_compare,
    gamma_gravitational,
    gamma_special,
    gravitational_clock_compare,
    mass_alteration,
    rate_of_change_compare,
    separated_operator_check,
    source_from_mass,
    source_from_r0,
    total_doppler,
    transverse_doppler,
)


class TestGammaSpecial:
    def test_three_four_five(self):
        assert gamma_special(0.6, 1.0) == 0.8

    def test_rest(self):
        assert gamma_special(0.0, 1.0) == 1.0

    def test_extreme(self):
        assert gamma_special(0.99, 1.0) == pytest.approx(0.14106736, abs=5e-9)

    def test_superluminal(self):
        with pytest.raises(ValueError, match="superluminal"):
            gamma_special(2.0, 1.0)


class TestGammaGravitational:
    def test_double_radius(self):
        src = source_from_r0(1.0, c=1.0)
        assert gamma_gravitational(src, 2.0) == pytest.approx(0.7071068, abs=5e-8)

    def test_far_field(self):
        src = source_from_r0(1.0, c=1.0)
        assert gamma_gravitational(src, 1e10) == pytest.approx(1.0, abs=1e-10)

    def test_deep_well(self):
        src = source_from_r0(0.99999, c=1.0)
        assert gamma_gravitational(src, 1.0) == pytest.approx(0.003162278, rel=1e-6)

    def test_inside_rejected(self):
        src = source_from_r0(1.0, c=1.0)
        with pytest.raises(ValueError):
            gamma_gravitational(src, 0.5)


class TestDoppler:
    def test_transverse(self):
        assert transverse_doppler(1e15, 0.8) == 8e14

    def test_transverse_identity(self):
        assert transverse_doppler(4.2e14, 1.0) == 4.2e14

    def test_transverse_product(self):
        assert transverse_doppler(4.57e14, 0.99) == pytest.approx(4.5243e14, rel=1e-12)

    def test_total_reference(self):
        assert total_doppler(1.0, 0.6, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_total_at_rest(self):
        assert total_doppler(2.0, 0.0, 1.0) == 2.0

    def test_total_point_eight(self):
        assert total_doppler(1.0, 0.8, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_factorization(self):
        # receding total effect = emitted-frequency alteration x the
        # classical 1/(1 + v/c) propagation factor
        for v in np.linspace(0.0, 0.99, 250):
            gamma = gamma_special(v, 1.0)
            two_stage = transverse_doppler(1.0, gamma) / (1.0 + v)
            assert abs(total_doppler(1.0, v, 1.0) - two_stage) < 1e-14

    def test_recession_domain(self):
        with pytest.raises(ValueError):
            total_doppler(1.0, -0.5, 1.0)

    @pytest.mark.parametrize("nu_s", [0.0, -1.0])
    def test_total_refuses_a_non_positive_frequency(self, nu_s):
        with pytest.raises(ValueError, match="frequency must be positive"):
            total_doppler(nu_s, 0.5, 1.0)


class TestDecayAndMass:
    def test_muon(self):
        assert decay_lifetime(2.2e-6, 0.8) == 2.75e-6

    def test_decay_identity(self):
        assert decay_lifetime(1.0, 1.0) == 1.0

    def test_decay_tenfold(self):
        assert decay_lifetime(1.0, 0.1) == pytest.approx(10.0, rel=1e-15)

    def test_mass(self):
        assert mass_alteration(1.0, 0.8) == 1.25

    def test_mass_identity(self):
        assert mass_alteration(1.0, 1.0) == 1.0

    def test_electron(self):
        assert mass_alteration(9.109e-31, 0.6) == pytest.approx(1.5182e-30, rel=1e-4)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 5.0])
    @pytest.mark.parametrize("kernel", [decay_lifetime, mass_alteration])
    def test_gamma_outside_the_unit_interval(self, kernel, gamma):
        # the rule transverse_doppler and alteration_report keep
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            kernel(1.0, gamma)

    @pytest.mark.parametrize("gamma", ["-0.5", "0", "5"])
    @pytest.mark.parametrize("effect,rest", [("decay", "--tau-s"), ("mass", "--mass-s")])
    def test_gamma_outside_the_unit_interval_is_one(self, effect, rest, gamma):
        code, out, err = run_main("alter", effect, rest, "1", "--gamma", gamma)
        assert (code, out) == (1, "")
        assert err.startswith(f"domain error: alter {effect}: gamma must lie in (0, 1]")


class TestReport:
    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_reciprocity_exact(self, gamma):
        report = alteration_report(gamma)
        assert report.lifetime_ratio == 1.0 / report.frequency_ratio
        assert report.mass_ratio == 1.0 / report.frequency_ratio
        assert report.frequency_ratio == gamma

    def test_domain(self):
        with pytest.raises(ValueError):
            alteration_report(0.0)
        with pytest.raises(ValueError):
            alteration_report(1.5)


class TestSeparatedOperator:
    def test_exponential(self):
        residual = separated_operator_check(lambda t: math.exp(-t), 0.8, 1.3)
        assert residual < 1e-8

    def test_identity_gamma(self):
        residual = separated_operator_check(lambda t: math.exp(-t), 1.0, 0.7)
        assert residual < 1e-10

    def test_gaussian(self):
        # delta_m = -2*gamma^2*t at t_m = 1, delta_s = delta_m/gamma
        residual = separated_operator_check(lambda t: math.exp(-t * t), 0.5, 1.0)
        assert residual < 1e-6

    def test_power_family(self):
        residual = separated_operator_check(lambda t: t**3, 0.7, 2.0)
        assert residual < 1e-6


class TestClockCompare:
    def test_reference_ratio(self):
        inp = GravCompareInput(r_s=0.99999, r_P=1.0, r_R=100000.0)
        assert gravitational_clock_compare(inp) == pytest.approx(316.2262, abs=1e-3)

    def test_equal_positions(self):
        inp = GravCompareInput(r_s=0.5, r_P=2.0, r_R=2.0)
        assert gravitational_clock_compare(inp) == 1.0

    def test_infinite_far_clock(self):
        inp = GravCompareInput(r_s=0.75, r_P=1.0, r_R=math.inf)
        assert gravitational_clock_compare(inp) == 2.0

    def test_modified_factors(self):
        # with Lambda the two sides use their own constants, in m^-2
        inp = GravCompareInput(
            r_s=0.1, r_P=1.0, r_R=10.0, lambda_P_per_m2=3e-4, lambda_R_per_m2=6e-4,
        )
        gP = 1.0 - 0.1 - 3e-4 / 3.0
        gR = 1.0 - 0.01 - 6e-4 * 100.0 / 3.0
        assert gravitational_clock_compare(inp) == pytest.approx(
            math.sqrt(gR) / math.sqrt(gP), rel=1e-15
        )

    def test_monotone_in_far_radius(self):
        ratios = [
            gravitational_clock_compare(GravCompareInput(r_s=0.9, r_P=1.0, r_R=r))
            for r in np.linspace(1.0, 50.0, 40)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            GravCompareInput(r_s=1.0, r_P=0.5, r_R=2.0)


class TestFrequencyCompare:
    def test_factor_two(self):
        assert frequency_compare(0.25, 1.0, 1e15) == 2e15

    def test_equal_potentials(self):
        assert frequency_compare(0.7, 0.7, 3.3e14) == 3.3e14

    def test_redshift_form(self):
        # deep emitter against a far receiver reproduces
        # nu = sqrt(1 - r_s/r) * nu0 with the roles swapped
        r_s, r = 0.5, 2.0
        g1_P = 1.0 - r_s / r
        nu_P = 1e15
        nu_R = frequency_compare(1.0, g1_P, nu_P)
        assert nu_R == pytest.approx(math.sqrt(1.0 - r_s / r) * nu_P, rel=1e-15)


class TestLightSpeedAndRates:
    def test_quarter(self):
        assert altered_light_speed(0.25, 1.0) == 0.5

    def test_unmodified(self):
        c = 299792458.0
        assert altered_light_speed(1.0, c) == c

    def test_first_order_weak_field(self):
        g1 = 1.0 - 1.3956e-9
        c_s = altered_light_speed(g1, 1.0)
        assert 1.0 - c_s == pytest.approx(6.978e-10, rel=1e-4)

    def test_rate_compare(self):
        assert rate_of_change_compare(0.64, 1.0, 1.0) == 0.8

    def test_equal_rates(self):
        assert rate_of_change_compare(0.3, 0.3, 2.5) == 2.5

    def test_reciprocal_with_clock_compare(self):
        # a rate transported P -> R times the R/P tick ratio returns the
        # original rate
        r_s, r_P, r_R = 0.4, 1.0, 3.0
        inp = GravCompareInput(r_s=r_s, r_P=r_P, r_R=r_R)
        gP, gR = inp.g1(r_P, 0.0), inp.g1(r_R, 0.0)
        rate_R = rate_of_change_compare(gP, gR, 1.0)
        assert rate_R * gravitational_clock_compare(inp) == pytest.approx(1.0, rel=1e-14)


class TestUnification:
    def test_special_equals_gravitational(self):
        src = source_from_mass(0.15, G=1.0, c=1.0)
        for R in (0.5, 1.0, 4.0):
            v_p = math.sqrt(2 * 1.0 * 0.15 / R)
            assert gamma_gravitational(src, R) == gamma_special(v_p, 1.0)

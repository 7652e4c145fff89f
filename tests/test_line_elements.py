import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import run_main
from scipy.integrate import quad

from lightclock import (
    Dual,
    LambdaFactor,
    MetricPoint,
    cosmological_constant_for_horizon,
    gamma_gravitational,
    gamma_special,
    horizon_roots,
    hubble_deceleration,
    infinitesimal_transform,
    linear_interval,
    minkowski_interval,
    modified_schwarzschild_lambda,
    newtonian_first_approx,
    null_radial_speed,
    potential_velocity,
    radar_coordinate_time,
    radial_interval,
    robertson_walker_interval,
    schwarzschild_lambda,
    source_from_mass,
    source_from_r0,
)


class TestLambdaFactor:
    def test_real_mode(self):
        lam = LambdaFactor(v=0.6, d=0.0, c=1.0)
        assert lam.value() == pytest.approx(0.64, rel=1e-15)

    def test_complex_mode(self):
        lam = LambdaFactor(v=0.6, d=0.0, c=1.0, mode="complex")
        assert lam.value() == pytest.approx(1.36, rel=1e-15)

    def test_callable_velocity(self):
        lam = LambdaFactor(v=lambda R, t: 1.0 / math.sqrt(R), c=1.0)
        assert lam.value(R=4.0) == pytest.approx(0.75, rel=1e-15)

    def test_constant_secondary_term(self):
        # quasi form: same potential velocity plus a constant d
        lam = LambdaFactor(v=0.3, d=0.1, c=1.0)
        assert lam.value() == pytest.approx(1 - 0.16, rel=1e-15)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            LambdaFactor(v=0.0, mode="imaginary")


class TestMinkowski:
    def test_null_ray(self):
        c = 299792458.0
        assert minkowski_interval(1.0, c, 0.0, 0.0, c) == 0.0

    def test_comoving(self):
        c = 2.0
        assert minkowski_interval(1.0, 0.0, 0.0, 0.0, c) == 4.0

    def test_mixed(self):
        assert minkowski_interval(2.0, 1.0, 0.0, 0.0, 1.0) == 3.0


class TestRadialInterval:
    def test_unit_lambda_is_minkowski(self):
        lam = LambdaFactor(v=0.0, c=1.0)
        p = MetricPoint(R=2.0, theta=0.5, dt=0.3, dR=0.7, dtheta=0.1, dphi=0.2)
        expected = (
            0.3**2
            - 0.7**2
            - 4.0 * (math.sin(0.5) ** 2 * 0.2**2 + 0.1**2)
        )
        assert radial_interval(lam, p, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_time_coefficient(self):
        lam = LambdaFactor(v=math.sqrt(0.5), c=1.0)
        p = MetricPoint(R=1.0, dt=1.0)
        assert radial_interval(lam, p, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_reciprocal_radial_coefficient(self):
        lam = LambdaFactor(v=math.sqrt(0.5), c=1.0)
        p = MetricPoint(R=1.0, dR=1.0)
        assert radial_interval(lam, p, 1.0) == pytest.approx(-2.0, rel=1e-12)

    def test_singular_surface_named(self):
        lam = LambdaFactor(v=1.0, c=1.0)
        with pytest.raises(ValueError, match="singular surface.*R=5"):
            radial_interval(lam, MetricPoint(R=5.0, dt=1.0), 1.0)


class TestLinearInterval:
    def test_time_term(self):
        lam = LambdaFactor(v=0.6, c=1.0)
        assert linear_interval(lam, 1.0, 0.0, 1.0) == pytest.approx(0.64, rel=1e-15)

    def test_space_term(self):
        lam = LambdaFactor(v=0.6, c=1.0)
        assert linear_interval(lam, 0.0, 1.0, 1.0) == pytest.approx(-1.5625, rel=1e-15)

    def test_rest_is_minkowski(self):
        lam = LambdaFactor(v=0.0, d=0.0, c=1.0)
        assert linear_interval(lam, 1.0, 0.5, 1.0) == 0.75


class TestSchwarzschildLambda:
    def test_double_radius(self):
        src = source_from_r0(1.0, c=1.0)
        assert schwarzschild_lambda(src, 2.0) == 0.5

    def test_asymptotically_flat(self):
        src = source_from_r0(1.0, c=1.0)
        assert schwarzschild_lambda(src, 1e12) == pytest.approx(1.0, abs=1e-11)

    def test_surface_gravity_earth_scale(self):
        # r0 = 0.889 cm at R = 6.37e8 cm: deficit 1 - lambda = 1.3956e-9
        src = source_from_r0(0.889e-2)
        lam = schwarzschild_lambda(src, 6.37e6)
        assert 1.0 - lam == pytest.approx(1.3956e-9, rel=1e-4)

    def test_interior_rejected(self):
        src = source_from_r0(1.0, c=1.0)
        with pytest.raises(ValueError, match="Schwarzschild radius"):
            schwarzschild_lambda(src, 0.5)

    def test_massless_reduction(self):
        src = source_from_mass(0.0, c=1.0)
        for R in (1e-6, 1.0, 1e12):
            assert schwarzschild_lambda(src, R) == 1.0


class TestModifiedLambda:
    def test_massless_uncharged(self):
        src = source_from_mass(0.0, c=1.0)
        assert modified_schwarzschild_lambda(src, 7.3) == 1.0

    def test_reduces_to_schwarzschild(self):
        src = source_from_r0(1.0, c=1.0)
        for R in (1.5, 2.0, 10.0, 1e4):
            assert modified_schwarzschild_lambda(src, R) == schwarzschild_lambda(src, R)

    def test_lambda_unit_conversion(self):
        # s^-2 divides by c^2; cm^-2 scales to m^-2
        c = 3.0
        src_t = source_from_r0(0.0, c=c, Lambda=9.0, lambda_unit="s^-2")
        src_m = source_from_r0(0.0, c=c, Lambda=1.0, lambda_unit="m^-2")
        assert modified_schwarzschild_lambda(src_t, 0.5) == pytest.approx(
            modified_schwarzschild_lambda(src_m, 0.5), rel=1e-15
        )
        src_cm = source_from_r0(0.0, c=c, Lambda=1e-4, lambda_unit="cm^-2")
        assert src_cm.lambda_per_m2 == pytest.approx(1.0, rel=1e-15)

    def test_desitter_horizon(self):
        src = source_from_r0(0.0, c=1.0, Lambda=3e-6, lambda_unit="m^-2")
        roots = horizon_roots(src)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1000.0, rel=1e-12)


class TestHorizonRoots:
    def test_pure_schwarzschild(self):
        src = source_from_r0(1.0, c=1.0)
        assert horizon_roots(src) == [1.0]

    def test_two_roots_against_polynomial_oracle(self):
        src = source_from_r0(1.0, c=1.0, Lambda=3e-6, lambda_unit="m^-2")
        roots = horizon_roots(src)
        assert len(roots) == 2
        oracle = np.roots([1e-6, 0.0, -1.0, 1.0])
        oracle = sorted(r.real for r in oracle if abs(r.imag) < 1e-12 and r.real > 0)
        for got, want in zip(roots, oracle):
            assert got == pytest.approx(want, rel=1e-10)
        for r in roots:
            assert abs(modified_schwarzschild_lambda(src, r)) < 1e-10

    def test_no_horizon_when_mass_too_large(self):
        src = source_from_r0(1000.0, c=1.0, Lambda=3e-6, lambda_unit="m^-2")
        assert horizon_roots(src) == []
        oracle = np.roots([1e-6, 0.0, -1.0, 1000.0])
        assert not [r for r in oracle if abs(r.imag) < 1e-12 and r.real > 0]

    def test_lambda_for_horizon(self):
        # unit-agnostic: cm in, cm^-2 out
        lam_accepted = cosmological_constant_for_horizon(0.889, 6.37e8)
        assert lam_accepted == pytest.approx(7.39e-18, abs=0.005e-18)
        lam_published = cosmological_constant_for_horizon(0.889, 6.67e8)
        # the two radii disagree by far more than the rounding of 7.39e-18
        assert abs(lam_published - 7.39e-18) > 0.5e-18


def exact_root(a, lo, hi):
    """The root of x³/3 − x + a in [lo, hi], whose ends the cubic gives
    opposite signs, bisected in exact rationals until the bracket is
    narrower than a quarter ulp of its low end."""
    a3, lo, hi = 3 * Fraction(a), Fraction(lo), Fraction(hi)

    def positive(x):  # the sign of 3·(x³/3 − x + a)
        return x * (x * x - 3) > -a3

    low, quarter = positive(lo), Fraction(math.ulp(float(lo))) / 4
    assert positive(hi) != low
    for _ in range(math.ceil((hi - lo) / quarter).bit_length()):
        m = (lo + hi) / 2
        if positive(m) == low:
            lo = m
        else:
            hi = m
    return (lo + hi) / 2


def roots_in_x(a):
    """horizon_roots at Λ = 1 m^-2, where r0 = a and each radius is its x."""
    return horizon_roots(source_from_r0(a, c=1.0, Lambda=1.0, lambda_unit="m^-2"))


def uniform(seed, n, lo, hi):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(n)]


def below_two_thirds(n):
    """The n largest floats a whose cubic still has a negative minimum."""
    a, out = 2.0 / 3.0, []
    while len(out) < n:
        if 1.0 / 3.0 - 1.0 + a < 0.0:
            out.append(a)
        a = math.nextafter(a, 0.0)
    return out


class TestHorizonAccuracy:
    """The closed-form roots against exact ones: the inner root lies in
    [a, 1.5a] and the outer in [1, 2], where the cubic changes sign."""

    # the seeded draws crowd (0.6, 0.66) too, where the roots are closest
    WELL_CONDITIONED = [*uniform(27, 40, 0.0, 0.66), *uniform(28, 40, 0.6, 0.66),
                        *(10.0**-k for k in range(300, 1, -9))]

    @pytest.mark.parametrize("a", WELL_CONDITIONED)
    def test_within_three_ulp(self, a):
        inner, outer = roots_in_x(a)
        for got, want in ((inner, exact_root(a, a, 1.5 * a)), (outer, exact_root(a, 1.0, 2.0))):
            assert abs(Fraction(got) - want) <= 3 * Fraction(math.ulp(float(want)))
        assert inner < outer

    @pytest.mark.parametrize("a", below_two_thirds(7))
    def test_next_to_the_double_root(self, a):
        # the roots split as 1 ± √(2/3 − a): a rounding of a moves them by
        # about 1e-8 here, so they hold to 1e-8 relative, and stay ascending
        inner, outer = roots_in_x(a)
        for got, want in ((inner, exact_root(a, a, 1.0)), (outer, exact_root(a, 1.0, 2.0))):
            assert abs(Fraction(got) - want) <= Fraction(1e-8) * want
        assert inner <= outer

    def test_a_subnormal_a_gives_r0_as_the_inner_root(self):
        # a = r0·√Λ = 1e-320: the inner root r0·(1 + a²/3 + …) rounds to r0,
        # where x/√Λ from the few bits a keeps is 1.1e-5 off
        src = source_from_r0(1e-170, c=1.0, Lambda=1e-300, lambda_unit="m^-2")
        assert horizon_roots(src)[0] == 1e-170

    def test_a_zero_minimum_is_one_root_and_a_positive_one_none(self):
        a = math.nextafter(2.0 / 3.0, 1.0)
        assert 1.0 / 3.0 - 1.0 + a == 0.0
        assert roots_in_x(a) == [1.0]
        assert roots_in_x(math.nextafter(a, 1.0)) == []


class TestRobertsonWalker:
    def test_origin(self):
        p = MetricPoint(R=0.0, dt=1.0)
        assert robertson_walker_interval(1.0, p, 1.0) == 1.0

    def test_curvature_factor(self):
        a, c = 1.0, 1.0
        p = MetricPoint(R=c * a / math.sqrt(2.0), dR=1.0)
        assert robertson_walker_interval(a, p, c) == pytest.approx(-2.0, rel=1e-14)

    def test_flat_limit(self):
        c = 1.0
        R = 1.0
        a = 1e9 * R / c
        p = MetricPoint(R=R, dt=1.0, dR=1.0)
        got = robertson_walker_interval(a, p, c)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_singular_radius(self):
        with pytest.raises(ValueError, match="curvature singularity"):
            robertson_walker_interval(1.0, MetricPoint(R=2.0, dR=1.0), 1.0)

    def test_a_ratio_whose_square_overflows_is_singular(self):
        # (R/(c·a))² is inf, not an OverflowError
        with pytest.raises(ValueError, match="curvature singularity"):
            robertson_walker_interval(1e-300, MetricPoint(R=1.0), 1.0)


class TestNewtonianApprox:
    def test_massless(self):
        src = source_from_mass(0.0, c=1.0)
        assert newtonian_first_approx(src, 1.0, 1.0, 0.5, 1.0) == 0.75

    def test_weak_field_time_term(self):
        src = source_from_r0(0.01, c=1.0)
        assert newtonian_first_approx(src, 1.0, 1.0, 0.0, 1.0) == pytest.approx(0.99, rel=1e-15)

    def test_series_remainder(self):
        src = source_from_r0(0.01, c=1.0)
        approx = newtonian_first_approx(src, 1.0, 0.0, 1.0, 1.0)
        exact = -1.0 / 0.99
        assert approx == pytest.approx(-1.01, rel=1e-15)
        assert abs(approx - exact) == pytest.approx(1.0101e-4, rel=1e-2)

    def test_strong_field_warns(self):
        src = source_from_r0(0.5, c=1.0)
        with pytest.warns(UserWarning, match="exceeds 0.1"):
            newtonian_first_approx(src, 1.0, 1.0, 0.0, 1.0)


class TestRadarCoordinateTime:
    def test_closed_form(self):
        src = source_from_r0(1.0, c=1.0)
        assert radar_coordinate_time(src, 2.0, 4.0, 1.0) == pytest.approx(
            2.0 + math.log(3.0), rel=1e-15
        )

    def test_quadrature_oracle(self):
        # flight time is the integral of 1/(c*lambda) over the path
        src = source_from_r0(1.0, c=1.0)
        closed = radar_coordinate_time(src, 2.0, 4.0, 1.0)
        integral, _ = quad(lambda R: 1.0 / schwarzschild_lambda(src, R), 2.0, 4.0)
        assert abs(closed - integral) < 1e-8

    def test_flat_space(self):
        src = source_from_r0(0.0, c=2.0)
        assert radar_coordinate_time(src, 1.0, 5.0, 2.0) == 2.0

    def test_coincident_radii(self):
        src = source_from_r0(1.0, c=1.0)
        assert radar_coordinate_time(src, 3.0, 3.0, 1.0) == 0.0

    def test_domain(self):
        src = source_from_r0(1.0, c=1.0)
        with pytest.raises(ValueError):
            radar_coordinate_time(src, 0.5, 4.0, 1.0)

    def test_null_speed_consistency(self):
        # the integrand above is the reciprocal of the coordinate light speed
        src = source_from_r0(1.0, c=1.0)
        lam = schwarzschild_lambda(src, 3.0)
        assert null_radial_speed(lam, 1.0) == lam


class TestInfinitesimalTransform:
    def test_identity(self):
        assert infinitesimal_transform(1.0, 0.3, 0.7) == (0.3, 0.7)

    def test_time_unit_case(self):
        dRs, dTs = infinitesimal_transform(0.5, 0.0, 1.0)
        assert dRs == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert dTs == 1.0
        assert dTs**2 - dRs**2 == pytest.approx(0.5, rel=1e-12)

    def test_length_unit_case(self):
        dRs, dTs = infinitesimal_transform(0.5, 1.0, 0.0)
        assert dRs == 2.0
        assert dTs == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert dTs**2 - dRs**2 == pytest.approx(-2.0, rel=1e-12)

    def test_cross_term_cancellation(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            eta = rng.uniform(0.05, 1.0)
            dRm, dTm = rng.uniform(-1.0, 1.0, size=2)
            dRs, dTs = infinitesimal_transform(eta, dRm, dTm)
            lhs = dTs * dTs - dRs * dRs
            rhs = eta * dTm * dTm - dRm * dRm / eta
            assert abs(lhs - rhs) < 1e-12

    def test_domain(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                infinitesimal_transform(eta, 0.1, 0.1)

    def test_dual_differentials_pass_through(self):
        dRs, dTs = infinitesimal_transform(0.5, Dual(0.0, 1.0), Dual(1.0, 0.0))
        assert dTs.real == 1.0
        assert dRs.real == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestGammaUnification:
    def test_gravitational_equals_special_at_escape_velocity(self):
        src = source_from_r0(1.0, c=1.0)
        for R in (1.5, 2.0, 7.0, 123.0):
            v_p = potential_velocity(src, R)
            assert gamma_gravitational(src, R) == gamma_special(v_p, src.c)

    def test_double_radius_value(self):
        src = source_from_r0(1.0, c=1.0)
        assert gamma_gravitational(src, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)


class TestHubble:
    def test_coasting(self):
        rates = hubble_deceleration(lambda t: t, 2.0)
        assert rates.H == pytest.approx(0.5, rel=1e-12)
        assert rates.q == pytest.approx(0.0, abs=1e-8)

    def test_exponential(self):
        k = 0.37
        rates = hubble_deceleration(lambda t: (t * k).exp(), 3.0)
        assert rates.H == pytest.approx(k, rel=1e-12)
        assert rates.q == pytest.approx(-1.0, abs=1e-8)

    def test_matter_era(self):
        rates = hubble_deceleration(lambda t: t ** (2.0 / 3.0), 2.0)
        assert rates.H == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rates.q == pytest.approx(0.5, abs=1e-8)

    def test_friedmann_density_check(self):
        G = 6.6743e-11
        t = 2.0
        H = 2.0 / (3.0 * t)
        rho = 3.0 * 0.5 * H * H / (4.0 * math.pi * G)
        rates = hubble_deceleration(lambda tt: tt ** (2.0 / 3.0), t, rho=rho, G=G)
        assert rates.friedmann_residual == pytest.approx(0.0, abs=1e-10)

    def test_vanishing_scale(self):
        with pytest.raises(ValueError, match="vanishes"):
            hubble_deceleration(lambda t: t - 2.0, 2.0)

    @pytest.mark.parametrize("a", [lambda t: 2.0, lambda t: t**0, lambda t: t * 0.0 + 1.0])
    def test_constant_scale_has_no_rate(self, a):
        with pytest.raises(ValueError, match="Hubble rate vanishes"):
            hubble_deceleration(a, 2.0)

    def test_scale_evaluated_once(self):
        seen = []
        hubble_deceleration(lambda t: seen.append(t) or t**0.5, 3.0)
        assert len(seen) == 1

    @pytest.mark.parametrize(
        "argv,printed",
        [
            ("--model linear --t 2", '"H": 0.5,\n  "q": 0.0\n'),
            ("--model powerlaw --exponent 0.5 --t 3", '"q": 1.0\n'),
            ("--model exponential --rate 0.7 --t 3", '"H": 0.7,\n  "q": -1.0\n'),
        ],
    )
    def test_cli_prints_the_exact_q(self, argv, printed):
        code, out, _ = run_main("hubble", *argv.split())
        assert code == 0
        assert printed in out

    @pytest.mark.parametrize("t", [-700.0, -400.0, -370.0, -360.0, 360.0, 700.0])
    def test_q_stays_finite_where_a_times_a2_leaves_the_float_range(self, t):
        # a = a' = a'' = e^t: a·a'' and a'^2 overflow (or underflow) here
        rates = hubble_deceleration(lambda tt: tt.exp(), t)
        assert (rates.H, rates.q) == (1.0, -1.0)

    def test_q_of_a_power_law_past_t_to_the_2p_minus_2_overflowing(self):
        rates = hubble_deceleration(lambda tt: tt**3.0, 1e80)  # t^4 = 1e320
        assert rates.H == pytest.approx(3e-80, rel=1e-15)
        assert rates.q == pytest.approx(-2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "argv,H,q",
        [
            # a central difference for H' printed H = 1.0, q = -1.0 for both,
            # and q = -0.6666666665919018 for the power law
            ("--model exponential --rate 1 --t 360", 1.0, -1.0),
            ("--model exponential --rate 1 --t -400", 1.0, -1.0),
            ("--model powerlaw --exponent 3 --t 1e80", 2.9999999999999997e-80, -2.0 / 3.0),
        ],
    )
    def test_cli_q_far_from_t_equal_one(self, argv, H, q):
        code, out, _ = run_main("hubble", *argv.split())
        assert code == 0
        out = json.loads(out)
        assert out["H"] == pytest.approx(H, rel=1e-15)
        assert out["q"] == pytest.approx(q, rel=1e-15)

    def test_a_second_derivative_past_the_float_range_is_refused(self):
        # a = e^700 and a' = 1e3·a are finite, a'' = 1e6·a is not
        with pytest.raises(ValueError, match="must be finite"):
            hubble_deceleration(lambda tt: (tt * 1e3).exp(), 0.7)

    @pytest.mark.parametrize(
        "a,t",
        [
            (lambda tt: tt**0.5, 1e250),  # a'' = -t^-1.5/4 underflows to 0; q is 1
            (lambda tt: tt**-0.9, 1e125),  # a'' underflows; q is -2.11
            (lambda tt: (tt * 1e-160).exp(), 1.0),  # a'' = 1e-320 keeps 4 digits
            (lambda tt: tt**-2.5, 1e92),  # a' is subnormal
            (lambda tt: tt.exp(), -720.0),  # a itself is subnormal
        ],
    )
    def test_a_part_below_the_normal_floats_is_refused_not_read_as_zero(self, a, t):
        with pytest.raises(ValueError, match="below the normal float range"):
            hubble_deceleration(a, t)

    def test_a_zero_second_derivative_is_read_where_a2_over_a_is_normal(self):
        rates = hubble_deceleration(lambda tt: tt, 1e300)
        assert (rates.H, rates.q) == (1e-300, 0.0)

    def test_cli_names_t_when_a_second_derivative_underflows(self):
        code, out, err = run_main("hubble", "--model", "powerlaw", "--exponent", "0.5",
                                  "--t", "1e250")
        assert code == 1
        assert out == ""
        assert err.startswith("domain error: hubble powerlaw: ") and "t=1e+250" in err

import math

import numpy as np
import pytest

from lightclock import (
    UNBOUNDED,
    MetricPoint,
    black_hole_interval,
    damping_factor,
    middle_branch,
    partial_interval,
    photon_families,
    schwarzschild_lambda,
    source_from_r0,
    transformed_radial_interval,
    transition_profile,
    transition_profile_prime,
)

KS = (1e-3, 1.0, 1e3)


class TestProfileValues:
    def test_inner_junction_both_branches(self):
        for k in KS:
            left = transition_profile(0.0, k)  # hyperbola branch
            right = middle_branch(0.0, k)  # cubic branch limit
            assert left == -1.0 / k
            assert right == -1.0 / k

    def test_outer_junction_and_beyond(self):
        for k in KS:
            assert transition_profile(2.0 * k, k) == pytest.approx(0.0, abs=1e-12 * max(1.0, 2.0 / k))
            assert transition_profile(3.0 * k, k) == 0.0

    def test_unit_k_midpoint(self):
        assert transition_profile(1.0, 1.0) == -0.75

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3.0, 3.0, 41)
        vec = transition_profile(xs, 1.0)
        assert np.allclose(vec, [transition_profile(float(x), 1.0) for x in xs], rtol=0, atol=0)


class TestProfileDerivative:
    def test_inner_junction(self):
        for k in KS:
            assert transition_profile_prime(0.0, k) == -1.0 / (k * k)
            just_right = transition_profile_prime(1e-9 * k, k)
            assert just_right == pytest.approx(-1.0 / (k * k), rel=1e-6)

    def test_outer_junction(self):
        for k in KS:
            scale = 1.0 / (k * k)
            assert abs(transition_profile_prime(2.0 * k, k)) <= 1e-12 * scale
            assert transition_profile_prime(2.0 * k + 1e-9 * k, k) == 0.0

    def test_hyperbola_point(self):
        k = 2.0
        assert transition_profile_prime(-k, k) == -1.0 / (4.0 * k * k)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for k in KS:
            h = 1e-7 * k
            for x in rng.uniform(-10.0 * k, 10.0 * k, size=200):
                x = float(x)
                if min(abs(x), abs(x - 2.0 * k)) < 10.0 * h:
                    continue  # handled by the junction checks
                fd = (transition_profile(x + h, k) - transition_profile(x - h, k)) / (2.0 * h)
                an = transition_profile_prime(x, k)
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-8 / (k * k))

    def test_junction_one_sided_differences(self):
        # C1: one-sided slopes from both sides agree within 1e-5
        for k in KS:
            h = 1e-7 * k
            for x0, expected in ((0.0, -1.0 / (k * k)), (2.0 * k, 0.0)):
                left = (transition_profile(x0, k) - transition_profile(x0 - h, k)) / h
                right = (transition_profile(x0 + h, k) - transition_profile(x0, k)) / h
                assert left == pytest.approx(expected, rel=1e-5, abs=1e-5 / (k * k))
                assert right == pytest.approx(expected, rel=1e-5, abs=1e-5 / (k * k))


class TestProfileBound:
    @pytest.mark.parametrize("k", KS)
    def test_global_bound(self, k):
        xs = np.linspace(-10.0 * k, 10.0 * k, 1_000_000)
        vals = transition_profile(xs, k)
        assert float(np.max(np.abs(vals))) <= 2.0 / k


class TestDampingFactor:
    def test_exterior(self):
        src = source_from_r0(1.0, c=1.0)
        assert damping_factor(2.0, src) == 0.0

    def test_interior(self):
        src = source_from_r0(1.0, c=1.0)
        # lambda(0.5) = 1 - 1/0.5 = -1
        assert damping_factor(0.5, src) == -1.0

    def test_surface_sentinel(self):
        src = source_from_r0(1.0, c=1.0)
        assert damping_factor(1.0, src) is UNBOUNDED
        assert repr(UNBOUNDED) == "unbounded"


class TestBlackHoleInterval:
    def test_no_radial_square_term(self):
        assert black_hole_interval(-1.0, 0.0, 1.0, 2.0, math.pi / 2, 0.0, 0.0, 1.0) == 0.0

    def test_time_term(self):
        assert black_hole_interval(-1.0, 1.0, 0.0, 2.0, math.pi / 2, 0.0, 0.0, 1.0) == -1.0

    def test_null_radial_families(self):
        # the null condition factorizes into the dU = 0 family and the
        # dR/dU = c*lambda/2 family
        lam, c = -0.8, 1.0
        ingoing = black_hole_interval(lam, 0.0, 1.0, 3.0, math.pi / 2, 0.0, 0.0, c)
        assert ingoing == 0.0
        dU = 1.0
        outgoing = black_hole_interval(
            lam, dU, (c * lam / 2.0) * dU, 3.0, math.pi / 2, 0.0, 0.0, c
        )
        assert outgoing == pytest.approx(0.0, abs=1e-15)


class TestAssembledInterval:
    def test_exterior_bit_identical(self):
        # damping is identically zero outside, so the assembled value equals
        # the plain exterior radial form bit for bit (formula spelled out
        # rather than shared with the implementation)
        src = source_from_r0(1.0, c=1.0)
        c = 1.0
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = MetricPoint(
                R=float(rng.uniform(1.001, 50.0)),
                theta=float(rng.uniform(0.1, 3.0)),
                dt=float(rng.uniform(-1, 1)),
                dR=float(rng.uniform(-1, 1)),
                dtheta=float(rng.uniform(-1, 1)),
                dphi=float(rng.uniform(-1, 1)),
            )
            lam = schwarzschild_lambda(src, p.R)
            angular = (p.R * p.R) * (
                math.sin(p.theta) ** 2 * p.dphi * p.dphi + p.dtheta * p.dtheta
            )
            expected = lam * (c * p.dt) * (c * p.dt) - (p.dR * p.dR) / lam - angular
            assert transformed_radial_interval(src, p) == expected

    def test_interior_matches_untransformed_radial_form(self):
        # substituting dU = dt + dR/(c*lambda) back into the assembled form
        # reproduces lambda (c dt)^2 - dR^2/lambda
        rng = np.random.default_rng(29)
        src = source_from_r0(1.0, c=1.0)
        for _ in range(300):
            R = float(rng.uniform(0.05, 0.95))
            lam = 1.0 - 1.0 / R
            dt, dR = rng.uniform(-1, 1, size=2)
            dU = dt + dR / (1.0 * lam)
            got = black_hole_interval(lam, dU, dR, R, math.pi / 2, 0.0, 0.0, 1.0)
            want = lam * dt * dt - dR * dR / lam
            assert abs(got - want) < 1e-12


class TestPartialIntervals:
    def test_exterior_branch(self):
        k = 0.3
        lam = 2.0 * k + 1.0
        res = partial_interval(lam, k, 1.0, 0.5, 1.0)
        assert res.branch == "exterior"
        assert res.value == pytest.approx((lam - k) - 0.25 / (lam - k), rel=1e-15)

    def test_interior_branch_coefficient(self):
        res = partial_interval(-1.0, 0.1, 1.0, 0.0, 1.0)
        assert res.branch == "interior"
        assert res.value == pytest.approx(-1.1, rel=1e-15)

    def test_singular_point(self):
        with pytest.raises(ValueError, match="transition singularity at lambda=k"):
            partial_interval(0.1, 0.1, 1.0, 1.0, 1.0)

    def test_transition_branch_uses_middle_branch(self):
        k, lam, dt, dR, c = 0.2, 0.3, 0.7, 0.4, 1.0
        g = middle_branch(lam, k)
        shifted = dt - g * dR / c
        want = (lam - k) * (c * shifted) ** 2 - dR * dR / (lam - k)
        res = partial_interval(lam, k, dt, dR, c)
        assert res.branch == "transition"
        assert res.value == pytest.approx(want, rel=1e-15)

    def test_continuity_at_zone_edges(self):
        k, dt, dR, c = 0.25, 0.8, 0.3, 1.0
        eps = 1e-9
        inner = partial_interval(-eps, k, dt, dR, c).value
        trans_low = partial_interval(eps, k, dt, dR, c).value
        assert inner == pytest.approx(trans_low, abs=1e-6)
        trans_high = partial_interval(2.0 * k - eps, k, dt, dR, c).value
        outer = partial_interval(2.0 * k + eps, k, dt, dR, c).value
        assert trans_high == pytest.approx(outer, abs=1e-6)


class TestPhotonFamilies:
    def test_stationary_family(self):
        assert photon_families(0.1, 0.1, 1.0) == (0.0, -0.0)

    def test_zone_edge(self):
        k, c = 0.4, 2.0
        assert photon_families(2.0 * k, k, c) == (c * k, -c * k)

    def test_interior_fan(self):
        plus, minus = photon_families(0.3, 0.2, 1.0)
        assert plus == pytest.approx(0.1, rel=1e-12)
        assert minus == pytest.approx(-0.1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            photon_families(0.5, 0.2, 1.0)
        with pytest.raises(ValueError):
            photon_families(0.0, 0.2, 1.0)

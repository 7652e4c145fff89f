import math
import tracemalloc
import warnings

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
from lightclock.transition import _BLOCK as B

KS = (1e-3, 1.0, 1e3)
PROFILES = (transition_profile, transition_profile_prime)


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


    @pytest.mark.parametrize("k", KS + (0.3,))
    def test_float_and_array_paths_agree_bitwise(self, k):
        # either side of each junction, inside each branch, and seeded points
        # across the cubic, where numpy's x**3 and libm's pow can differ
        points = [
            p
            for x in (0.0, k, 2.0 * k)
            for p in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
        ] + [-k, 0.5 * k, 1.5 * k, 3.0 * k]
        points += np.random.default_rng(41).uniform(0.0, 2.0 * k, 200).tolist()
        points.append(math.nan)
        for fn in (transition_profile, transition_profile_prime):
            array = fn(np.array(points), k)
            assert math.isnan(array[-1])  # a NaN x gives NaN, not the 0.0 beyond 2k
            for x, expected in zip(points, array):
                for arg in (x, np.float64(x), np.array(x)):
                    value = fn(arg, k)
                    assert type(value) is float
                    assert value.hex() == float(expected).hex()


    @pytest.mark.parametrize("k", [1e200, 1e300])
    def test_wide_bridge_stays_finite(self, k):
        # Horner's rule in x/k: no power of k overflows inside the cubic
        assert middle_branch(2.0 * k, k) == 0.0
        for x in (0.5 * k, k, 1.5 * k, 2.0 * k):
            assert math.isfinite(transition_profile(x, k))
            assert math.isfinite(transition_profile_prime(x, k))


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


class TestArrayBlocks:
    """An array is evaluated in blocks of B points into one new output."""

    @staticmethod
    def scalar_hex(fn, values, k):
        return [fn(x, k).hex() for x in values.ravel().tolist()]

    @pytest.mark.parametrize("fn", PROFILES)
    @pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_each_element_keeps_the_scalar_bits(self, fn, size):
        k = 0.37
        base = np.random.default_rng(size).uniform(-3.0 * k, 3.0 * k, size)
        expected = self.scalar_hex(fn, base, k)
        ends = sorted({i for start in range(0, size, B) for i in (start, min(start + B, size) - 1)})
        for edge in (0.0, -0.0, k, 2.0 * k, math.nextafter(2.0 * k, math.inf), math.nan):
            x = base.copy()
            x[ends] = edge
            for i in ends:
                expected[i] = fn(edge, k).hex()
            before = x.tobytes()
            out = fn(x, k)
            assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
            assert not np.shares_memory(out, x)
            assert [v.hex() for v in out.tolist()] == expected
            assert x.tobytes() == before

    @pytest.mark.parametrize("fn", PROFILES)
    @pytest.mark.parametrize("layout", ["0-d", "C", "Fortran", "strided"])
    def test_every_layout_keeps_the_scalar_bits(self, fn, layout):
        k = 0.37
        base = np.random.default_rng(7).uniform(-3.0 * k, 3.0 * k, 3 * B + 7)
        x = {
            "0-d": np.array(base[0]),
            "C": base[:3 * B].reshape(3, B)[:, :B // 2 + 5].copy(),
            "Fortran": np.asfortranarray(base[:3 * B].reshape(6, B // 2)),
            "strided": base[::-2],
        }[layout]
        before = x.copy()
        out = fn(x, k)
        assert np.array_equal(x, before)
        if layout == "0-d":
            assert type(out) is float and out.hex() == fn(float(x), k).hex()
        else:
            assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
            assert [v.hex() for v in out.ravel().tolist()] == self.scalar_hex(fn, x, k)

    def test_peak_memory_is_the_output_and_one_block(self):
        x = np.linspace(-3.0, 3.0, 1_000_000)
        tracemalloc.start()
        try:
            out = transition_profile(x, 0.37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

    def test_an_overflow_warns_once_per_block_and_once_by_default(self):
        # (x - k)² overflows at x = -1e300 in each of 3 blocks
        x = np.full(3 * B, -1e300)
        for action, count in (("always", 3), ("default", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert (transition_profile_prime(x, 0.37) == 0.0).all()
            assert [str(w.message) for w in caught] == ["overflow encountered in multiply"] * count


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


class TestTransformedIntervalInterior:
    """On and inside r0 the interior form applies, with p.dt read as dU."""

    @staticmethod
    def interior(lam, p, c):
        angular = (p.R * p.R) * (math.sin(p.theta) ** 2 * p.dphi * p.dphi + p.dtheta * p.dtheta)
        return lam * (c * p.dt) * (c * p.dt) - 2.0 * c * p.dt * p.dR - angular

    @pytest.mark.parametrize("R", [0.25, 0.5, 0.999])
    def test_inside(self, R):
        src = source_from_r0(1.0, c=2.0)
        p = MetricPoint(R=R, theta=1.1, dt=0.3, dR=-0.7, dtheta=0.2, dphi=0.4)
        lam = 1.0 - 1.0 / R
        assert lam < 0.0
        assert transformed_radial_interval(src, p) == self.interior(lam, p, 2.0)

    def test_on_the_surface(self):
        # lambda = 0: only the cross term and the angular term remain
        src = source_from_r0(1.0, c=2.0)
        p = MetricPoint(R=1.0, dt=0.3, dR=-0.7, dphi=0.4)
        assert transformed_radial_interval(src, p) == self.interior(0.0, p, 2.0)
        assert transformed_radial_interval(src, p) == -2.0 * 2.0 * 0.3 * -0.7 - 1.0 * 0.4 * 0.4

    @pytest.mark.parametrize("R", [-1.0, 0.0])
    def test_a_radius_that_is_not_positive_is_refused(self, R):
        # R = -1 gave 1.0 and R = 0 a ZeroDivisionError, where damping_factor refuses both
        src = source_from_r0(1.0, c=1.0)
        with pytest.raises(ValueError, match="R must be positive"):
            transformed_radial_interval(src, MetricPoint(R=R, dt=1.0, dR=0.5))

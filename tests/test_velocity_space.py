import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lightclock import (
    SPEED_OF_LIGHT,
    Event4,
    VelocityTriangle,
    beta_gamma,
    compose_einstein,
    einstein_measures,
    gamma_special,
    interval,
    lorentz_transform,
    minkowski_interval,
    record_from_rapidity,
    solve_triangle,
    triangle_to_einstein,
)


class TestBetaGamma:
    def test_three_four_five(self):
        bg = beta_gamma(0.6, 1.0)
        assert bg.beta == 1.25
        assert bg.gamma == 0.8

    def test_rest(self):
        bg = beta_gamma(0.0, 1.0)
        assert bg.beta == 1.0 and bg.gamma == 1.0

    def test_point_eight(self):
        bg = beta_gamma(0.8, 1.0)
        assert bg.gamma == pytest.approx(0.6, rel=1e-15)
        assert bg.beta == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_superluminal(self):
        with pytest.raises(ValueError, match="superluminal"):
            beta_gamma(1.0, 1.0)

    def test_product_is_unity(self):
        for v in (0.0, 0.1, 0.6, 0.99, -0.73):
            bg = beta_gamma(v, 1.0)
            assert bg.beta * bg.gamma == pytest.approx(1.0, rel=1e-15)


class TestGammaAccuracy:
    """γ = sqrt(1 − v²/c²) stays within 2 ulps of a 60-digit decimal oracle
    however close |v| comes to c, where 1 − (v/c)² cancels."""

    @pytest.mark.parametrize("draw_c", [
        lambda rng: 1.0,
        lambda rng: SPEED_OF_LIGHT,
        lambda rng: 10.0 ** rng.uniform(-3.0, 9.0),
    ], ids=["c-1", "c-SI", "c-log-uniform"])
    def test_within_two_ulps_of_a_decimal_oracle(self, draw_c):
        rng = random.Random(20_000)
        worst = (0.0, None)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for _ in range(6_667):
                c = draw_c(rng)
                # |v|/c from 0 to 1 − 1e-16, log-uniform in its distance from 1
                v = rng.choice((-1.0, 1.0)) * c * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0))
                if abs(v) >= c:
                    continue
                exact = (1 - (Decimal(v) / Decimal(c)) ** 2).sqrt()
                got = gamma_special(v, c)
                ulps = float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))
                worst = max(worst, (ulps, (v, c)), key=lambda w: w[0])
        assert worst[0] <= 2.0, worst

    def test_an_infinite_c_gives_one(self):
        assert gamma_special(0.5, math.inf) == 1.0


class TestCompose:
    def test_half_half(self):
        assert compose_einstein(0.5, 0.5, 1.0) == 0.8

    def test_identity_element(self):
        for v in (0.0, 0.3, -0.7, 0.999):
            assert compose_einstein(v, 0.0, 1.0) == v

    def test_point_nine_twice(self):
        assert compose_einstein(0.9, 0.9, 1.0) == pytest.approx(180.0 / 181.0, rel=1e-15)

    def test_rapidity_homomorphism(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b = rng.uniform(0.0, 3.0, size=2)
            lhs = compose_einstein(math.tanh(a), math.tanh(b), 1.0)
            assert lhs == pytest.approx(math.tanh(a + b), rel=1e-12)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-0.99, max_value=0.99),
    )
    def test_associative_and_commutative(self, v1, v2, v3):
        assert compose_einstein(v1, v2, 1.0) == compose_einstein(v2, v1, 1.0)
        left = compose_einstein(compose_einstein(v1, v2, 1.0), v3, 1.0)
        right = compose_einstein(v1, compose_einstein(v2, v3, 1.0), 1.0)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


class TestSolveTriangle:
    def test_collinear_rapidity_additivity(self):
        w = math.log(2.0)
        tri = solve_triangle(w, w, 2.0 * w, 1.0)
        assert tri.theta == 0.0
        assert tri.phi == math.pi
        assert tri.p1 == pytest.approx(w, rel=1e-12)
        assert tri.p2 == pytest.approx(w, rel=1e-12)

    def test_comoving_third_body(self):
        tri = solve_triangle(1.0, 0.0, 1.0, 1.0)
        assert tri.theta == 0.0
        assert tri.phi == math.pi / 2.0
        assert tri.p1 == 1.0 and tri.p2 == 0.0 and tri.n == 0.0

    def test_a_resting_apex_on_either_branch(self):
        # omega1 = 0 with omega2 = omega3 = w is collinear, but cos(phi) may round
        # above -1, and then the general branch runs with its sinh rule skipped
        assert solve_triangle(0.0, 0.19044989552071387, 0.19044989552071387, 1.0).phi < math.pi
        rng = random.Random("solve_triangle omega1 = 0")
        ws = [rng.uniform(0.01, 2.0) for _ in range(200)]
        tris = [solve_triangle(0.0, w, w, 1.0) for w in ws]
        assert all(t.theta == t.p1 == 0.0 for t in tris)
        assert any(t.phi < math.pi for t in tris)

    def test_equilateral_projections(self):
        tri = solve_triangle(1.0, 1.0, 1.0, 1.0)
        assert tri.p1 + tri.p2 == pytest.approx(1.0, rel=1e-12)
        assert tri.p1 == pytest.approx(0.5, rel=1e-12)
        assert math.pi / 2 <= tri.phi <= math.pi
        assert 0 <= tri.theta <= math.pi / 2

    def test_equilateral_euclidean_limit(self):
        # interior angle tends to 60 degrees as the speeds shrink
        dev_coarse = abs(solve_triangle(1e-2, 1e-2, 1e-2, 1.0).theta - math.pi / 3)
        dev_fine = abs(solve_triangle(1e-3, 1e-3, 1e-3, 1.0).theta - math.pi / 3)
        assert dev_fine < 1e-6
        assert dev_fine < dev_coarse / 50.0

    def test_too_fast_apex_rejected(self):
        with pytest.raises(ValueError, match="degenerate velocity triangle"):
            solve_triangle(0.5, 0.1, 0.1, 1.0)

    def test_too_slow_apex_rejected(self):
        with pytest.raises(ValueError, match="degenerate velocity triangle"):
            solve_triangle(0.1, 2.0, 4.0, 1.0)

    def test_an_apex_past_the_sinh_rule_rejected(self):
        # the cosine law admits phi, but the sinh rule gives sin(theta) > 1
        with pytest.raises(ValueError, match="^degenerate velocity triangle$"):
            solve_triangle(1.7091755307199946e-05, 1.7091758709035833e-05,
                           9.157968100341977e-10, 1.0)


class TestTriangleEinstein:
    def test_equilateral_residuals(self):
        tri = solve_triangle(0.5, 0.5, 0.5, 1.0)
        e = triangle_to_einstein(tri)
        assert abs(e.residual_projection) < 1e-12
        assert abs(e.residual_beta) < 1e-12
        assert abs(e.residual_normal) < 1e-12

    def test_collinear_is_composition(self):
        w2, w3 = 0.4, 1.1
        tri = solve_triangle(w3 - w2, w2, w3, 1.0)
        e = triangle_to_einstein(tri)
        # apex velocity composes with the second body's to give the third's
        assert compose_einstein(e.v1, e.v2, 1.0) == pytest.approx(e.v3, rel=1e-12)

    def test_absent_third_body(self):
        tri = solve_triangle(0.8, 0.0, 0.8, 1.0)
        e = triangle_to_einstein(tri)
        assert e.v1 == e.v3
        b1 = 1.0 / math.sqrt(1.0 - e.v1**2)
        b3 = 1.0 / math.sqrt(1.0 - e.v3**2)
        assert b1 == b3

    def test_random_triangles_satisfy_identities(self):
        # admissible triangles generated from the altitude decomposition:
        # projections p1, p2 and normal n pin all three speeds and angles
        rng = np.random.default_rng(3)
        for _ in range(300):
            p1, p2, n = rng.uniform(0.01, 2.0, size=3)
            w1 = math.acosh(math.cosh(p1) * math.cosh(n))
            w2 = math.acosh(math.cosh(p2) * math.cosh(n))
            w3 = p1 + p2
            theta = math.acos(math.tanh(p1) / math.tanh(w1))
            phi = math.pi - math.acos(math.tanh(p2) / math.tanh(w2))
            tri = solve_triangle(w1, w2, w3, 1.0)
            assert tri.theta == pytest.approx(theta, rel=1e-9, abs=1e-9)
            assert tri.phi == pytest.approx(phi, rel=1e-9, abs=1e-9)
            assert tri.p1 == pytest.approx(p1, rel=1e-9, abs=1e-9)
            assert tri.p2 == pytest.approx(p2, rel=1e-9, abs=1e-9)
            assert tri.n == pytest.approx(n, rel=1e-9, abs=1e-9)
            e = triangle_to_einstein(tri)  # raises above 1e-9; assert tighter
            assert abs(e.residual_projection) < 1e-11
            assert abs(e.residual_beta) < 1e-11
            assert abs(e.residual_normal) < 1e-11

    def test_a_triangle_that_breaks_the_identities_rejected(self):
        tri = VelocityTriangle(0.5, 0.5, 1.0, 0.3, 2.0, 0.5, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="^triangle identity violation$"):
            triangle_to_einstein(tri)

    def test_obtuse_observer_angle_rejected(self):
        # foot of the altitude beyond the observer: cosine law admits it but
        # the projection domain does not
        p1, p2, n = -0.3, 0.6, 0.9
        w1 = math.acosh(math.cosh(p1) * math.cosh(n))
        w2 = math.acosh(math.cosh(p2) * math.cosh(n))
        w3 = p1 + p2
        with pytest.raises(ValueError, match="degenerate velocity triangle"):
            solve_triangle(w1, w2, w3, 1.0)


class TestLorentz:
    def test_zero_velocity_identity(self):
        e = Event4(t=1.2, x=-0.3, y=0.5, z=2.0)
        assert lorentz_transform(e, 0.0, 1.0) == e

    def test_reference_boost(self):
        out = lorentz_transform(Event4(t=0.0, x=1.0), 0.6, 1.0)
        assert out.t == -0.75
        assert out.x == 1.25
        assert out.y == 0.0 and out.z == 0.0

    def test_null_event_stays_null(self):
        c = 1.0
        e = Event4(t=1.0, x=1.0)
        out = lorentz_transform(e, 0.6, c)
        assert interval(out, c) == pytest.approx(0.0, abs=1e-15)

    def test_interval_invariance(self):
        rng = np.random.default_rng(5)
        c = 1.0
        for _ in range(1000):
            e = Event4(*rng.uniform(-10, 10, size=4))
            v3 = rng.uniform(-0.99, 0.99) * c
            out = lorentz_transform(e, v3, c)
            scale = max(1.0, (c * e.t) ** 2 + e.x**2 + e.y**2 + e.z**2)
            assert abs(interval(out, c) - interval(e, c)) <= 1e-10 * scale

    def test_radar_coordinate_scaling(self):
        # boosting an event multiplies its retarded/advanced radar
        # coordinates by e^{omega/c} and e^{-omega/c}
        rng = np.random.default_rng(9)
        c = 1.0
        for _ in range(500):
            omega = rng.uniform(0.0, 3.0)
            v3 = c * math.tanh(omega / c)
            e = Event4(t=rng.uniform(0.1, 5.0), x=rng.uniform(-4, 4))
            out = lorentz_transform(e, v3, c)
            k = math.exp(omega / c)
            u_in, w_in = e.t - e.x / c, e.t + e.x / c
            u_out, w_out = out.t - out.x / c, out.t + out.x / c
            assert u_out == pytest.approx(k * u_in, rel=1e-10, abs=1e-10)
            assert w_out == pytest.approx(w_in / k, rel=1e-10, abs=1e-10)

    def test_radar_record_pipeline(self):
        # a radar record's split times are the event's radar coordinates,
        # so the boost acts on them as pure rescalings
        c = 1.0
        omega = 0.8
        rec = record_from_rapidity(omega, c, 2.0)
        m = einstein_measures(rec, c)
        event = Event4(t=m.t_E, x=m.r_E)
        assert event.t - event.x / c == pytest.approx(rec.t1, rel=1e-12)
        assert event.t + event.x / c == pytest.approx(rec.t3, rel=1e-12)
        out = lorentz_transform(event, c * math.tanh(omega / c), c)
        k = math.exp(omega / c)
        assert out.t - out.x / c == pytest.approx(k * rec.t1, rel=1e-10)
        assert out.t + out.x / c == pytest.approx(rec.t3 / k, rel=1e-10)

    def test_superluminal(self):
        with pytest.raises(ValueError, match="superluminal"):
            lorentz_transform(Event4(t=0, x=0), 2.0, 1.0)

    @pytest.mark.parametrize(
        "event,value",
        [(Event4(t=1.0, x=1.0, y=1e200, z=1e200), -math.inf), (Event4(t=1e200, x=0.0), math.inf)],
    )
    def test_interval_past_the_float_range_is_infinite(self, event, value):
        # squares as products: inf where a float power raises OverflowError
        assert interval(event, 1.0) == value

    @pytest.mark.parametrize(
        "flat",
        [lambda t, x, y, z: interval(Event4(t, x, y, z), 1.0),
         lambda t, x, y, z: minkowski_interval(t, x, y, z, 1.0)],
        ids=["interval", "minkowski_interval"],
    )
    def test_interval_near_the_light_cone(self, flat):
        # both copies of the flat interval, against exact rationals, where
        # |ct − x| ≈ 1e-6·x: a difference of rounded squares is off by up to
        # 1e10 ulps there, (ct − x)(ct + x) − y² − z² by a few dozen
        rng = random.Random(7)
        for _ in range(2000):
            x = rng.uniform(0.1, 10.0)
            t = x * (1.0 + rng.uniform(-1e-6, 1e-6))
            y, z = (rng.uniform(-1e-4, 1e-4) * x for _ in "yz")
            exact = sum(sign * Fraction(v) ** 2 for sign, v in zip((1, -1, -1, -1), (t, x, y, z)))
            assert abs(Fraction(flat(t, x, y, z)) - exact) <= 64 * math.ulp(float(exact))

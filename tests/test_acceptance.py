"""Acceptance suite: every criterion in one test, each at its pinned
tolerance, printing one pass/fail line per criterion (run with -s to see
the lines on success)."""

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import run_python
from scipy.integrate import quad

import lightclock as lc

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    else:
        print(f"criterion {number:02d} {label}: PASS")


def test_01_gravitational_clock_comparison():
    with criterion(1, "gravitational clock comparison reproduces 316.2262"):
        inp = lc.GravCompareInput(r_s=0.99999, r_P=1.0, r_R=1e5)
        ratio = lc.gravitational_clock_compare(inp)
        assert abs(ratio - 316.2262) <= 1e-3


def test_02_count_diagram():
    with criterion(2, "two-pulse count diagram yields t_E=70, r_E=10, v_E=c/7"):
        spec = lc.LightClockSpec(round_trip_length_L=1.0, light_speed_c=1.0)
        m = lc.einstein_from_count_diagram(
            spec, (20, 40, 60), (80, 110, 140), tol=0.0
        )
        assert m.t_E_counts == 70.0
        assert m.r_E_counts == 10.0
        assert m.v_E == 1.0 / 7.0
        with pytest.raises(ValueError):
            lc.einstein_from_count_diagram(spec, (20, 40, 61), (80, 110, 140))


def test_03_lorentz_pipeline():
    with criterion(3, "triangle-built boosts preserve the interval and match the direct form"):
        rng = np.random.default_rng(101)
        c = 1.0
        for _ in range(1000):
            omega3 = rng.uniform(0.0, 3.0)
            # build an admissible triangle around omega3 and read v3 off it
            if omega3 > 1e-12:
                p1 = rng.uniform(0.0, omega3)
                n = rng.uniform(0.0, 2.0)
                w1 = math.acosh(math.cosh(p1) * math.cosh(n))
                w2 = math.acosh(math.cosh(omega3 - p1) * math.cosh(n))
                tri = lc.solve_triangle(w1, w2, omega3, c)
                v3 = lc.triangle_to_einstein(tri).v3
            else:
                v3 = c * math.tanh(omega3 / c)
            event = lc.Event4(*rng.uniform(-5.0, 5.0, size=4))
            moved = lc.lorentz_transform(event, v3, c)
            scale = max(1.0, (c * event.t) ** 2 + event.x**2 + event.y**2 + event.z**2)
            assert abs(lc.interval(moved, c) - lc.interval(event, c)) <= 1e-10 * scale
            # direct boost through the rapidity (cosh/sinh) route
            ch, sh = math.cosh(omega3), math.sinh(omega3)
            assert abs(moved.t - (ch * event.t - sh * event.x / c)) <= 1e-12 * max(1.0, abs(moved.t))
            assert abs(moved.x - (ch * event.x - sh * c * event.t)) <= 1e-12 * max(1.0, abs(moved.x))


def test_04_geometric_mean_law():
    with criterion(4, "round trips satisfy t2 = sqrt(t1*t3); integral matches c*ln(t2/t1)"):
        c = 1.0
        sc = lc.PropagationScenario(lambda t: c, t1=1.0, a=0.05, b=500.0, c=c)
        rng = np.random.default_rng(103)
        for _ in range(100):
            omega = rng.uniform(0.0, 3.0)
            t1 = rng.uniform(0.1, 10.0)
            rec = lc.roundtrip(sc, omega, t1)
            assert abs(rec.t2 - math.sqrt(rec.t1 * rec.t3)) <= 5e-15 * rec.t2
            res = lc.medium_velocity(sc, rec.t1, rec.t2)
            assert abs(res.omega - c * math.log(rec.t2 / rec.t1)) <= 1e-10


def test_05_composition_law():
    with criterion(5, "velocity composition equals tanh addition; (0.5c, 0.5c) -> 0.8c"):
        assert lc.compose_einstein(0.5, 0.5, 1.0) == 0.8
        rng = np.random.default_rng(105)
        for _ in range(1000):
            a, b = rng.uniform(0.0, 3.0, size=2)
            got = lc.compose_einstein(math.tanh(a), math.tanh(b), 1.0)
            assert abs(got - math.tanh(a + b)) <= 1e-12


def test_06_invariance_identity():
    with criterion(6, "clock transformation cancels the cross term"):
        rng = np.random.default_rng(106)
        for _ in range(1000):
            eta = rng.uniform(0.05, 1.0)
            dRm, dTm = rng.uniform(-1.0, 1.0, size=2)
            dRs, dTs = lc.infinitesimal_transform(eta, dRm, dTm)
            lhs = dTs * dTs - dRs * dRs
            rhs = eta * dTm * dTm - dRm * dRm / eta
            assert abs(lhs - rhs) < 1e-12


def test_07_radar_distance():
    with criterion(7, "radial flight time is (R2-R1) + r0*ln((R2-r0)/(R1-r0))"):
        src = lc.source_from_r0(1.0, c=1.0)
        delta_t = lc.radar_coordinate_time(src, 2.0, 4.0, 1.0)
        assert delta_t == pytest.approx(2.0 + math.log(3.0), rel=1e-12)
        integral, _ = quad(
            lambda R: 1.0 / lc.schwarzschild_lambda(src, R), 2.0, 4.0,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert abs(delta_t - integral) < 1e-8


def test_08_bridge_profile_suite():
    with criterion(8, "bridge profile: junctions, derivative, bound, exterior identity"):
        for k in (1e-3, 1.0, 1e3):
            scale = max(1.0, 2.0 / k)
            # value continuity at both junctions
            assert lc.transition_profile(0.0, k) == -1.0 / k
            assert lc.middle_branch(0.0, k) == -1.0 / k
            assert abs(lc.transition_profile(2.0 * k, k)) <= 1e-12 * scale
            # derivative junction values against one-sided differences
            h = 1e-7 * k
            for x0, expected in ((0.0, -1.0 / (k * k)), (2.0 * k, 0.0)):
                slope_scale = max(1.0, 1.0 / (k * k))
                assert abs(lc.transition_profile_prime(x0, k) - expected) <= 1e-12 * slope_scale
                left = (lc.transition_profile(x0, k) - lc.transition_profile(x0 - h, k)) / h
                right = (lc.transition_profile(x0 + h, k) - lc.transition_profile(x0, k)) / h
                assert abs(left - expected) <= 1e-5 * slope_scale
                assert abs(right - expected) <= 1e-5 * slope_scale
            # sampled global bound
            xs = np.linspace(-10.0 * k, 10.0 * k, 1_000_000)
            assert float(np.max(np.abs(lc.transition_profile(xs, k)))) <= 2.0 / k
        # exterior branch leaves the Schwarzschild interval bit-identical
        src = lc.source_from_r0(1.0, c=1.0)
        rng = np.random.default_rng(108)
        for _ in range(100):
            p = lc.MetricPoint(
                R=float(rng.uniform(1.01, 40.0)),
                theta=float(rng.uniform(0.1, 3.0)),
                dt=float(rng.uniform(-1, 1)),
                dR=float(rng.uniform(-1, 1)),
                dtheta=float(rng.uniform(-1, 1)),
                dphi=float(rng.uniform(-1, 1)),
            )
            lam = lc.schwarzschild_lambda(src, p.R)
            angular = (p.R * p.R) * (
                math.sin(p.theta) ** 2 * p.dphi * p.dphi + p.dtheta * p.dtheta
            )
            expected = lam * p.dt * p.dt - (p.dR * p.dR) / lam - angular
            assert lc.transformed_radial_interval(src, p) == expected


def test_09_alteration_ratios():
    with criterion(9, "Doppler factorization, exact reciprocity, operator chain rule"):
        for v in np.linspace(0.0, 0.99, 500):
            gamma = lc.gamma_special(v, 1.0)
            two_stage = lc.transverse_doppler(1.0, gamma) / (1.0 + v)
            assert abs(lc.total_doppler(1.0, v, 1.0) - two_stage) < 1e-14
        for gamma in np.linspace(0.01, 1.0, 100):
            report = lc.alteration_report(float(gamma))
            assert report.lifetime_ratio == 1.0 / report.frequency_ratio
            assert report.mass_ratio == 1.0 / report.frequency_ratio
        for gamma, t_m in ((0.8, 1.3), (0.5, 1.0), (0.95, 0.4)):
            assert lc.separated_operator_check(lambda t: math.exp(-t), gamma, t_m) < 1e-6
            assert lc.separated_operator_check(lambda t: math.exp(-t * t), gamma, t_m) < 1e-6


def test_10_horizon_roots():
    with criterion(10, "horizon roots: bracketed bisection and the worked constants"):
        src = lc.source_from_r0(1.0, c=1.0, Lambda=3e-6, lambda_unit="m^-2")
        roots = lc.horizon_roots(src)
        assert len(roots) == 2
        for r in roots:
            assert abs(lc.modified_schwarzschild_lambda(src, r)) < 1e-10
        # independent bisection oracle on the raw factor
        def bisect(f, a, b):
            fa = f(a)
            for _ in range(200):
                m = 0.5 * (a + b)
                if f(m) == 0.0 or b - a < 1e-15 * max(1.0, abs(m)):
                    return m
                if fa * f(m) < 0:
                    b = m
                else:
                    a, fa = m, f(m)
            return 0.5 * (a + b)

        f = lambda r: lc.modified_schwarzschild_lambda(src, r)
        assert roots[0] == pytest.approx(bisect(f, 0.5, 30.0), rel=1e-12)
        assert roots[1] == pytest.approx(bisect(f, 30.0, 5000.0), rel=1e-12)
        # the worked cosmological constant: consistent only with the
        # 6.37e8 cm radius, not the printed 6.67e8 cm one
        lam_consistent = lc.cosmological_constant_for_horizon(0.889, 6.37e8)
        assert lam_consistent == pytest.approx(7.39e-18, abs=0.005e-18)
        lam_printed = lc.cosmological_constant_for_horizon(0.889, 6.67e8)
        assert abs(lam_printed - 7.39e-18) > 0.5e-18
        # no-horizon case: the factor never reaches zero
        heavy = lc.source_from_r0(1000.0, c=1.0, Lambda=3e-6, lambda_unit="m^-2")
        assert lc.horizon_roots(heavy) == []


def test_11_dual_number_suite():
    with criterion(11, "dual derivative extraction and standard-part homomorphism"):
        pairs = [
            (lambda d: d * d * d - 2 * d + 1, lambda x: x**3 - 2 * x + 1, (-3, 3)),
            (lambda d: d.sin() * d.exp(), lambda x: math.sin(x) * math.exp(x), (-2, 2)),
            (lambda d: (d * d + 1).sqrt(), lambda x: math.sqrt(x * x + 1), (-5, 5)),
        ]
        rng = np.random.default_rng(111)
        h = 1e-6
        for dual_f, float_f, (lo, hi) in pairs:
            for x in rng.uniform(lo + 2 * h, hi - 2 * h, size=100):
                ad = lc.derivative(dual_f, float(x))
                fd = (float_f(x + h) - float_f(x - h)) / (2 * h)
                assert ad == pytest.approx(fd, rel=1e-6, abs=1e-9)
        for a, b, da, db in rng.uniform(-100.0, 100.0, size=(200, 4)):
            x, y = lc.Dual(a, da), lc.Dual(b, db)
            assert lc.standard_part(x + y) == a + b
            assert lc.standard_part(x - y) == a - b
            assert lc.standard_part(x * y) == a * b
            if b != 0.0:
                assert lc.standard_part(x / y) == a / b


def test_12_cli_determinism():
    with criterion(12, "CLI golden fixtures are byte-identical across runs"):
        jobs = [
            (("radar", "--config", str(FIXTURES / "radar_reference.json")),
             "radar_reference.golden.json"),
            (("metric", "schwarzschild", "--config", str(FIXTURES / "schwarzschild_sweep.json")),
             "schwarzschild_sweep.golden.csv"),
            (("transition", "H", "--config", str(FIXTURES / "transition_profile.json")),
             "transition_profile.golden.csv"),
        ]
        for argv, golden in jobs:
            runs = [run_python("-m", "lightclock", *argv, text=False) for _ in range(2)]
            assert all(r.returncode == 0 for r in runs)
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout == (FIXTURES / golden).read_bytes()

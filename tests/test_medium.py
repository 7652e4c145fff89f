import math
import random
import re

import numpy as np
import pytest
from scipy.integrate import quad

from lightclock import (
    LightClockSpec,
    PropagationScenario,
    PulseCounts,
    count_trace,
    distance_profile,
    einstein_from_count_diagram,
    einstein_measures,
    equilinear_check,
    medium_velocity,
    parallel_photon_offset,
    rapidity_from_vE,
    roundtrip,
)
from lightclock.medium import IntegrationWarning, _log_kernel_integral


def constant_speed(c: float, t1: float = 1.0, a: float = 0.5, b: float = 64.0):
    return PropagationScenario(velocity_profile=lambda t: c, t1=t1, a=a, b=b, c=c)


NON_FINITE = [
    lambda t: math.nan,
    lambda t: math.nan if t > 1.5 else 1.0,
    lambda t: math.inf,
    lambda t: 1.0 if t < 1.5 else -math.inf,
]
NON_FINITE_IDS = ["nan", "nan past 1.5", "inf", "-inf past 1.5"]


class TestScenario:
    def test_positive_interval(self):
        with pytest.raises(ValueError):
            PropagationScenario(lambda t: 1.0, t1=1.0, a=0.0, b=2.0, c=1.0)

    def test_t1_inside(self):
        with pytest.raises(ValueError):
            PropagationScenario(lambda t: 1.0, t1=5.0, a=1.0, b=2.0, c=1.0)


class TestDistanceProfile:
    def test_log_integral(self):
        sc = constant_speed(1.0, t1=1.0)
        assert distance_profile(sc, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_initialized_to_zero(self):
        sc = constant_speed(1.0, t1=1.5)
        assert distance_profile(sc, 1.5) == 0.0

    def test_zero_velocity(self):
        sc = PropagationScenario(lambda t: 0.0, t1=1.0, a=0.5, b=8.0, c=1.0)
        for t in (1.0, 2.0, 7.5):
            assert distance_profile(sc, t) == 0.0

    def test_domain(self):
        sc = constant_speed(1.0, t1=1.0)
        with pytest.raises(ValueError):
            distance_profile(sc, 0.75)

    @pytest.mark.filterwarnings("ignore::lightclock.medium.IntegrationWarning")
    @pytest.mark.parametrize("profile", NON_FINITE, ids=NON_FINITE_IDS)
    def test_a_non_finite_profile_is_refused(self, profile):
        # the integral still warns and returns NaN; distance_profile refuses it
        sc = PropagationScenario(profile, t1=1.0, a=1.0, b=2.0, c=1.0)
        with pytest.raises(ValueError, match=r"\[1.0, 2.0\] is -?(nan|inf); the velocity profile"):
            distance_profile(sc, 2.0)


class TestLogKernelIntegral:
    PROFILES = {
        "constant": lambda t: 1.3,
        "linear": lambda t: 0.7 * t,
        "2+sin t": lambda t: 2.0 + math.sin(t),
        "e^-t": lambda t: math.exp(-t),
    }

    @pytest.mark.parametrize("name", PROFILES)
    def test_agrees_with_quad(self, name):
        v = self.PROFILES[name]
        rng = random.Random(2003)
        for _ in range(150):
            lo = rng.uniform(0.1, 10.0)
            hi = lo * rng.uniform(1.001, 20.0)
            oracle, _ = quad(lambda x: v(x) / x, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(_log_kernel_integral(v, lo, hi) - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_budget_exhausted_warns(self):
        # about 640 periods of sin: more than 200 GK15 subintervals resolve
        with pytest.warns(IntegrationWarning, match="200 subintervals"):
            value = _log_kernel_integral(self.PROFILES["2+sin t"], 1.0, 4000.0)
        assert math.isfinite(value)

    def test_non_finite_profile_warns(self):
        with pytest.warns(IntegrationWarning):
            value = _log_kernel_integral(lambda t: math.nan, 1.0, 2.0)
        assert math.isnan(value)

    def test_infinite_profile_warns(self):
        # its error estimate is inf too, so the stop test alone, error <= 1e-12·|total|, holds
        with pytest.warns(IntegrationWarning):
            value = _log_kernel_integral(lambda t: math.inf, 1.0, 2.0)
        assert value == math.inf

    @pytest.mark.parametrize(
        "call",
        [
            lambda sc: distance_profile(sc, 4000.0),
            lambda sc: medium_velocity(sc, 1.0, 4000.0),
            lambda sc: equilinear_check(sc, 1.0, 2000.0, 4000.0),
        ],
        ids=["distance_profile", "medium_velocity", "equilinear_check"],
    )
    def test_the_warning_points_at_the_public_kernels_caller(self, call):
        sc = PropagationScenario(self.PROFILES["2+sin t"], t1=1.0, a=1.0, b=4000.0, c=1.0)
        with pytest.warns(IntegrationWarning, match="200 subintervals") as record:
            call(sc)
        assert {warning.filename for warning in record} == {__file__}


class TestMediumVelocity:
    def test_constant_profile(self):
        sc = constant_speed(1.0)
        res = medium_velocity(sc, 1.0, 2.0)
        assert res.omega == pytest.approx(math.log(2.0), abs=1e-12)

    def test_linear_profile(self):
        sc = PropagationScenario(lambda t: t, t1=1.0, a=0.5, b=4.0, c=1.0)
        res = medium_velocity(sc, 1.0, 2.0)
        assert res.omega == pytest.approx(1.0, abs=1e-12)
        # witness solves t* ln2 = 1
        assert res.witness == pytest.approx(1.0 / math.log(2.0), abs=1e-9)

    def test_log_kernel_scale_invariance(self):
        sc = constant_speed(1.0)
        res = medium_velocity(sc, 2.0, 4.0)
        assert res.omega == pytest.approx(math.log(2.0), abs=1e-12)

    def test_quadrature_against_closed_form(self):
        rng = np.random.default_rng(31)
        c = 2.5
        sc = constant_speed(c, a=0.1, b=100.0, t1=1.0)
        for _ in range(100):
            lo = rng.uniform(0.1, 50.0)
            hi = lo + rng.uniform(0.01, 49.0)
            res = medium_velocity(sc, lo, hi)
            assert abs(res.omega - c * math.log(hi / lo)) < 1e-10

    def test_witness_property(self):
        sc = PropagationScenario(
            lambda t: 2.0 + math.sin(t), t1=1.0, a=0.5, b=12.0, c=1.0
        )
        res = medium_velocity(sc, 1.0, 9.0)
        v_at_witness = 2.0 + math.sin(res.witness)
        assert abs(v_at_witness * math.log(9.0) - res.omega) < 1e-9

    @pytest.mark.filterwarnings("ignore::lightclock.medium.IntegrationWarning")
    @pytest.mark.parametrize("profile", NON_FINITE, ids=NON_FINITE_IDS)
    def test_a_non_finite_profile_is_refused_naming_the_interval(self, profile):
        sc = PropagationScenario(profile, t1=1.0, a=1.0, b=2.0, c=1.0)
        with pytest.raises(ValueError, match=r"over \[1.0, 2.0\] is -?(nan|inf); the velocity"):
            medium_velocity(sc, 1.0, 2.0)


class TestRoundtrip:
    def test_ln2(self):
        sc = constant_speed(1.0)
        rec = roundtrip(sc, math.log(2.0), 1.0)
        assert (rec.t1, rec.t2, rec.t3) == pytest.approx((1.0, 2.0, 4.0), rel=1e-15)

    def test_at_rest(self):
        sc = constant_speed(1.0)
        rec = roundtrip(sc, 0.0, 5.0)
        assert (rec.t1, rec.t2, rec.t3) == (5.0, 5.0, 5.0)

    def test_point_three(self):
        sc = constant_speed(1.0)
        rec = roundtrip(sc, 0.3, 2.0)
        assert rec.t2 == pytest.approx(2.0 * math.exp(0.3), rel=1e-15)
        assert rec.t3 == pytest.approx(2.0 * math.exp(0.6), rel=1e-15)
        assert rec.t2 == pytest.approx(2.699717, abs=1e-6)
        assert rec.t3 == pytest.approx(3.644238, abs=1e-6)

    @pytest.mark.parametrize("profile", NON_FINITE, ids=NON_FINITE_IDS)
    def test_a_non_finite_profile_is_refused(self, profile):
        # max and min skip a NaN, and inf - inf is NaN, so the spread alone
        # does not refuse these
        sc = PropagationScenario(profile, t1=1.0, a=1.0, b=2.0, c=1.0)
        with pytest.raises(ValueError, match=r"the profile is -?(nan|inf) at t = 1\.(0|51|5)$"):
            roundtrip(sc, 0.5, 1.0)

    def test_geometric_mean_machine_precision(self):
        sc = constant_speed(1.0)
        rng = np.random.default_rng(37)
        for _ in range(200):
            rec = roundtrip(sc, rng.uniform(0, 3), rng.uniform(0.1, 5))
            assert rec.t2 == pytest.approx(math.sqrt(rec.t1 * rec.t3), rel=5e-15)

    def test_varying_profile_rejected(self):
        sc = PropagationScenario(lambda t: 1.0 + 0.1 * t, t1=1.0, a=0.5, b=4.0, c=1.0)
        with pytest.raises(ValueError, match="constant to-and-fro"):
            roundtrip(sc, 0.5, 1.0)


class TestEquilinear:
    def test_log_additivity(self):
        sc = constant_speed(1.0)
        res = equilinear_check(sc, 1.0, 2.0, 3.0)
        assert res.residual < 1e-12
        assert res.w1 == pytest.approx(math.log(2.0), abs=1e-12)
        assert res.w2 == pytest.approx(math.log(1.5), abs=1e-12)
        assert res.w3 == pytest.approx(math.log(3.0), abs=1e-12)

    def test_empty_first_leg(self):
        sc = constant_speed(1.0)
        res = equilinear_check(sc, 2.0, 2.0, 5.0)
        assert res.w1 == 0.0
        assert res.residual < 1e-12

    def test_exact_powers(self):
        sc = constant_speed(1.0)
        res = equilinear_check(sc, 1.0, 4.0, 16.0)
        assert res.w1 == pytest.approx(math.log(4.0), abs=1e-12)
        assert res.w2 == pytest.approx(math.log(4.0), abs=1e-12)
        assert res.residual < 1e-12

    def test_distinct_return_leg(self):
        out = constant_speed(1.0)
        back = PropagationScenario(lambda t: 2.0, t1=1.0, a=0.5, b=64.0, c=2.0)
        res = equilinear_check(out, 1.0, 2.0, 4.0, sc_back=back)
        # legs with different standard speeds are not equilinear
        assert res.residual == pytest.approx(math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize("times,name", [((0.0, 1.0, 2.0), "t1"), ((1.0, 2.0, 100.0), "t3")])
    def test_times_outside_scenario_rejected(self, times, name):
        sc = constant_speed(1.0, a=0.5, b=4.0)
        with pytest.raises(ValueError, match=f"{name} = .* outside"):
            equilinear_check(sc, *times)

    def test_return_leg_outside_its_scenario_rejected(self):
        back = PropagationScenario(lambda t: 2.0, t1=3.0, a=3.0, b=64.0, c=2.0)
        with pytest.raises(ValueError, match="t2 = 2.0 .* outside"):
            equilinear_check(constant_speed(1.0), 1.0, 2.0, 4.0, sc_back=back)
        # the outgoing leg may start before the return scenario does
        assert equilinear_check(constant_speed(1.0), 1.0, 3.0, 4.0, sc_back=back).w1 > 0

    @pytest.mark.parametrize(
        ("times", "message"),
        [
            ((0.5, 2.5, 3.0), "t1 = 0.5 lies outside the scenario's [a, b] = [1.0, 4.0]"),
            ((1.0, 1.5, 3.0), "t2 = 1.5 lies outside the scenario's [a, b] = [2.0, 3.0]"),
            ((1.0, 2.5, 5.0), "t3 = 5.0 lies outside the scenario's [a, b] = [1.0, 4.0]"),
            ((1.0, 2.5, 3.5), "t3 = 3.5 lies outside the scenario's [a, b] = [2.0, 3.0]"),
            # t2 past the return scenario's b puts t3 past it too, and t3 is named
            ((1.0, 3.2, 3.5), "t3 = 3.5 lies outside the scenario's [a, b] = [2.0, 3.0]"),
        ],
        ids=["t1 < a", "t2 < back a", "t3 > b", "t3 > back b", "t2 > back b"],
    )
    def test_each_range_message(self, times, message):
        out = PropagationScenario(lambda t: 1.0, t1=1.0, a=1.0, b=4.0, c=1.0)
        back = PropagationScenario(lambda t: 1.0, t1=2.0, a=2.0, b=3.0, c=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            equilinear_check(out, *times, sc_back=back)

    @pytest.mark.filterwarnings("ignore::lightclock.medium.IntegrationWarning")
    @pytest.mark.parametrize(
        ("profile", "interval"),
        list(zip(NON_FINITE, ["[1.0, 1.25]", "[1.25, 2.0]", "[1.0, 1.25]", "[1.25, 2.0]"])),
        ids=NON_FINITE_IDS,
    )
    def test_a_non_finite_profile_is_refused_naming_the_interval(self, profile, interval):
        # w1 is integrated over [t1, t2] first, then w2 over [t2, t3]
        sc = PropagationScenario(profile, t1=1.0, a=1.0, b=2.0, c=1.0)
        with pytest.raises(ValueError, match=rf"over {re.escape(interval)} is -?(nan|inf); the"):
            equilinear_check(sc, 1.0, 1.25, 2.0)


class TestParallelPhotonOffset:
    def test_factor_two(self):
        sep, classical = parallel_photon_offset(1.0, math.log(2.0), 1.0, 1.0)
        assert sep == pytest.approx(2.0, rel=1e-15)
        assert classical == 1.0

    def test_no_recession(self):
        sep, classical = parallel_photon_offset(0.7, 0.0, 1.0, 2.0)
        assert sep == classical

    def test_factor_four(self):
        sep, classical = parallel_photon_offset(1.0, 2.0 * math.log(2.0), 1.0, 1.0)
        assert sep == pytest.approx(4.0 * classical, rel=1e-15)


class TestCountTrace:
    def test_geometric_ladder(self):
        spec = LightClockSpec(1.0, 1.0)
        rows = count_trace(spec, math.log(2.0), 1.0, 3)
        mediums = [(r.t1, r.t2, r.t3) for r in rows]
        assert mediums[0] == pytest.approx((1.0, 2.0, 4.0), rel=1e-15)
        assert mediums[1] == pytest.approx((4.0, 8.0, 16.0), rel=1e-15)
        assert mediums[2] == pytest.approx((16.0, 32.0, 64.0), rel=1e-15)

    def test_reflection_relation_and_reemission(self):
        spec = LightClockSpec(0.25, 1.0)
        rows = count_trace(spec, 0.8, 2.0, 5)
        for row in rows:
            assert row.tau3 == pytest.approx(2.0 * row.tau2 - row.tau1, rel=1e-12)
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt.tau1 == prev.tau3

    def test_at_rest(self):
        spec = LightClockSpec(1.0, 1.0)
        rows = count_trace(spec, 0.0, 1.0, 4)
        intervals = [r.tau3 - r.tau1 for r in rows]
        assert all(i == intervals[0] for i in intervals)

    def test_diagram_recovers_recession_velocity(self):
        # the reference diagram's v_E = c/7 corresponds to the rapidity with
        # e^{2 omega/c} = 4/3; consecutive pulses then measure c/7 exactly
        c = 1.0
        spec = LightClockSpec(1.0, c)
        omega = rapidity_from_vE(c / 7.0, c).omega
        rows = count_trace(spec, omega, 1.0, 4)
        for a, b in zip(rows, rows[1:]):
            m = einstein_from_count_diagram(
                spec, (a.tau1, a.tau2, a.tau3), (b.tau1, b.tau2, b.tau3)
            )
            assert m.v_E == pytest.approx(c / 7.0, rel=1e-12)

    def test_agrees_with_radar_measures(self):
        # the diagram of two successive pulses is the radar record whose
        # emission/return times are the two round-trip durations
        c = 1.0
        spec = LightClockSpec(1e-3, c)
        omega = 0.6
        rows = count_trace(spec, omega, 1.0, 2)
        a, b = rows
        diagram = einstein_from_count_diagram(
            spec, (a.tau1, a.tau2, a.tau3), (b.tau1, b.tau2, b.tau3)
        )
        rec = roundtrip(constant_speed(c), omega, a.t3 - a.t1)
        assert rec.t3 == pytest.approx(b.t3 - b.t1, rel=1e-12)
        direct = einstein_measures(rec, c)
        # within two count quanta of time/length
        assert abs(diagram.t_E - direct.t_E) <= 2.0 * spec.time_unit_u
        assert abs(diagram.r_E - direct.r_E) <= 2.0 * spec.round_trip_length_L
        assert diagram.v_E == pytest.approx(direct.v_E, rel=1e-12)

    def test_rows_equal_records_built_by_keyword(self):
        u, q, start, expected = 0.25, math.exp(0.8), 2.0, []
        for _ in range(5):
            end = start * q * q
            tau1, tau3 = start / u, end / u
            expected.append(PulseCounts(tau1=tau1, tau2=0.5 * (tau1 + tau3), tau3=tau3,
                                        t1=start, t2=start * q, t3=end))
            start = end
        assert count_trace(LightClockSpec(u, 1.0), 0.8, 2.0, 5) == expected

    def test_overflow_names_pulse(self):
        # t3 of pulse n is e^{2n}, past the float range from n = 355
        spec = LightClockSpec(1.0, 1.0)
        assert len(count_trace(spec, 1.0, 1.0, 354)) == 354
        with pytest.raises(ValueError, match="pulse 355 overflows"):
            count_trace(spec, 1.0, 1.0, 2000)
        # receding times: the first counts overflow, the later ones would not
        with pytest.raises(ValueError, match="pulse 1 overflows"):
            count_trace(LightClockSpec(1e-10, 1.0), -50.0, 1e300, 5)

    def test_domain(self):
        spec = LightClockSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            count_trace(spec, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            count_trace(spec, 0.5, 0.0, 2)

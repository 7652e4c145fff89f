"""The package's one root finder and the integrator's empty interval.

``lightclock.medium._bisect`` finds the mean-value witness of a medium
velocity (the horizon radii have a closed form); ``_log_kernel_integral``
returns 0 over an empty interval without evaluating the profile, so no caller
special-cases it.
"""

import inspect
import math

import pytest
from hypothesis import given, strategies as st

import lightclock
from lightclock import (
    PropagationScenario,
    distance_profile,
    equilinear_check,
    horizon_roots,
    medium_velocity,
    separated_operator_check,
    solve_triangle,
    source_from_r0,
    triangle_to_einstein,
)
from lightclock.medium import _bisect, _log_kernel_integral


def boom(t):
    raise AssertionError(f"profile evaluated at {t!r}")


def plain_bisect(f, a, b, fa, fb):
    """The oracle: plain bisection of a bracket whose ends' f differ in sign,
    to the midpoint once the bracket is within 4e-16 of it relatively."""
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) <= abs(m) * 4.0e-16:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


class TestBisect:
    def test_root_at_either_end(self):
        assert _bisect(lambda x: x, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)
        assert _bisect(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == (1.0, 0.0)

    def test_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="does not straddle a root"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)

    def test_interior_root_to_relative_4e_16(self):
        root, _ = _bisect(lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= 4e-16 * math.sqrt(2.0)

    def test_one_home(self):
        # medium's witness is the one caller; the horizons are solved in closed form
        from lightclock import line_elements, medium

        assert _bisect is medium._bisect
        assert not hasattr(line_elements, "_bisect") and not hasattr(lightclock, "_bisect")
        assert list(inspect.signature(_bisect).parameters) == ["f", "a", "b", "fa", "fb"]


class TestWitnessEvaluations:
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
    def test_bracket_ends_are_evaluated_once(self, p):
        # the gap's values at [1, 5]'s ends bracket the witness; the root
        # finder takes them, and probes only points strictly inside, each once
        # (a witness where a probe found g to be 0 is not read again by the check)
        calls = []

        def profile(t):
            calls.append(t)
            return t**p

        sc = PropagationScenario(velocity_profile=profile, t1=1.0, a=1.0, b=5.0, c=1.0)
        witness = medium_velocity(sc, 1.0, 5.0).witness
        assert 1.0 < witness < 5.0
        assert calls.count(1.0) == calls.count(5.0) == 1
        assert all(calls.count(t) == 1 for t in calls)

    @pytest.mark.parametrize(
        "profile",
        [lambda t: t**0.5, lambda t: 2.0 * math.log(t), lambda t: 3.0 / t**1.5],
        ids=["t^p", "a*ln t", "A/t^p"],
    )
    def test_a_monotone_profile_bisects_from_the_interval_ends(self, profile):
        # the gap has opposite signs at t_start and t_end, so no grid is scanned
        calls = []

        def counted(t):
            calls.append(t)
            return profile(t)

        sc = PropagationScenario(velocity_profile=counted, t1=1.0, a=1.0, b=5.0, c=1.0)
        medium_velocity(sc, 1.5, 4.5)
        witness_calls = list(calls)
        calls.clear()
        _log_kernel_integral(counted, 1.5, 4.5)
        assert len(witness_calls) - len(calls) <= 13
        assert witness_calls.count(1.5) == witness_calls.count(4.5) == 1

    @pytest.mark.parametrize(
        ("profile", "t_start", "t_end", "witness"),
        [
            (lambda t: (t - 2.0) ** 2 + 0.5, 1.0, 3.0, 1.4007979526965462),
            (lambda t: 2.0 + math.sin(t), 1.0, 9.0, 2.808241607734985),
            (lambda t: 1.3, 1.0, 2.0, 1.0),
            (lambda t: 2.5, 0.7, 30.0, 0.7),
        ],
        ids=["bowl", "2+sin t", "constant", "constant off 1"],
    )
    def test_ends_that_do_not_bracket_keep_the_grid_witness(self, profile, t_start, t_end,
                                                            witness):
        # a gap of one sign at both ends (a bowl, 2 + sin t) is scanned on the
        # 257-point grid; a constant's ends settle its witness, t_start, unscanned
        sc = PropagationScenario(velocity_profile=profile, t1=t_start, a=t_start, b=t_end, c=1.0)
        assert medium_velocity(sc, t_start, t_end).witness == witness

    @staticmethod
    def witness_calls(profile, t_start, t_end):
        """The witness and the points medium_velocity evaluates beyond its integral's."""
        calls = []

        def counted(t):
            calls.append(t)
            return profile(t)

        sc = PropagationScenario(velocity_profile=counted, t1=t_start, a=t_start, b=t_end, c=1.0)
        witness = medium_velocity(sc, t_start, t_end).witness
        witness_calls = list(calls)
        calls.clear()
        _log_kernel_integral(counted, t_start, t_end)  # what the integral evaluates first
        return witness, witness_calls[len(calls):]

    @pytest.mark.parametrize(("value", "t_start", "t_end"), [(1.3, 1.0, 2.0), (2.5, 0.7, 30.0)])
    def test_a_constant_profile_takes_its_two_ends(self, value, t_start, t_end):
        witness, calls = self.witness_calls(lambda t: value, t_start, t_end)
        assert calls == [t_start, t_end]
        assert witness == t_start

    def test_a_bowl_evaluates_each_grid_point_once(self):
        witness, calls = self.witness_calls(lambda t: (t - 2.0) ** 2 + 0.5, 1.0, 3.0)
        grid = lightclock._linspace(1.0, 3.0, 257)
        # the ends, then the grid's interior, then the bisection's midpoints
        assert calls[:257] == [1.0, 3.0, *grid[1:-1]]
        assert all(calls.count(t) == 1 for t in grid)
        assert 257 < len(calls) <= 257 + 60

    def test_a_step_profile_is_refused(self):
        # g changes sign across the jump at t = 1.5 but is never zero: the
        # bisection settles on the jump, where |g| is about 0.45·omega
        sc = PropagationScenario(lambda t: 1.0 if t < 1.5 else 3.0, t1=1.0, a=1.0, b=2.0, c=1.0)
        with pytest.raises(ValueError, match=r"^no mean-value witness found; "
                                             r"is the profile continuous\?$"):
            medium_velocity(sc, 1.0, 2.0)

    @pytest.mark.parametrize("jump", [1.1, 1.5, 1.9])
    def test_a_step_costs_at_most_one_probe_more_than_bisection(self, jump):
        # a gap with no root gives the interpolation nothing to go on: ITP's
        # projection keeps it within one step of plain bisection's count
        def profile(t):
            return 1.0 if t < jump else 3.0

        omega, log_span = _log_kernel_integral(profile, 1.0, 2.0), math.log(2.0)
        calls = []

        def gap(t):
            calls.append(t)
            return profile(t) * log_span - omega

        ends = gap(1.0), gap(2.0)
        calls.clear()
        _bisect(gap, 1.0, 2.0, *ends)
        probes = len(calls)
        calls.clear()
        plain_bisect(gap, 1.0, 2.0, *ends)
        assert probes <= len(calls) + 1

    @given(
        st.sampled_from(["power", "log"]),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.booleans(),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.2, max_value=6.0),
    )
    def test_a_monotone_witness_is_the_bisection_oracles(self, kind, A, p, rising, t_start,
                                                          ratio):
        # A·t^±p or A·ln t: the gap rises or falls through one root.  The two
        # witnesses agree to the bracket's 4e-16, plus the width on which the
        # gap's rounding (at most 2^-50·|omega| here) hides its sign, which
        # is wider than 4e-16 where the gap is flat
        p = p if rising else -p
        if kind == "power":
            def v(t):
                return A * t**p

            def dv(t):
                return A * p * t ** (p - 1.0)
        else:
            def v(t):
                return A * math.log(t)

            def dv(t):
                return A / t
        t_end = t_start * ratio
        sc = PropagationScenario(velocity_profile=v, t1=t_start, a=t_start, b=t_end, c=1.0)
        result = medium_velocity(sc, t_start, t_end)
        log_span = math.log(t_end / t_start)

        def gap(t):
            return v(t) * log_span - result.omega

        oracle = plain_bisect(gap, t_start, t_end, gap(t_start), gap(t_end))
        band = 2.0 * 2.0**-50 * abs(result.omega) / abs(dv(oracle) * log_span)
        assert abs(result.witness - oracle) <= 4e-16 * abs(oracle) + band
        # and g(t*) is within the rounding of zero, plus its slope across 4e-16·t*
        t = result.witness
        assert abs(gap(t)) <= 2.0 * 2.0**-50 * abs(result.omega) + 4e-16 * abs(t * dv(t) * log_span)

    def test_a_near_constant_profile_settles_at_an_end(self):
        # the gap is within 1e-12 of zero at t_start, so no grid is scanned;
        # the 257-point grid's least |gap| is at t = 2.0
        def profile(t):
            return 1.0 + 1e-13 * (t - 1.0) ** 2

        witness, calls = self.witness_calls(profile, 1.0, 3.0)
        assert (witness, calls) == (1.0, [1.0, 3.0])
        omega = _log_kernel_integral(profile, 1.0, 3.0)
        gaps = [abs(profile(t) * math.log(3.0) - omega) for t in (1.0, 3.0)]
        assert 0.0 < gaps[0] <= 1e-12 * max(1.0, *gaps)


class TestHorizonScaledSolve:
    def test_roots_where_raw_radii_cube_to_zero(self):
        # (3r*)³ underflows to 0 (r* = 1/√Λ), which once sent the outer bracket
        # doubling past the root; in x = r·√Λ the closed form needs no bracket
        Lambda, r0 = 1.6e273, 3.19e-142
        src = source_from_r0(r0, c=1.0, Lambda=Lambda, lambda_unit="m^-2")
        assert (3.0 / math.sqrt(Lambda)) ** 3 == 0.0
        a = r0 * math.sqrt(Lambda)
        inner, outer = horizon_roots(src)
        assert inner == pytest.approx(r0 * (1.0 + a * a / 3.0), rel=1e-14)
        assert outer == pytest.approx((math.sqrt(3.0) - a / 2.0) / math.sqrt(Lambda), rel=a * a)

        def f(x):
            return x**3 / 3.0 - x + a

        x = outer * math.sqrt(Lambda)
        assert f(x * (1.0 - 1e-15)) <= 0.0 <= f(x * (1.0 + 1e-15))


class TestEmptyInterval:
    def test_integral_is_zero_without_evaluating(self):
        assert _log_kernel_integral(boom, 2.0, 2.0) == 0.0

    def test_callers_need_no_special_case(self):
        sc = PropagationScenario(velocity_profile=boom, t1=2.0, a=1.0, b=4.0, c=1.0)
        assert distance_profile(sc, 2.0) == 0.0
        result = equilinear_check(sc, 2.0, 2.0, 2.0)
        assert (result.w1, result.w2, result.w3, result.residual) == (0.0, 0.0, 0.0, 0.0)


def test_solver_tolerances_are_not_parameters():
    for fn, fixed in (
        (solve_triangle, ["omega1", "omega2", "omega3", "c"]),
        (triangle_to_einstein, ["tri"]),
        (separated_operator_check, ["f", "gamma", "t_m"]),
    ):
        assert list(inspect.signature(fn).parameters) == fixed

"""The package's one root finder and the integrator's empty interval.

``lightclock._bisect`` finds the horizon radii and the mean-value witness of
a medium velocity; ``_log_kernel_integral`` returns 0 over an empty interval
without evaluating the profile, so no caller special-cases it.
"""

import inspect
import math

import pytest

import lightclock
from lightclock import (
    PropagationScenario,
    _bisect,
    distance_profile,
    equilinear_check,
    horizon_roots,
    medium_velocity,
    separated_operator_check,
    solve_triangle,
    source_from_r0,
    triangle_to_einstein,
)
from lightclock.medium import _log_kernel_integral


def boom(t):
    raise AssertionError(f"profile evaluated at {t!r}")


class TestBisect:
    def test_root_at_either_end(self):
        assert _bisect(lambda x: x, 0.0, 1.0, 0.0, 1.0) == 0.0
        assert _bisect(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0

    def test_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="does not straddle a root"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)

    def test_interior_root_to_relative_4e_16(self):
        root = _bisect(lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= 4e-16 * math.sqrt(2.0)

    def test_one_home(self):
        from lightclock import line_elements, medium

        assert line_elements._bisect is medium._bisect is lightclock._bisect
        assert list(inspect.signature(_bisect).parameters) == ["f", "a", "b", "fa", "fb"]


class TestWitnessEvaluations:
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
    def test_bracket_ends_are_evaluated_once(self, p):
        # the scan has the gap at both ends of the witness bracket; the root
        # finder takes those values instead of evaluating the profile again
        calls = []

        def profile(t):
            calls.append(t)
            return t**p

        sc = PropagationScenario(velocity_profile=profile, t1=1.0, a=1.0, b=5.0, c=1.0)
        witness = medium_velocity(sc, 1.0, 5.0).witness
        grid = lightclock._linspace(1.0, 5.0, 257)
        idx = max(i for i, t in enumerate(grid[:-1]) if t <= witness)
        assert grid[idx] < witness < grid[idx + 1]
        assert calls.count(grid[idx]) == calls.count(grid[idx + 1]) == 1


class TestHorizonScaledSolve:
    def test_roots_where_raw_radii_cube_to_zero(self):
        # (3r*)³ underflows to 0 (r* = 1/√Λ), which once sent the outer bracket
        # doubling past the root; in x = r·√Λ every bracket is fixed
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

"""Physical-alteration ratios.

One dimensionless factor gamma drives everything: emitted frequencies scale
down by gamma, lifetimes and masses scale up by 1/gamma, and the
gravitational case is the special case gamma = sqrt(1 - 2GM/(R c^2)) obtained
by substituting the escape velocity.  The clock-comparison functions implement
the two-position square-root-ratio laws.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import _record, line_elements
from .velocity_space import gamma_factor

_STEP = 1e-6  # the central-difference step of separated_operator_check


@_record
class AlterationReport:
    """The ratios induced by a single gamma factor.

    frequency_ratio = nu_m/nu_s, lifetime_ratio = tau_m/tau_s,
    mass_ratio = M_m/M_s; lifetime and mass ratios are exact reciprocals of
    the frequency ratio by construction.
    """

    gamma: float
    frequency_ratio: float
    lifetime_ratio: float
    mass_ratio: float
    clock_rate_ratio: float


def _require_unit_interval(what: str, *values: float) -> None:
    """ValueError "<what> must lie in (0, 1]" unless every value does."""
    for value in values:
        if not (0.0 < value <= 1.0):
            raise ValueError(f"{what} must lie in (0, 1]")


def alteration_report(gamma: float) -> AlterationReport:
    _require_unit_interval("gamma", gamma)
    return AlterationReport(
        gamma=gamma,
        frequency_ratio=gamma,
        lifetime_ratio=1.0 / gamma,
        mass_ratio=1.0 / gamma,
        clock_rate_ratio=gamma,
    )


@_record
class GravCompareInput:
    """Two radial positions to compare, with the shared Schwarzschild radius
    and optional per-position cosmological constants in m^-2."""

    r_s: float  # Schwarzschild radius, m
    r_P: float  # m
    r_R: float  # m, may be math.inf
    lambda_P_per_m2: float = 0.0  # attached to the P-side factor
    lambda_R_per_m2: float = 0.0  # attached to the R-side factor

    def __post_init__(self):
        if not self.r_s >= 0:
            raise ValueError("r_s must be non-negative")
        if not (self.r_P >= self.r_s and self.r_R >= self.r_s):
            raise ValueError("both radii must lie at or outside r_s")

    def g1(self, r: float, lambda_per_m2: float) -> float:
        if math.isinf(r):
            if lambda_per_m2 != 0.0:
                raise ValueError("infinite radius needs Lambda = 0 on that side")
            return 1.0
        return line_elements.modified_lambda(self.r_s, lambda_per_m2, r)


def gamma_special(v_E: float, c: float) -> float:
    """sqrt(1 - v_E^2/c^2)."""
    return gamma_factor(v_E, c)


def gamma_gravitational(src: line_elements.GravitySource, R: float) -> float:
    """Gravitational gamma at radius R; identical by construction to the
    special-theory gamma evaluated at the escape velocity sqrt(2GM/R)."""
    if R <= src.schwarzschild_r0:
        raise ValueError("R must lie outside the Schwarzschild radius")
    return gamma_special(line_elements.potential_velocity(src, R), src.c)


def transverse_doppler(nu_s: float, gamma: float) -> float:
    """Emitted-frequency alteration nu_m = gamma * nu_s."""
    if nu_s <= 0:
        raise ValueError("frequency must be positive")
    _require_unit_interval("gamma", gamma)
    return gamma * nu_s


def total_doppler(nu_s: float, v_E: float, c: float) -> float:
    """Received frequency for a receding source:
    nu_s * sqrt((1 - v/c)/(1 + v/c))."""
    if not (0.0 <= v_E < c):
        raise ValueError("recession velocity must lie in [0, c)")
    K = v_E / c
    return nu_s * math.sqrt((1.0 - K) / (1.0 + K))


def decay_lifetime(tau_s: float, gamma: float) -> float:
    """tau_m = tau_s / gamma."""
    if tau_s <= 0:
        raise ValueError("lifetime must be positive")
    _require_unit_interval("gamma", gamma)
    return tau_s / gamma


def mass_alteration(M_s: float, gamma: float) -> float:
    """M_m = M_s / gamma."""
    if M_s <= 0:
        raise ValueError("mass must be positive")
    _require_unit_interval("gamma", gamma)
    return M_s / gamma


def separated_operator_check(f: Callable[[float], float], gamma: float, t_m: float) -> float:
    """Numeric check of the separated-solution chain rule.

    With F(t) = f(gamma*t), the logarithmic rates delta_m = F'/F at t_m and
    delta_s = f'/f at gamma*t_m must satisfy delta_s = delta_m/gamma; the
    absolute difference (central differences, step _STEP) is returned.
    """
    _require_unit_interval("gamma", gamma)

    def log_rate(g: Callable[[float], float], t: float) -> float:
        g0 = g(t)
        if g0 <= 0:
            raise ValueError("test function must be positive near the probe point")
        return (g(t + _STEP) - g(t - _STEP)) / (2.0 * _STEP * g0)

    delta_m = log_rate(lambda t: f(gamma * t), t_m)
    delta_s = log_rate(f, gamma * t_m)
    return abs(delta_s - delta_m / gamma)


def gravitational_clock_compare(inp: GravCompareInput) -> float:
    """Tick-rate ratio dt_R/dt_P = sqrt(g1(R)) / sqrt(g1(P)).

    A clock farther out (larger g1) accumulates more ticks per tick of the
    deeper clock; with Lambda supplied the modified factors are used, with
    independent values allowed per side.
    """
    gP = inp.g1(inp.r_P, inp.lambda_P_per_m2)
    gR = inp.g1(inp.r_R, inp.lambda_R_per_m2)
    if gP <= 0 or gR <= 0:
        raise ValueError("comparison factors must be positive outside r_s")
    return math.sqrt(gR) / math.sqrt(gP)


def frequency_compare(g1_P: float, g1_R: float, nu_R: float) -> float:
    """Solve sqrt(g1(P))·nu_P = sqrt(g1(R))·nu_R for nu_P."""
    _require_unit_interval("g1 factors", g1_P, g1_R)
    return math.sqrt(g1_R / g1_P) * nu_R


def altered_light_speed(g1: float, c: float) -> float:
    """Comparative light speed sqrt(g1)·c at the deeper position."""
    _require_unit_interval("g1", g1)
    return math.sqrt(g1) * c


def rate_of_change_compare(
    g1_P: float, g1_R: float, dQ_P_per_second: float
) -> float:
    """Solve sqrt(g1(P))·rate_P = sqrt(g1(R))·rate_R for the R-side rate:
    the frequency law with the two positions swapped."""
    return frequency_compare(g1_R, g1_P, dQ_P_per_second)

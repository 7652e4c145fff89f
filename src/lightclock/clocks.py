"""Light-clock count arithmetic.

A clock is a source/mirror pair: the stored length L is the full to-and-fro
path (the arm is L/2), one counter tick spans u = L/c seconds and L meters of
pulse travel.  Counter readings are non-negative reals; partial ticks are
allowed.
"""

from __future__ import annotations

import math

from . import SPEED_OF_LIGHT, _record


@_record
class LightClockSpec:
    """Round-trip path length and local light speed of one clock."""

    round_trip_length_L: float  # meters, full to-and-fro path
    light_speed_c: float = SPEED_OF_LIGHT  # m/s

    def __post_init__(self):
        if not self.round_trip_length_L > 0:
            raise ValueError("round_trip_length_L must be positive")
        if not self.light_speed_c > 0:
            raise ValueError("light_speed_c must be positive")

    @property
    def time_unit_u(self) -> float:
        """Seconds per tick, u = L/c."""
        return self.round_trip_length_L / self.light_speed_c

    @property
    def arm_length(self) -> float:
        return self.round_trip_length_L / 2.0


@_record
class CountPair:
    """Two counter readings with count_b taken after count_a."""

    count_a: float
    count_b: float

    def __post_init__(self):
        if not (self.count_a >= 0 and self.count_b >= 0):
            raise ValueError("counter readings must be non-negative")
        if not self.count_b >= self.count_a:
            raise ValueError("count_b must not precede count_a")


@_record
class CountDiagramMeasures:
    """Einstein measures read off a two-pulse count diagram."""

    t_E_counts: float  # ticks
    r_E_counts: float  # length-ticks
    t_E: float  # s
    r_E: float  # m
    v_E: float  # m/s
    K: float


def time_from_counts(spec: LightClockSpec, p: CountPair) -> float:
    """Duration u·(count_b − count_a) in seconds."""
    return spec.time_unit_u * (p.count_b - p.count_a)


def distance_from_counts(spec: LightClockSpec, p: CountPair) -> float:
    """Pulse travel L·(count_b − count_a) in meters."""
    return spec.round_trip_length_L * (p.count_b - p.count_a)


def counts_for_length(spec: LightClockSpec, r: float) -> int:
    """Nearest whole-tick count covering distance r; residual ≤ L/2."""
    if r < 0:
        raise ValueError("length must be non-negative")
    return round(r / spec.round_trip_length_L)


def einstein_from_count_diagram(
    spec: LightClockSpec,
    first_pulse: tuple[float, float, float],
    second_pulse: tuple[float, float, float],
    tol: float = 1e-9,
) -> CountDiagramMeasures:
    """Einstein measures for two successive radar pulses given as counter
    triples (emission, reflection, return).

    Each triple needs 0 ≤ tau1 ≤ tau2 and a finite return tau3 = 2·tau2 − tau1,
    and the second pulse cannot start before the first returns.
    """
    t11, t21, t31 = first_pulse
    t12, t22, t32 = second_pulse
    for tau1, tau2, tau3 in (first_pulse, second_pulse):
        if not (0.0 <= tau1 <= tau2 and abs(tau3) < math.inf
                and abs(tau3 - (2.0 * tau2 - tau1)) <= tol * max(1.0, abs(tau3))):
            raise ValueError("inconsistent count diagram: a pulse needs 0 <= tau1 <= tau2 and "
                             f"a finite tau3 = 2*tau2 - tau1, got {(tau1, tau2, tau3)}")
    if t12 < t31:
        raise ValueError("overlapping pulses: second emission precedes first return")

    te_counts = 0.5 * ((t32 - t31) + (t12 - t11))
    re_counts = 0.5 * ((t32 - t31) - (t12 - t11))
    t_E = spec.time_unit_u * te_counts
    r_E = spec.round_trip_length_L * re_counts
    v_E = r_E / t_E if t_E > 0 else 0.0
    return CountDiagramMeasures(
        t_E_counts=te_counts,
        r_E_counts=re_counts,
        t_E=t_E,
        r_E=r_E,
        v_E=v_E,
        K=v_E / spec.light_speed_c,
    )

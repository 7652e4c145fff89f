"""Radar-method measurement of an event from one position.

A record holds the medium times of emission, reflection and return; a
consistent record obeys the geometric-mean law t2 = sqrt(t1*t3) and maps to a
rapidity through exp(omega/c) = sqrt(t3/t1).
"""

from __future__ import annotations

import math
import sys

from . import _non_negative, _positive, _record


@_record
class RadarRecord:
    """Emission, reflection and return times, all in medium time (s)."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        _positive("invalid medium time: t1", self.t1)
        if not (self.t1 <= self.t2 <= self.t3):
            raise ValueError("radar record requires t1 <= t2 <= t3")


@_record
class Rapidity:
    """Unsigned medium scalar velocity (additive for collinear motion)."""

    omega: float  # m/s
    c: float  # m/s

    def __post_init__(self):
        _non_negative("medium velocity", self.omega)
        _positive("c", self.c)


@_record
class EinsteinMeasures:
    """Radar-method quantities: t_E, r_E, v_E and the ratio K = v_E/c, with
    the splits of the record's times they predict; ``degenerate`` marks the
    r_E = 0 case where t_E is a plain coincidence time rather than an
    Einstein measure.
    """

    t_E: float  # s
    r_E: float  # m
    v_E: float  # m/s
    K: float  # dimensionless, v_E/c
    t1_split: float  # (1 − v_E/c)·t_E
    t3_split: float  # (1 + v_E/c)·t_E
    t2_pred: float  # √(1 − v_E²/c²)·t_E
    degenerate: bool = False


def einstein_measures(rec: RadarRecord, c: float) -> EinsteinMeasures:
    """t_E = (t3+t1)/2, r_E = c(t3−t1)/2, v_E = r_E/t_E, plus the splits
    t3 = (1+v_E/c)t_E, t1 = (1−v_E/c)t_E and t2_pred = sqrt(1−v_E²/c²)·t_E.

    When r_E = 0 the result is flagged degenerate: t_E = t1 = t3 is then a
    coincidence time, not an Einstein measure; c must be positive and finite.
    """
    _positive("c", c)
    t_E = 0.5 * (rec.t3 + rec.t1)
    r_E = 0.5 * c * (rec.t3 - rec.t1)
    v_E = r_E / t_E  # +0.0 on a degenerate record, whose r_E is +0.0 and t_E > 0
    K = v_E / c
    return EinsteinMeasures.__new__(
        EinsteinMeasures,
        t_E=t_E,
        r_E=r_E,
        v_E=v_E,
        K=K,
        t1_split=(1.0 - K) * t_E,
        t3_split=(1.0 + K) * t_E,
        t2_pred=math.sqrt(1.0 - K * K) * t_E,
        degenerate=r_E == 0.0,
    )


def check_geometric_mean(rec: RadarRecord, tol: float = 1e-12) -> bool:
    """True iff |t2 − sqrt(t1·t3)| ≤ tol·t2; a negative tol is refused."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    return abs(rec.t2 - math.sqrt(rec.t1 * rec.t3)) <= tol * rec.t2


def rapidity_from_vE(v_E: float, c: float) -> Rapidity:
    """omega = c·artanh(|v_E|/c); c must be positive and finite, and a NaN
    v_E, never below c, is refused as superluminal."""
    _positive("c", c)
    if not abs(v_E) < c:
        raise ValueError("superluminal Einstein velocity")
    return Rapidity.__new__(Rapidity, omega=c * math.atanh(abs(v_E) / c), c=c)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows just past it


def _rapidity_factor(omega: float, c: float) -> float:
    """e^{omega/c}, the one place it is computed.  A medium velocity is
    unsigned (a record gives e^{omega/c} = sqrt(t3/t1) >= 1), so a negative
    omega, -inf too, is refused, and so is a c that is not positive, NaN too;
    a ValueError also names an omega that is not finite, and omega and c where
    e^{omega/c} overflows."""
    if omega < 0:
        raise ValueError("medium velocity must be non-negative")
    _positive("c", c)
    if not omega / c <= _LOG_FLOAT_MAX:
        if not math.isfinite(omega):
            raise ValueError(f"omega is not finite: {omega!r}")
        raise ValueError(f"exp(omega/c) overflows for omega = {omega!r}, c = {c!r}")
    return math.exp(omega / c)


def record_from_rapidity(omega: float, c: float, t1: float) -> RadarRecord:
    """Record (t1, t1·e^{omega/c}, t1·e^{2omega/c}); satisfies the
    geometric-mean law by construction (RadarRecord checks t1)."""
    q = _rapidity_factor(omega, c)
    return RadarRecord.__new__(RadarRecord, t1=t1, t2=t1 * q, t3=t1 * q * q)

"""Medium-propagation integrator.

Propagation distance obeys s(t) = t·∫ v(x)/x dx, so the medium velocity
between two times is the log-kernel integral ∫ v(x)/x dx; for a constant
profile that integral is additive in log-time, which is exactly what makes
radar round trips geometric: t2 = sqrt(t1·t3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .clocks import LightClockSpec
from .radar import RadarRecord, record_from_rapidity

_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class PropagationScenario:
    """Velocity profile v(t) ≥ 0 on [a, b] with emission time t1 and the
    local to-and-fro speed c."""

    velocity_profile: Callable[[float], float]
    t1: float
    a: float
    b: float
    c: float = 299792458.0

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError("need 0 < a < b (the kernel divides by time)")
        if not (self.a <= self.t1 <= self.b):
            raise ValueError("t1 must lie inside [a, b]")


@dataclass(frozen=True)
class MediumVelocity:
    """Integral value with the mean-value witness t* where
    v(t*)·ln(t_end/t_start) equals it."""

    omega: float
    witness: float


@dataclass(frozen=True)
class PulseCounts:
    """One radar pulse: counter readings and the underlying medium times."""

    tau1: float
    tau2: float
    tau3: float
    t1: float
    t2: float
    t3: float


@dataclass(frozen=True)
class EquilinearResult:
    w1: float
    w2: float
    w3: float
    residual: float


def _log_kernel_integral(v: Callable[[float], float], lo: float, hi: float) -> float:
    value, _ = quad(
        lambda x: v(x) / x, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200
    )
    return value


def distance_profile(sc: PropagationScenario, t: float) -> float:
    """s(t) = t·∫_{t1}^{t} v(x)/x dx, with s(t1) initialized to zero."""
    if not (sc.t1 <= t <= sc.b):
        raise ValueError("t must lie in [t1, b]")
    if t == sc.t1:
        return 0.0
    return t * _log_kernel_integral(sc.velocity_profile, sc.t1, t)


def medium_velocity(
    sc: PropagationScenario, t_start: float, t_end: float
) -> MediumVelocity:
    """omega = ∫_{t_start}^{t_end} v(x)/x dx plus the mean-value witness.

    Continuity of v guarantees a t* in [t_start, t_end] with
    v(t*)·ln(t_end/t_start) = omega; it is located by scanning for a sign
    change and bisecting.
    """
    if not (sc.a <= t_start < t_end <= sc.b):
        raise ValueError("need a <= t_start < t_end <= b")
    omega = _log_kernel_integral(sc.velocity_profile, t_start, t_end)
    log_span = math.log(t_end / t_start)

    def gap(t: float) -> float:
        return sc.velocity_profile(t) * log_span - omega

    grid = np.linspace(t_start, t_end, 257)
    values = np.array([gap(float(t)) for t in grid])
    scale = max(1.0, float(np.max(np.abs(values))))
    if float(np.min(np.abs(values))) <= 1e-12 * scale:
        witness = float(grid[int(np.argmin(np.abs(values)))])
        return MediumVelocity(omega=omega, witness=witness)
    idx = np.nonzero(values[:-1] * values[1:] <= 0.0)[0]
    if idx.size == 0:
        raise ValueError("no mean-value witness found; is the profile continuous?")
    lo, hi = float(grid[idx[0]]), float(grid[idx[0] + 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(lo) * gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return MediumVelocity(omega=omega, witness=0.5 * (lo + hi))


def _require_constant_profile(sc: PropagationScenario) -> None:
    samples = np.linspace(sc.a, sc.b, 101)
    vals = np.array([sc.velocity_profile(float(t)) for t in samples])
    spread = float(np.max(vals) - np.min(vals))
    if spread > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(
            "round trip requires a constant to-and-fro propagation speed; "
            "the supplied profile varies over [a, b]"
        )


def roundtrip(sc: PropagationScenario, omega: float, t1: float) -> RadarRecord:
    """Radar record (t1, t1·e^{omega/c}, t1·e^{2omega/c}) for a constant
    profile; the geometric-mean law holds by construction."""
    _require_constant_profile(sc)
    return record_from_rapidity(omega, sc.c, t1)


def equilinear_check(
    sc: PropagationScenario,
    t1: float,
    t2: float,
    t3: float,
    sc_back: PropagationScenario | None = None,
) -> EquilinearResult:
    """Additivity of medium velocities across three collinear times.

    w1 is integrated over [t1, t2] on the outgoing profile, w2 over [t2, t3]
    on the return profile (defaulting to the same scenario), w3 over
    [t1, t3]; |w1 + w2 − w3| vanishes by log additivity whenever the two
    profiles share their standard parts.
    """
    if not (t1 <= t2 <= t3):
        raise ValueError("need t1 <= t2 <= t3")
    back = sc_back if sc_back is not None else sc
    w1 = 0.0 if t2 == t1 else _log_kernel_integral(sc.velocity_profile, t1, t2)
    w2 = 0.0 if t3 == t2 else _log_kernel_integral(back.velocity_profile, t2, t3)
    w3 = 0.0 if t3 == t1 else _log_kernel_integral(sc.velocity_profile, t1, t3)
    return EquilinearResult(w1=w1, w2=w2, w3=w3, residual=abs(w1 + w2 - w3))


def parallel_photon_offset(
    u: float, omega: float, c: float, dt_emit: float
) -> tuple[float, float]:
    """Transverse separation of two parallel-emitted photons after a medium
    recession omega: the hyperbolic value u·e^{omega/c}·dt_emit alongside the
    classical u·dt_emit."""
    if dt_emit <= 0:
        raise ValueError("emission gap must be positive")
    return (u * math.exp(omega / c) * dt_emit, u * dt_emit)


def count_trace(
    spec: LightClockSpec, omega: float, t1: float, n_pulses: int
) -> list[PulseCounts]:
    """Counter-reading table for successive radar pulses with immediate
    re-emission.

    Medium times follow the geometric law per pulse; the reflection count is
    the midpoint of emission and return counts, so every row satisfies
    tau3 = 2·tau2 − tau1, and each next pulse starts on the previous return.
    """
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    if t1 <= 0:
        raise ValueError("invalid medium time: t1 must be positive")
    u = spec.time_unit_u
    q = math.exp(omega / spec.light_speed_c)
    rows: list[PulseCounts] = []
    start = t1
    for _ in range(n_pulses):
        mid = start * q
        end = start * q * q
        tau1 = start / u
        tau3 = end / u
        rows.append(
            PulseCounts(
                tau1=tau1,
                tau2=0.5 * (tau1 + tau3),
                tau3=tau3,
                t1=start,
                t2=mid,
                t3=end,
            )
        )
        start = end
    return rows

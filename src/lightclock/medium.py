"""Medium-propagation integrator.

Propagation distance obeys s(t) = t·∫ v(x)/x dx, so the medium velocity
between two times is the log-kernel integral ∫ v(x)/x dx; for a constant
profile that integral is additive in log-time, which is exactly what makes
radar round trips geometric: t2 = sqrt(t1·t3).

The log-kernel integral is taken in s = ln x, where it is the smooth
∫ v(e^s) ds, by an adaptive Gauss–Kronrod 7–15 rule with the QUADPACK
abscissae, weights and error scaling (Piessens et al., *QUADPACK*, 1983).
The subinterval with the largest error estimate is bisected until the
integral is finite and the summed estimate is at most
max(1e-12, 1e-12·|integral|).  If 200 subintervals do not reach that, a
subinterval can no longer be halved, or the estimate is not finite, the best
estimate is returned with an ``IntegrationWarning``.  A medium velocity's
witness is read from the interval's ends, then from a 257-point grid.
"""

from __future__ import annotations

import heapq
import math
import sys
import warnings
from collections.abc import Callable
from operator import mul

from . import SPEED_OF_LIGHT, _bisect, _linspace, _record
from .clocks import LightClockSpec
from .radar import RadarRecord, _rapidity_factor, record_from_rapidity

_QUAD_TOL = 1e-12
_QUAD_LIMIT = 200  # subintervals

# QUADPACK qk15: the Kronrod abscissae in (0, 1), outermost first (the odd
# positions are also the 7-point Gauss abscissae), the Kronrod weights for
# them and for the centre, and the Gauss weights for the odd positions and
# the centre
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# the same rules over all 15 abscissae of [-1, 1], in ascending order
_X15 = tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1]
_WK15 = _WGK + _WGK[6::-1]
_WG15 = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
         0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min


class IntegrationWarning(UserWarning):
    """The log-kernel integral did not reach its tolerance."""


@_record
class PropagationScenario:
    """Velocity profile v(t) ≥ 0 on [a, b] with emission time t1 and the
    local to-and-fro speed c."""

    velocity_profile: Callable[[float], float]
    t1: float
    a: float
    b: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError("need 0 < a < b (the kernel divides by time)")
        if not (self.a <= self.t1 <= self.b):
            raise ValueError("t1 must lie inside [a, b]")


@_record
class MediumVelocity:
    """Integral value with the mean-value witness t* where
    v(t*)·ln(t_end/t_start) equals it."""

    omega: float
    witness: float


@_record
class PulseCounts:
    """One radar pulse: counter readings and the underlying medium times."""

    tau1: float
    tau2: float
    tau3: float
    t1: float
    t2: float
    t3: float


@_record
class EquilinearResult:
    w1: float
    w2: float
    w3: float
    residual: float


def _gk15(v: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """QUADPACK qk15 on ∫_a^b v(e^s) ds: the Kronrod estimate and its error."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    exp = math.exp
    fv = [v(exp(centre + half * x)) for x in _X15]
    resk = sum(map(mul, _WK15, fv))
    resg = sum(map(mul, _WG15, fv))
    resabs = sum(map(mul, _WK15, map(abs, fv)))
    mean = 0.5 * resk
    resasc = sum(map(mul, _WK15, [abs(y - mean) for y in fv]))
    width = abs(half)
    resabs *= width
    resasc *= width
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * half, err


def _log_kernel_integral(v: Callable[[float], float], lo: float, hi: float) -> float:
    """∫_lo^hi v(x)/x dx = ∫ v(e^s) ds over [ln lo, ln hi], by adaptive GK15;
    0.0 without calling v when lo == hi."""
    if lo == hi:
        return 0.0
    a, b = math.log(lo), math.log(hi)
    total, error = _gk15(v, a, b)
    heap = [(-error, a, b, total)]  # the largest error first
    while not (error <= max(_QUAD_TOL, _QUAD_TOL * abs(total)) and math.isfinite(total)):
        _, a, b, _ = heap[0]
        mid = 0.5 * (a + b)
        if len(heap) >= _QUAD_LIMIT or not (a < mid < b and math.isfinite(error)):
            warnings.warn(
                f"log-kernel integral over [{lo!r}, {hi!r}] stopped at "
                f"{len(heap)} subintervals with estimated error {error:.3g} "
                f"(tolerance {_QUAD_TOL:g}); the result may be inaccurate",
                IntegrationWarning,
                stacklevel=4,
            )
            break
        heapq.heappop(heap)
        for left, right in ((a, mid), (mid, b)):
            value, err = _gk15(v, left, right)
            heapq.heappush(heap, (-err, left, right, value))
        total = math.fsum(item[3] for item in heap)
        error = math.fsum(-item[0] for item in heap)
    return total


def _integral(v: Callable[[float], float], lo: float, hi: float) -> float:
    """``_log_kernel_integral``, refused where it is not finite: each public
    kernel integrates through here, a frame its warning's stacklevel counts."""
    integral = _log_kernel_integral(v, lo, hi)
    if not math.isfinite(integral):
        raise ValueError(f"the log-kernel integral over [{lo!r}, {hi!r}] is {integral!r}; "
                         "the velocity profile must be finite there")
    return integral


def distance_profile(sc: PropagationScenario, t: float) -> float:
    """s(t) = t·∫_{t1}^{t} v(x)/x dx, with s(t1) initialized to zero."""
    if not (sc.t1 <= t <= sc.b):
        raise ValueError("t must lie in [t1, b]")
    return t * _integral(sc.velocity_profile, sc.t1, t)


def medium_velocity(
    sc: PropagationScenario, t_start: float, t_end: float
) -> MediumVelocity:
    """omega = ∫_{t_start}^{t_end} v(x)/x dx plus the mean-value witness.

    Continuity of v guarantees a t* in [t_start, t_end] where the gap
    g(t) = v(t)·ln(t_end/t_start) − omega is zero.  g is read at the ends,
    then, where they do not settle t*, on a 257-point grid that shares them:
    t* is the point of least |g| if that is within 1e-12·max(1, max|g|), else
    the bisection root of the first sign change (a constant v costs 2 calls).
    """
    if not (sc.a <= t_start < t_end <= sc.b):
        raise ValueError("need a <= t_start < t_end <= b")
    v = sc.velocity_profile
    omega = _integral(v, t_start, t_end)
    log_span = math.log(t_end / t_start)

    def gap(t):
        return v(t) * log_span - omega

    g0, g1 = gap(t_start), gap(t_end)
    for n in (2, 257):
        grid = _linspace(t_start, t_end, n)  # its ends are t_start and t_end
        values = [g0, *map(gap, grid[1:-1]), g1]
        sizes = list(map(abs, values))
        smallest = min(sizes)
        if smallest <= 1e-12 * max(1.0, max(sizes)):
            return MediumVelocity(omega, grid[sizes.index(smallest)])
        # every |g| is beyond the tolerance here, so no product underflows
        for i, product in enumerate(map(mul, values, values[1:])):
            if product <= 0.0:
                return MediumVelocity(omega, _bisect(gap, *grid[i:i + 2], *values[i:i + 2]))
    raise ValueError("no mean-value witness found; is the profile continuous?")


def _require_constant_profile(sc: PropagationScenario) -> None:
    grid = _linspace(sc.a, sc.b, 101)
    vals = [sc.velocity_profile(t) for t in grid]
    if not all(map(math.isfinite, vals)):
        i = list(map(math.isfinite, vals)).index(False)
        raise ValueError(f"round trip requires a finite propagation speed; the profile is "
                         f"{vals[i]!r} at t = {grid[i]!r}")
    lo, hi = min(vals), max(vals)
    if hi - lo > 1e-12 * max(1.0, hi, -lo):  # max(|v|) is max(hi, -lo)
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
    profiles share their standard parts.  [t1, t3] must lie in the outgoing
    scenario's [a, b], and [t2, t3] in the return scenario's.
    """
    if not (t1 <= t2 <= t3):
        raise ValueError("need t1 <= t2 <= t3")
    back = sc_back if sc_back is not None else sc
    for name, t, scenario, inside in (("t1", t1, sc, t1 >= sc.a), ("t2", t2, back, t2 >= back.a),
                                      ("t3", t3, sc, t3 <= sc.b), ("t3", t3, back, t3 <= back.b)):
        if not inside:
            raise ValueError(f"{name} = {t!r} lies outside the scenario's [a, b]"
                             f" = [{scenario.a!r}, {scenario.b!r}]")
    w1 = _integral(sc.velocity_profile, t1, t2)
    w2 = _integral(back.velocity_profile, t2, t3)
    w3 = _integral(sc.velocity_profile, t1, t3)
    return EquilinearResult(w1=w1, w2=w2, w3=w3, residual=abs(w1 + w2 - w3))


def parallel_photon_offset(
    u: float, omega: float, c: float, dt_emit: float
) -> tuple[float, float]:
    """Transverse separation of two parallel-emitted photons after a medium
    recession omega: the hyperbolic value u·e^{omega/c}·dt_emit alongside the
    classical u·dt_emit."""
    if dt_emit <= 0:
        raise ValueError("emission gap must be positive")
    return (u * _rapidity_factor(omega, c) * dt_emit, u * dt_emit)


def count_trace(
    spec: LightClockSpec, omega: float, t1: float, n_pulses: int
) -> list[PulseCounts]:
    """Counter-reading table for successive radar pulses with immediate
    re-emission.

    Medium times follow the geometric law per pulse; the reflection count is
    the midpoint of emission and return counts, so every row satisfies
    tau3 = 2·tau2 − tau1, and each next pulse starts on the previous return.
    A pulse whose times or counts overflow raises ValueError naming it.
    """
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    if t1 <= 0:
        raise ValueError("invalid medium time: t1 must be positive")
    u = spec.time_unit_u
    q = _rapidity_factor(omega, spec.light_speed_c)
    rows: list[PulseCounts] = []
    start = t1
    for _ in range(n_pulses):
        mid = start * q
        end = start * q * q
        tau1 = start / u
        tau3 = end / u
        rows.append(PulseCounts(tau1, 0.5 * (tau1 + tau3), tau3, start, mid, end))
        start = end

    def overflows(row: PulseCounts) -> bool:
        # t3 and tau2 bound every other column of the row
        return not (math.isfinite(row.t3) and math.isfinite(row.tau2))

    # each column is monotone in the pulse index, so its extremes are the
    # first and the last row
    if overflows(rows[0]) or overflows(rows[-1]):
        first = next(i for i, row in enumerate(rows) if overflows(row))
        raise ValueError(f"pulse {first + 1} overflows: its medium times or counts are not finite")
    return rows

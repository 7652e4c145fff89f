"""Medium-propagation integrator.

Propagation distance obeys s(t) = t·∫ v(x)/x dx, so the medium velocity
between two times is the log-kernel integral ∫ v(x)/x dx; for a constant
profile that integral is additive in log-time, which is exactly what makes
radar round trips geometric: t2 = sqrt(t1·t3).

The log-kernel integral is taken in s = ln x, where it is the smooth
∫ v(e^s) ds, by an adaptive Gauss–Kronrod 7–15 rule with the QUADPACK
abscissae, weights and error scaling (Piessens et al., *QUADPACK*, 1983).
Each of the rule's sums adds its terms from 0.0 in ascending-abscissa order,
one rounding at a time, so the same input gives the same bits on Python
3.10–3.13 (``sum`` of floats compensates from 3.12 on).  The subinterval
with the largest error estimate is bisected until the integral is finite and
the summed estimate is at most max(1e-12, 1e-12·|integral|).  If 200
subintervals do not reach that, a subinterval can no longer be halved, or the
estimate is not finite, the best estimate is returned with an
``IntegrationWarning``; a non-finite one is refused.  A medium velocity's
witness is read from the interval's ends, then from a 257-point grid, and one
found inside a sign change, by ITP, is checked against the mean-value equation.
"""

from __future__ import annotations

import heapq
import math
import sys
import warnings
from collections.abc import Callable
from operator import mul

from . import SPEED_OF_LIGHT, _linspace, _positive, _record, clocks, radar

_QUAD_TOL = 1e-12
_QUAD_LIMIT = 200  # subintervals
_WITNESS_TOL = 1e-6  # the largest |g(t*)| a bisected witness may leave, relative
_NO_WITNESS = "no mean-value witness found; is the profile continuous?"

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
    """QUADPACK qk15 on ∫_a^b v(e^s) ds: the Kronrod estimate and its error.
    v is called once per abscissa, in ascending-abscissa order.  Each sum
    adds its weight × value terms from 0.0 in that order, as ``sum`` did up
    to Python 3.11, uncompensated."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    exp = math.exp
    # centre - half·x is centre + half·(-x) bit for bit
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    f0 = v(exp(centre - half * x0))
    f1 = v(exp(centre - half * x1))
    f2 = v(exp(centre - half * x2))
    f3 = v(exp(centre - half * x3))
    f4 = v(exp(centre - half * x4))
    f5 = v(exp(centre - half * x5))
    f6 = v(exp(centre - half * x6))
    f7 = v(exp(centre))
    f8 = v(exp(centre + half * x6))
    f9 = v(exp(centre + half * x5))
    f10 = v(exp(centre + half * x4))
    f11 = v(exp(centre + half * x3))
    f12 = v(exp(centre + half * x2))
    f13 = v(exp(centre + half * x1))
    f14 = v(exp(centre + half * x0))
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK  # k7 weighs the centre, f7
    g0, g1, g2, g3 = _WG  # g3 weighs the centre; the even positions weigh 0
    resk = (0.0 + k0 * f0 + k1 * f1 + k2 * f2 + k3 * f3 + k4 * f4 + k5 * f5 + k6 * f6 + k7 * f7
            + k6 * f8 + k5 * f9 + k4 * f10 + k3 * f11 + k2 * f12 + k1 * f13 + k0 * f14)
    resg = 0.0 + g0 * f1 + g1 * f3 + g2 * f5 + g3 * f7 + g2 * f9 + g1 * f11 + g0 * f13
    resabs = (0.0 + k0 * abs(f0) + k1 * abs(f1) + k2 * abs(f2) + k3 * abs(f3) + k4 * abs(f4)
              + k5 * abs(f5) + k6 * abs(f6) + k7 * abs(f7) + k6 * abs(f8) + k5 * abs(f9)
              + k4 * abs(f10) + k3 * abs(f11) + k2 * abs(f12) + k1 * abs(f13) + k0 * abs(f14))
    mean = 0.5 * resk
    resasc = (0.0 + k0 * abs(f0 - mean) + k1 * abs(f1 - mean) + k2 * abs(f2 - mean)
              + k3 * abs(f3 - mean) + k4 * abs(f4 - mean) + k5 * abs(f5 - mean)
              + k6 * abs(f6 - mean) + k7 * abs(f7 - mean) + k6 * abs(f8 - mean)
              + k5 * abs(f9 - mean) + k4 * abs(f10 - mean) + k3 * abs(f11 - mean)
              + k2 * abs(f12 - mean) + k1 * abs(f13 - mean) + k0 * abs(f14 - mean))
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
    0.0 without calling v when lo == hi, refused where it is not finite."""
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
                stacklevel=3,  # the caller of the public kernel that integrates
            )
            break
        heapq.heappop(heap)
        for left, right in ((a, mid), (mid, b)):
            value, err = _gk15(v, left, right)
            heapq.heappush(heap, (-err, left, right, value))
        total = math.fsum(item[3] for item in heap)
        error = math.fsum(-item[0] for item in heap)
    if not math.isfinite(total):
        raise ValueError(f"the log-kernel integral over [{lo!r}, {hi!r}] is {total!r}; "
                         "the velocity profile must be finite there")
    return total


def distance_profile(sc: PropagationScenario, t: float) -> float:
    """s(t) = t·∫_{t1}^{t} v(x)/x dx, with s(t1) initialized to zero."""
    if not (sc.t1 <= t <= sc.b):
        raise ValueError("t must lie in [t1, b]")
    return t * _log_kernel_integral(sc.velocity_profile, sc.t1, t)


def _bisect(f, a: float, b: float, fa: float, fb: float) -> tuple[float, float | None]:
    """A root of f in [a, b] and f's value there, given fa = f(a) and
    fb = f(b), which must not have the same sign: an end or a probe where f
    is zero, with that zero, else the midpoint once the bracket is within
    4e-16 of it relatively (or after 200 steps), with None: f was not read
    there.

    Each step probes where ITP does (Oliveira and Takahashi, ACM TOMS 47(1),
    2021), with k1 = 0.2/(b − a), k2 = 2 and n0 = 1: the regula falsi point,
    moved k1·w² towards the midpoint m of the bracket of width w, then within
    the radius of m that keeps ITP at most one step behind bisection's
    worst case for reaching ε = 2e-16·min(|a|, |b|).
    """
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if fa * fb > 0:
        raise ValueError("bisection bracket does not straddle a root")
    k1 = 0.2 / (b - a)
    eps = 2.0e-16 * min(abs(a), abs(b)) or math.ulp(0.0)  # an end at 0: the least float
    reach = math.ldexp(eps, math.ceil(math.log2(b - a) - math.log2(eps)))  # ε·2^(n_half + n0)
    for _ in range(200):
        m = 0.5 * (a + b)
        w = b - a
        tol = abs(m) * 4.0e-16
        if w <= tol:
            return m, None
        xf = a + w * (fa / (fa - fb))  # the regula falsi point
        off = m - xf
        size = off if off > 0.0 else -off
        # x steps from xf towards m by k1·w², but at least tol/2, so that it
        # cannot round onto an end, at least to within r = reach - w/2 of m,
        # and at most to m (if-statements: builtin calls cost more here)
        step = k1 * w * w
        if step < 0.5 * tol:
            step = 0.5 * tol
        if step < size - reach + 0.5 * w:
            step = size - reach + 0.5 * w
        if step > size:
            step = size
        x = xf + step if off > 0.0 else xf - step
        fx = f(x)
        if fx == 0.0:
            return x, fx
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        reach *= 0.5
    return 0.5 * (a + b), None


def medium_velocity(
    sc: PropagationScenario, t_start: float, t_end: float
) -> MediumVelocity:
    """omega = ∫_{t_start}^{t_end} v(x)/x dx plus the mean-value witness.

    Continuity of v guarantees a t* in [t_start, t_end] where the gap
    g(t) = v(t)·ln(t_end/t_start) − omega is zero.  g is read at the ends,
    then, where they do not settle t*, on a 257-point grid that shares them:
    t* is the point of least |g| if that is within 1e-12·max(1, max|g|), else
    the ITP root of the first sign change (a constant v costs 2 calls),
    refused where |g(t*)| is above 1e-6·max(|omega|, max|g|), as at a jump.
    A span whose t_end/t_start overflows is refused, naming both ends.
    """
    if not (sc.a <= t_start < t_end <= sc.b):
        raise ValueError("need a <= t_start < t_end <= b")
    ratio = t_end / t_start
    if ratio == math.inf:  # an inf log_span makes every gap inf, which passes the grid test
        raise ValueError(f"t_end/t_start overflows: t_start = {t_start!r}, t_end = {t_end!r}")
    v = sc.velocity_profile
    omega = _log_kernel_integral(v, t_start, t_end)
    log_span = math.log(ratio)

    def gap(t):
        return v(t) * log_span - omega

    g0, g1 = gap(t_start), gap(t_end)
    for n in (2, 257):
        grid = _linspace(t_start, t_end, n)  # its ends are t_start and t_end
        values = [g0, *map(gap, grid[1:-1]), g1]
        sizes = list(map(abs, values))
        smallest = min(sizes)
        if smallest <= 1e-12 * max(1.0, max(sizes)):
            witness = grid[sizes.index(smallest)]
            return MediumVelocity.__new__(MediumVelocity, omega=omega, witness=witness)
        # every |g| is beyond the tolerance here, so no product underflows
        for i, product in enumerate(map(mul, values, values[1:])):
            if product <= 0.0:
                t, g = _bisect(gap, *grid[i:i + 2], *values[i:i + 2])
                if g is None:  # a root where a probe found g = 0 is not read again
                    g = gap(t)
                # a jump in v changes g's sign with no root: bisected, it leaves |g| large
                if abs(g) > _WITNESS_TOL * max(abs(omega), max(sizes)):
                    raise ValueError(_NO_WITNESS)
                return MediumVelocity.__new__(MediumVelocity, omega=omega, witness=t)
    raise ValueError(_NO_WITNESS)


def _require_constant_profile(sc: PropagationScenario) -> None:
    a, b, v = sc.a, sc.b, sc.velocity_profile
    step = (b - a) / 100
    vals = [v(i * step + a) for i in range(100)]  # _linspace(a, b, 101), bit for bit
    vals.append(v(b))
    # a NaN or inf makes the sum non-finite, and finite values near the float
    # limit can overflow it, which the per-value scan then lets through; fsum
    # adds them as floats, so numpy values raise no overflow warning
    try:
        finite = math.isfinite(math.fsum(vals))
    except (OverflowError, ValueError):  # an overflowing partial sum, or inf - inf
        finite = False
    if not finite and not all(map(math.isfinite, vals)):
        i = list(map(math.isfinite, vals)).index(False)
        raise ValueError(f"round trip requires a finite propagation speed; the profile is "
                         f"{vals[i]!r} at t = {_linspace(a, b, 101)[i]!r}")
    lo, hi = float(min(vals)), float(max(vals))
    if hi - lo > 1e-12 * max(1.0, hi, -lo):  # max(|v|) is max(hi, -lo)
        raise ValueError(
            "round trip requires a constant to-and-fro propagation speed; "
            "the supplied profile varies over [a, b]"
        )


def roundtrip(sc: PropagationScenario, omega: float, t1: float) -> radar.RadarRecord:
    """Radar record (t1, t1·e^{omega/c}, t1·e^{2omega/c}) for a constant
    profile; the geometric-mean law holds by construction."""
    _require_constant_profile(sc)
    return radar.record_from_rapidity(omega, sc.c, t1)


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
    w1 = _log_kernel_integral(sc.velocity_profile, t1, t2)
    w2 = _log_kernel_integral(back.velocity_profile, t2, t3)
    w3 = _log_kernel_integral(sc.velocity_profile, t1, t3)
    residual = abs(w1 + w2 - w3)
    return EquilinearResult.__new__(EquilinearResult, w1=w1, w2=w2, w3=w3, residual=residual)


def parallel_photon_offset(
    u: float, omega: float, c: float, dt_emit: float
) -> tuple[float, float]:
    """Transverse separation of two parallel-emitted photons after a medium
    recession omega: the hyperbolic value u·e^{omega/c}·dt_emit alongside the
    classical u·dt_emit."""
    _positive("emission gap", dt_emit)
    return (u * radar._rapidity_factor(omega, c) * dt_emit, u * dt_emit)


def count_trace(
    spec: clocks.LightClockSpec, omega: float, t1: float, n_pulses: int
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
    _positive("invalid medium time: t1", t1)
    u = spec.time_unit_u
    q = radar._rapidity_factor(omega, spec.light_speed_c)
    rows: list[PulseCounts] = []
    new = PulseCounts.__new__  # the whole constructor: PulseCounts has no __init__
    start = t1
    for i in range(n_pulses):
        mid = start * q
        end = mid * q
        tau1 = start / u
        tau3 = end / u
        tau2 = 0.5 * (tau1 + tau3)
        # start is the last row's end, and end and tau2 bound the other columns
        if not (end < math.inf and tau2 < math.inf):
            raise ValueError(f"pulse {i + 1} overflows: its medium times or counts are not finite")
        rows.append(new(PulseCounts, tau1, tau2, tau3, start, mid, end))
        start = end
    return rows

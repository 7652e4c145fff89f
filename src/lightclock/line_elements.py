"""Potential-velocity line-element factory and evaluators.

Every metric here is built the same way: pick a potential velocity v (plus a
secondary term d), form the coefficient lambda = 1 − (v+d)²/c² (or the
complex-mode mirror 1 + (v+d)²/c²), and drop it into the radial or linear
quadratic form.  Substituting the Newtonian escape velocity sqrt(2GM/R) gives
the Schwarzschild family; an expansion velocity R/a gives the
Robertson-Walker form.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable

from . import GRAVITATIONAL_CONSTANT, LAMBDA_UNITS, SPEED_OF_LIGHT, _bisect, _record, infinitesimals


@_record
class LambdaFactor:
    """Metric coefficient lambda built from a velocity pair (v, d).

    v and d may be numbers or callables of (R, t).  Real mode gives
    1 − (v+d)²/c²; complex mode (a pure-imaginary velocity, modelling the
    reversed process) gives 1 + (v+d)²/c².
    """

    v: float | Callable[..., float]
    d: float | Callable[..., float] = 0.0
    c: float = SPEED_OF_LIGHT
    mode: str = "real"

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise ValueError("mode must be 'real' or 'complex'")

    def velocity(self, R: float | None = None, t: float = 0.0) -> float:
        v = self.v(R, t) if callable(self.v) else self.v
        d = self.d(R, t) if callable(self.d) else self.d
        return v + d

    def value(self, R: float | None = None, t: float = 0.0) -> float:
        w = self.velocity(R, t) / self.c
        return 1.0 + w * w if self.mode == "complex" else 1.0 - w * w


@_record
class GravitySource:
    """Spherical source as the formulas read it: its Schwarzschild radius
    r0 = 2GM/c², the light speed and a cosmological constant in m^-2.  Build
    one from r0 with source_from_r0 or from a mass with source_from_mass."""

    schwarzschild_r0: float  # m
    c: float = SPEED_OF_LIGHT  # m/s
    lambda_per_m2: float = 0.0  # m^-2

    def __post_init__(self):
        if not (0.0 <= self.schwarzschild_r0 < math.inf and 0.0 < self.c < math.inf
                and abs(self.lambda_per_m2) < math.inf):
            raise ValueError(f"a source needs a finite r0 >= 0 and c > 0 and a finite Lambda,"
                             f" got r0 = {self.schwarzschild_r0!r} m, c = {self.c!r} m/s"
                             f" and Lambda = {self.lambda_per_m2!r} m^-2")


def convert_lambda(value: float, unit: str, c: float) -> float:
    """A cosmological constant given in ``unit`` (one of LAMBDA_UNITS),
    converted to m^-2."""
    if unit == "s^-2":
        return value / (c * c)
    if unit == "cm^-2":
        return value * 1.0e4
    return value


def source_from_r0(
    r0: float,
    c: float = SPEED_OF_LIGHT,
    Lambda: float = 0.0,
    lambda_unit: str = "s^-2",
) -> GravitySource:
    """A source of Schwarzschild radius r0 (m), with Lambda in ``lambda_unit``."""
    if lambda_unit not in LAMBDA_UNITS:
        raise ValueError(f"lambda_unit must be one of {LAMBDA_UNITS}, got {lambda_unit!r}")
    return GravitySource(r0, c, convert_lambda(Lambda, lambda_unit, c))


def source_from_mass(
    mass: float,
    G: float = GRAVITATIONAL_CONSTANT,
    c: float = SPEED_OF_LIGHT,
    Lambda: float = 0.0,
    lambda_unit: str = "s^-2",
) -> GravitySource:
    """A source of mass ``mass`` (kg), whose Schwarzschild radius is 2GM/c²."""
    if not mass >= 0:
        raise ValueError("mass must be non-negative")
    r0 = 2.0 * G * mass / (c * c)
    if not 0.0 <= r0 < math.inf:
        raise ValueError(f"the Schwarzschild radius 2GM/c² of mass {mass!r} kg with G = {G!r}"
                         f" is not finite and non-negative ({r0!r} m)")
    return source_from_r0(r0, c, Lambda, lambda_unit)


@_record
class MetricPoint:
    """Radial coordinate, polar angle and the four coordinate differentials
    (plain floats or Dual numbers)."""

    R: float
    theta: float = math.pi / 2.0
    dt: object = 0.0
    dR: object = 0.0
    dtheta: object = 0.0
    dphi: object = 0.0


# ---------------------------------------------------------------------------
# interval evaluators


def minkowski_interval(dt, dx, dy, dz, c: float):
    """Chronotopic interval c²dt² − dx² − dy² − dz²."""
    return (c * dt) * (c * dt) - dx * dx - dy * dy - dz * dz


def radial_form(lam_val: float, dt, dR, c: float):
    """lambda·(c dt)² − dR²/lambda, shared by the radial and linear forms."""
    return lam_val * (c * dt) * (c * dt) - (dR * dR) / lam_val


def angular_term(R, theta, dtheta, dphi):
    """R²(sin²θ dφ² + dθ²)."""
    return (R * R) * (math.sin(theta) ** 2 * dphi * dphi + dtheta * dtheta)


def radial_interval(lam: LambdaFactor, p: MetricPoint, c: float):
    """lambda·(c dt)² − dR²/lambda − R²(sin²θ dφ² + dθ²)."""
    lam_val = lam.value(p.R)
    return radial_interval_value(lam_val, p, c)


def radial_interval_value(lam_val: float, p: MetricPoint, c: float):
    if lam_val == 0.0:
        raise ValueError(f"singular surface: lambda vanishes at R={p.R}")
    return radial_form(lam_val, p.dt, p.dR, c) - angular_term(p.R, p.theta, p.dtheta, p.dphi)


def linear_interval(lam: LambdaFactor, dt, dr, c: float):
    """lambda·(c dt)² − dr²/lambda, the one-dimensional (linear-effect) form."""
    lam_val = lam.value()
    if lam_val == 0.0:
        raise ValueError("singular surface: lambda vanishes")
    return radial_form(lam_val, dt, dr, c)


def schwarzschild_lambda(src: GravitySource, R: float) -> float:
    """1 − r0/R for R strictly outside the Schwarzschild radius."""
    r0 = src.schwarzschild_r0
    if R <= r0:
        raise ValueError(
            f"R={R} is at or inside the Schwarzschild radius r0={r0}; "
            "use the transition module for the interior"
        )
    return 1.0 - r0 / R


def potential_velocity(src: GravitySource, R: float) -> float:
    """Newtonian escape velocity sqrt(2GM/R) = c·sqrt(r0/R)."""
    if R <= 0:
        raise ValueError("R must be positive")
    return src.c * math.sqrt(src.schwarzschild_r0 / R)


def modified_schwarzschild_lambda(src: GravitySource, R: float) -> float:
    """1 − r0/R − (1/3)·Lambda·R², Lambda in m^-2; the de Sitter factor at r0 = 0."""
    if R <= 0:
        raise ValueError("R must be positive")
    return modified_lambda(src.schwarzschild_r0, src.lambda_per_m2, R)


def modified_lambda(r0: float, lambda_per_m2: float, R: float) -> float:
    """1 − r0/R − (1/3)·Lambda·R² from the Schwarzschild radius r0 and
    Lambda in m^-2."""
    return 1.0 - r0 / R - lambda_per_m2 * R * R / 3.0


def null_radial_speed(lambda_value: float, c: float) -> float:
    """Coordinate light speed |dR/dt| = c·lambda on a radial null ray."""
    return c * abs(lambda_value)


def horizon_roots(src: GravitySource) -> list[float]:
    """Positive radii where the modified lambda vanishes, ascending.

    The zeros of 1 − r0/r − (1/3)Λr² are r = x/√Λ for the positive roots x of
    x³/3 − x + a with a = r0·√Λ, solved in x so that no power of a raw radius
    under- or overflows.  The cubic's minimum, a − 2/3 at x = 1, is negative
    when there are two roots, and they lie in the fixed brackets [a, 1.5a]
    and [1, 2].  An empty list means no horizon exists.
    """
    r0, lam = src.schwarzschild_r0, src.lambda_per_m2
    if lam < 0:
        raise ValueError("horizon scan requires Lambda >= 0")
    if lam == 0.0:
        return [r0] if r0 > 0 else []
    s = math.sqrt(lam)
    a = r0 * s

    def f(x: float) -> float:
        return x * x * x / 3.0 - x + a

    f_min = f(1.0)
    if f_min > 0.0:
        return []  # cubic never crosses: no horizon
    if f_min == 0.0:
        return [1.0 / s]
    outer = _bisect(f, 1.0, 2.0, f_min, f(2.0)) / s
    if r0 == 0.0:
        return [outer]
    # an a that underflows leaves the inner root at r0 itself
    return [_bisect(f, a, 1.5 * a, f(a), f(1.5 * a)) / s if a > 0.0 else r0, outer]


def cosmological_constant_for_horizon(r0: float, R: float) -> float:
    """Lambda (m^-2) that places a horizon exactly at radius R:
    3(1 − r0/R)/R²."""
    if R <= 0:
        raise ValueError("R must be positive")
    return 3.0 * (1.0 - r0 / R) / (R * R)


def robertson_walker_interval(a: float, p: MetricPoint, c: float):
    """(c dt)² − dR²/(1 − R²/(ca)²) − R²(sin²θ dφ² + dθ²) for expansion
    scale a (seconds)."""
    if a == 0:
        raise ValueError("expansion scale a must be nonzero")
    curvature = 1.0 - (p.R / (c * a)) ** 2
    if curvature <= 0.0:
        raise ValueError("curvature singularity in spatial factor: R >= c*a")
    angular = angular_term(p.R, p.theta, p.dtheta, p.dphi)
    return (c * p.dt) * (c * p.dt) - (p.dR * p.dR) / curvature - angular


def newtonian_first_approx(src: GravitySource, r: float, dt, dr, c: float):
    """(1 − 2GM/(rc²))(c dt)² − (1 + 2GM/(rc²))dr², valid for weak fields."""
    x = src.schwarzschild_r0 / r
    if x > 0.1:
        warnings.warn(
            f"2GM/(rc^2) = {x:.3g} exceeds 0.1; first approximation is unreliable",
            stacklevel=2,
        )
    return (1.0 - x) * (c * dt) * (c * dt) - (1.0 + x) * dr * dr


def radar_coordinate_time(
    src: GravitySource, R1: float, R2: float, c: float
) -> float:
    """Coordinate flight time of a radial pulse between R1 and R2:
    c·Δt = (R2 − R1) + r0·ln((R2 − r0)/(R1 − r0))."""
    r0 = src.schwarzschild_r0
    if R1 <= r0 or R2 <= r0:
        raise ValueError("both radii must lie outside the Schwarzschild radius")
    if R2 < R1:
        raise ValueError("R2 must not be less than R1")
    if r0 == 0.0:
        return (R2 - R1) / c
    return ((R2 - R1) + r0 * math.log((R2 - r0) / (R1 - r0))) / c


def infinitesimal_transform(eta: float, dRm, dTm):
    """Clock transformation dRs = dRm/η + sqrt(1−η)·dTm,
    dTs = sqrt(1−η)/η·dRm + dTm.

    The coefficients are tuned so the cross term cancels:
    dTs² − dRs² = η·dTm² − dRm²/η identically.
    """
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    root = math.sqrt(1.0 - eta)
    dRs = dRm / eta + root * dTm
    dTs = (root / eta) * dRm + dTm
    return dRs, dTs


@_record
class ExpansionRates:
    """Hubble rate, deceleration parameter and the optional density check."""

    H: float
    q: float
    friedmann_residual: float | None = None


def hubble_deceleration(
    a: Callable[[infinitesimals.Dual], infinitesimals.Dual],
    t: float,
    rho: float | None = None,
    G: float = GRAVITATIONAL_CONSTANT,
) -> ExpansionRates:
    """H = a'/a and q = −a·a''/a'² for a scale function a(t).

    a must accept Dual arguments.  One evaluation at the hyper-dual
    t + ε1 + ε2 (a Dual whose parts are Duals) gives a, a' and a'' with no
    difference step: a' is the ε1 coefficient and a'' the ε1ε2 one.  a and a'
    must be normal floats, and a'' finite and normal where a'²/a is not.  When
    a density rho is given the residual of q·H² = 4πGρ/3 is reported too.
    """
    Dual = infinitesimals.Dual
    y = a(Dual(Dual(t, 1.0), Dual(1.0, 0.0)))
    # y = (a + a'ε1) + (a' + a''ε1)ε2; a scale function that ignores its
    # argument may return a float, or a Dual with float parts
    lo, hi = (y.real, y.eps) if isinstance(y, Dual) else (y, 0.0)
    value, slope = (lo.real, lo.eps) if isinstance(lo, Dual) else (lo, 0.0)
    if value == 0.0:
        raise ValueError(f"scale function vanishes at t={t}")
    H = slope / value
    if H == 0.0:
        raise ValueError("Hubble rate vanishes; q undefined")
    curvature = hi.eps if isinstance(hi, Dual) else 0.0
    tiny = 2.2250738585072014e-308  # the least normal float; a part below it has lost digits
    if abs(value) < tiny or abs(slope) < tiny or abs(curvature) < tiny > abs(slope * H):
        raise ValueError(f"a, a' or a'' is below the normal float range at t={t}")
    # a/a' and a''/a' stay in range where a·a'' and a'^2 overflow or underflow
    q = -(value / slope) * (curvature / slope) + 0.0  # 0.0, not -0.0, for a linear a
    residual = None
    if rho is not None:
        residual = q * H * H - 4.0 * math.pi * G * rho / 3.0
    return ExpansionRates(H=H, q=q, friedmann_residual=residual)

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
from dataclasses import dataclass

from . import GRAVITATIONAL_CONSTANT, LAMBDA_UNITS, SPEED_OF_LIGHT
from .infinitesimals import Dual


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GravitySource:
    """Spherical mass with its derived Schwarzschild radius and an optional
    cosmological constant whose unit must be declared explicitly."""

    mass_M: float  # kg
    G: float = GRAVITATIONAL_CONSTANT  # m^3 kg^-1 s^-2
    c: float = SPEED_OF_LIGHT  # m/s
    Lambda: float = 0.0
    lambda_unit: str = "s^-2"

    def __post_init__(self):
        if not self.mass_M >= 0:
            raise ValueError("mass must be non-negative")
        if self.lambda_unit not in LAMBDA_UNITS:
            raise ValueError(
                f"lambda_unit must be one of {LAMBDA_UNITS}, got {self.lambda_unit!r}"
            )
        if not math.isfinite(self.schwarzschild_r0):
            raise ValueError(f"the Schwarzschild radius 2GM/c² of mass {self.mass_M!r} kg"
                             f" with G = {self.G!r} is not finite")

    @property
    def schwarzschild_r0(self) -> float:
        """2GM/c² in meters."""
        return 2.0 * self.G * self.mass_M / (self.c * self.c)

    @property
    def lambda_per_m2(self) -> float:
        """Cosmological constant converted to m^-2."""
        return convert_lambda(self.Lambda, self.lambda_unit, self.c)


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
    G: float = GRAVITATIONAL_CONSTANT,
    Lambda: float = 0.0,
    lambda_unit: str = "s^-2",
) -> GravitySource:
    """Build a source directly from its Schwarzschild radius."""
    return GravitySource(
        mass_M=r0 * c * c / (2.0 * G), G=G, c=c,
        Lambda=Lambda, lambda_unit=lambda_unit,
    )


@dataclass(frozen=True)
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
    """Newtonian escape velocity sqrt(2GM/R)."""
    if R <= 0:
        raise ValueError("R must be positive")
    return math.sqrt(2.0 * src.G * src.mass_M / R)


def modified_schwarzschild_lambda(src: GravitySource, R: float) -> float:
    """1 − r0/R − (1/3)·Lambda·R² (Lambda taken in m^-2 after unit
    conversion).  With M = 0 this is the de Sitter factor."""
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


def _bisect(f, a: float, b: float, iterations: int = 200) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(iterations):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) <= abs(m) * 4.0e-16:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def horizon_roots(src: GravitySource) -> list[float]:
    """Positive radii where the modified lambda vanishes, ascending.

    The zeros of 1 − r0/r − (1/3)Λr² are the positive roots of the cubic
    (1/3)Λr³ − r + r0; brackets are located from the cubic's single interior
    minimum before bisecting, so nearly-double roots stay resolved.  An empty
    list means no horizon exists.
    """
    r0 = src.schwarzschild_r0
    lam3 = src.lambda_per_m2 / 3.0
    if src.lambda_per_m2 < 0:
        raise ValueError("horizon scan requires Lambda >= 0")

    def f(r: float) -> float:
        return lam3 * r**3 - r + r0

    if lam3 == 0.0:
        return [r0] if r0 > 0 else []

    r_star = 1.0 / math.sqrt(3.0 * lam3)  # f'(r_star) = 0
    f_star = f(r_star)
    roots: list[float] = []
    if f_star > 0.0:
        return roots  # cubic never crosses: no horizon
    if f_star == 0.0:
        return [r_star]
    if f(0.0) > 0.0:
        roots.append(_bisect(f, 0.0, r_star))
    hi = 3.0 * r_star
    while f(hi) <= 0.0:
        hi *= 2.0
    roots.append(_bisect(f, r_star, hi))
    return roots


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


@dataclass(frozen=True)
class ExpansionRates:
    """Hubble rate, deceleration parameter and the optional density check."""

    H: float
    q: float
    friedmann_residual: float | None = None


def hubble_deceleration(
    a: Callable[[Dual], Dual],
    t: float,
    rho: float | None = None,
    G: float = GRAVITATIONAL_CONSTANT,
) -> ExpansionRates:
    """H = a'/a and q = −(1 + H'/H²) for a scale function a(t).

    a must accept Dual arguments; a' comes from the dual ε-channel, H' from a
    central difference of the dual-computed H.  When a density rho is given
    the residual of q·H² = 4πGρ/3 is reported too.
    """

    def rate(at: float) -> float:
        y = a(Dual(at, 1.0))
        if not isinstance(y, Dual):
            y = Dual(float(y), 0.0)
        if y.real == 0.0:
            raise ValueError(f"scale function vanishes at t={at}")
        return y.eps / y.real

    H = rate(t)
    h = 1e-6 * max(abs(t), 1.0)
    dH_dt = (rate(t + h) - rate(t - h)) / (2.0 * h)
    if H == 0.0:
        raise ValueError("Hubble rate vanishes; q undefined")
    q = -(1.0 + dH_dt / (H * H))
    residual = None
    if rho is not None:
        residual = q * H * H - 4.0 * math.pi * G * rho / 3.0
    return ExpansionRates(H=H, q=q, friedmann_residual=residual)

"""Hyperbolic velocity-space solver.

Medium velocities live in a hyperbolic space with curvature scale c: the
triangle relations below (projection rule, sinh rule, cosh law) plus
tanh-addition of collinear projections are what force Einstein velocity
composition and the x-aligned Lorentz transformation.
"""

from __future__ import annotations

import math

from . import _non_negative, _positive, _record

_TOL = 1e-9  # how far a triangle may miss its relations and still be admissible


@_record
class VelocityTriangle:
    """Three medium speeds with the interior angle theta at the observer and
    exterior angle phi at the second position; p1 + p2 = omega3."""

    omega1: float
    omega2: float
    omega3: float
    theta: float  # rad, [0, pi/2]
    phi: float  # rad, [pi/2, pi]
    p1: float  # projection of omega1 on the omega3 axis
    p2: float  # projection of omega2 on the omega3 axis
    n: float  # hyperbolic normal
    c: float


@_record
class Event4:
    """Einstein-measure coordinates of an event."""

    t: float
    x: float
    y: float = 0.0
    z: float = 0.0


@_record
class BetaGamma:
    """beta = (1−v²/c²)^(−1/2), gamma = 1/beta; beta·gamma = 1."""

    v: float
    beta: float
    gamma: float


@_record
class TriangleEinstein:
    """Einstein velocities of a triangle with the three identity residuals.

    alpha = v3·v2·cosφ/c² carries the sign of cosφ (non-positive on the
    triangle's domain), so the couplings read v1·cosθ = (v3 + v2·cosφ)/(1+α),
    β1 = β2·β3·(1+α) and v1·sinθ = v2·sinφ/(β3(1+α)); at the collinear limit
    the first reduces to the velocity composition law.
    """

    v1: float
    v2: float
    v3: float
    residual_projection: float  # v1·cosθ − (v3 + v2·cosφ)/(1+α)
    residual_beta: float  # β1 − β2·β3·(1+α)
    residual_normal: float  # v1·sinθ − v2·sinφ/(β3(1+α))


def gamma_factor(v: float, c: float) -> float:
    """sqrt(1 − v²/c²) for a subluminal speed v, within 2 ulps however close
    |v| comes to c: 1 − |v|/c is formed as (c − |v|)/c, which does not cancel.
    A NaN v or c fails |v| < c, so it is refused as superluminal."""
    a = abs(v)
    if not a < c:
        raise ValueError("superluminal")
    return math.sqrt((c - a) / c * (1.0 + a / c)) if c != math.inf else 1.0


def beta_gamma(v: float, c: float) -> BetaGamma:
    g = gamma_factor(v, c)
    return BetaGamma.__new__(BetaGamma, v=v, beta=1.0 / g, gamma=g)


def compose_einstein(v1: float, v2: float, c: float) -> float:
    """Einstein addition (v1+v2)/(1+v1·v2/c²); tanh-addition of rapidities."""
    if not (abs(v1) < c and abs(v2) < c):  # NaN fails every comparison
        raise ValueError("superluminal")
    return (v1 + v2) / (1.0 + v1 * v2 / (c * c))


def solve_triangle(omega1: float, omega2: float, omega3: float, c: float) -> VelocityTriangle:
    """Solve the velocity triangle for the angles and projections.

    phi comes from the hyperbolic cosine law, theta from the sinh rule, and
    the projections must recompose to omega3; any failure (cos phi outside
    [−1, 0], sin theta > 1, p1 + p2 != omega3) means the three speeds do not
    form an admissible triangle.  The collinear branch (sin phi = 0) is taken
    when the cosine law pins phi at pi.
    """
    _non_negative("medium velocities", omega1, omega2, omega3)
    _positive("c", c)
    w1, w2, w3 = omega1 / c, omega2 / c, omega3 / c

    if omega2 == 0.0 or omega3 == 0.0:
        # P rides with F2 (or F2 with F1): phi degenerates to a right angle.
        if not math.isclose(omega1, omega3 if omega2 == 0 else omega2,
                            rel_tol=_TOL, abs_tol=_TOL):
            raise ValueError("degenerate velocity triangle")
        theta, phi, p1, p2, n = 0.0, math.pi / 2.0, omega3, 0.0, 0.0
    else:
        denom = math.sinh(w2) * math.sinh(w3)
        cos_phi = (math.cosh(w1) - math.cosh(w2) * math.cosh(w3)) / denom
        if cos_phi > _TOL or cos_phi < -1.0 - _TOL:
            raise ValueError("degenerate velocity triangle")
        cos_phi = min(0.0, max(-1.0, cos_phi))
        phi = math.acos(cos_phi)
        sin_phi = math.sin(phi)
        if sin_phi <= _TOL:
            # Collinear limit: the sinh rule is singular, the projections are
            # the speeds themselves.
            theta, phi, p1, p2, n = 0.0, math.pi, omega1, omega2, 0.0
        else:
            theta = 0.0
            if omega1 != 0.0:
                sin_theta = math.sinh(w2) * sin_phi / math.sinh(w1)
                if sin_theta > 1.0 + _TOL:
                    raise ValueError("degenerate velocity triangle")
                theta = math.asin(min(1.0, sin_theta))
            p1 = c * math.atanh(math.tanh(w1) * math.cos(theta))
            p2 = c * math.atanh(-math.tanh(w2) * cos_phi)
            n = c * math.asinh(math.sinh(w2) * sin_phi)

    # on the degenerate branch p1 + p2 is omega3 itself, which passes
    if abs((p1 + p2) - omega3) > _TOL * max(1.0, abs(omega3)):
        raise ValueError("degenerate velocity triangle")
    return VelocityTriangle.__new__(
        VelocityTriangle,
        omega1=omega1, omega2=omega2, omega3=omega3,
        theta=theta, phi=phi, p1=p1, p2=p2, n=n, c=c,
    )


def triangle_to_einstein(tri: VelocityTriangle) -> TriangleEinstein:
    """Map the triangle to Einstein velocities v_i = c·tanh(omega_i/c) and
    verify the three coupling identities, returning their residuals."""
    c = tri.c
    v1 = c * math.tanh(tri.omega1 / c)
    v2 = c * math.tanh(tri.omega2 / c)
    v3 = c * math.tanh(tri.omega3 / c)
    b1 = 1.0 / gamma_factor(v1, c)
    b2 = 1.0 / gamma_factor(v2, c)
    b3 = 1.0 / gamma_factor(v3, c)
    cos_t, sin_t = math.cos(tri.theta), math.sin(tri.theta)
    cos_p, sin_p = math.cos(tri.phi), math.sin(tri.phi)
    alpha = v3 * v2 * cos_p / (c * c)

    r_proj = v1 * cos_t - (v3 + v2 * cos_p) / (1.0 + alpha)
    r_beta = b1 - b2 * b3 * (1.0 + alpha)
    r_norm = v1 * sin_t - v2 * sin_p / (b3 * (1.0 + alpha))
    scale = max(1.0, abs(v1), abs(b1))
    if max(abs(r_proj), abs(r_beta), abs(r_norm)) > _TOL * scale:
        raise ValueError("triangle identity violation")
    return TriangleEinstein.__new__(
        TriangleEinstein,
        v1=v1, v2=v2, v3=v3,
        residual_projection=r_proj,
        residual_beta=r_beta,
        residual_normal=r_norm,
    )


def lorentz_transform(e2: Event4, v3: float, c: float) -> Event4:
    """x-aligned boost: t1 = β3(t2 − v3·x2/c²), x1 = β3(x2 − v3·t2)."""
    b3 = 1.0 / gamma_factor(v3, c)
    return Event4.__new__(
        Event4,
        t=b3 * (e2.t - v3 * e2.x / (c * c)),
        x=b3 * (e2.x - v3 * e2.t),
        y=e2.y,
        z=e2.z,
    )


def interval(e: Event4, c: float) -> float:
    """c²t² − x² − y² − z² of an event; (ct − x)(ct + x) keeps its bits near the light cone."""
    return (c * e.t - e.x) * (c * e.t + e.x) - e.y * e.y - e.z * e.z

"""Hypersmooth bridge between the exterior Schwarzschild form and the
interior black-hole form.

The bridge profile is a C¹ piecewise function of x = lambda with a finite
width parameter k standing in for the ideal infinitesimal: a hyperbola
1/(x − k) for x ≤ 0, a cubic for 0 < x ≤ 2k, and identically zero beyond 2k
(so the exterior metric is untouched).  Composing it with lambda(R) and
standardizing yields the clock-damping coefficient of the time
transformation dU = dt + f·dR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .line_elements import (
    GravitySource,
    MetricPoint,
    radial_interval_value,
    schwarzschild_lambda,
)


class _Unbounded:
    """Sentinel for a value with no real standard part."""

    def __repr__(self):
        return "unbounded"


#: returned where the damping coefficient has no real standard part
UNBOUNDED = _Unbounded()


def middle_branch(x, k: float):
    """Cubic −x³/(2k⁴) + 7x²/(4k³) − x/k² − 1/k joining the two outer
    branches with matching value and slope."""
    if k <= 0:
        raise ValueError("k must be positive")
    k2 = k * k
    return -(x**3) / (2.0 * k2 * k2) + 7.0 * x * x / (4.0 * k2 * k) - x / k2 - 1.0 / k


def transition_profile(x, k: float):
    """C¹ bridge profile; accepts scalars or numpy arrays."""
    if k <= 0:
        raise ValueError("k must be positive")
    arr = np.asarray(x, dtype=float)
    out = np.piecewise(
        arr,
        [arr <= 0.0, (arr > 0.0) & (arr <= 2.0 * k)],
        [lambda s: 1.0 / (s - k), lambda s: middle_branch(s, k), 0.0],
    )
    return float(out) if arr.ndim == 0 else out


def transition_profile_prime(x, k: float):
    """Branchwise derivative of the bridge profile; continuous everywhere
    (value −1/k² at the inner junction, 0 at the outer one)."""
    if k <= 0:
        raise ValueError("k must be positive")
    k2 = k * k

    def d_mid(s):
        return -3.0 * s * s / (2.0 * k2 * k2) + 7.0 * s / (2.0 * k2 * k) - 1.0 / k2

    arr = np.asarray(x, dtype=float)
    out = np.piecewise(
        arr,
        [arr <= 0.0, (arr > 0.0) & (arr <= 2.0 * k)],
        [lambda s: -1.0 / ((s - k) ** 2), d_mid, 0.0],
    )
    return float(out) if arr.ndim == 0 else out


def damping_factor(R: float, src: GravitySource):
    """Standard part of the clock-damping coefficient at radius R.

    1/(c·lambda) inside the Schwarzschild radius (lambda negative there),
    exactly 0 outside, and the UNBOUNDED sentinel on the surface itself where
    no real standard part exists (its product with any dR still standardizes
    to 0, so interval assembly drops the term).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    r0 = src.schwarzschild_r0
    if R > r0:
        return 0.0
    if R == r0:
        return UNBOUNDED
    lam = 1.0 - r0 / R
    return 1.0 / (src.c * lam)


def black_hole_interval(lamval, dU, dR, R, theta, dtheta, dphi, c: float):
    """Interior form lambda·(c dU)² − 2c·dU·dR − R²(sin²θ dφ² + dθ²);
    note there is no dR² term."""
    return (
        lamval * (c * dU) * (c * dU)
        - 2.0 * c * dU * dR
        - (R * R) * (math.sin(theta) ** 2 * dphi * dphi + dtheta * dtheta)
    )


def transformed_radial_interval(src: GravitySource, p: MetricPoint):
    """Assemble the time-transformed interval at p.R.

    Outside the Schwarzschild radius the damping vanishes and the exterior
    Schwarzschild radial form is reproduced verbatim (p.dt is the exterior
    time differential).  On and inside the surface the interior form applies
    with p.dt read as dU; the surface's unbounded damping contributes nothing
    because its product with dR standardizes to zero.
    """
    c = src.c
    r0 = src.schwarzschild_r0
    if p.R > r0:
        return radial_interval_value(schwarzschild_lambda(src, p.R), p, c)
    lam = 1.0 - r0 / p.R
    return black_hole_interval(lam, p.dt, p.dR, p.R, p.theta, p.dtheta, p.dphi, c)


@dataclass(frozen=True)
class PartialInterval:
    value: float
    branch: str  # "interior", "transition", "exterior"


def partial_interval(
    region_lambda: float, k: float, dtime, dR, c: float
) -> PartialInterval:
    """Radial partial line element for the region selected by lambda.

    lambda < 0 uses the interior form (dtime is dU); lambda > 2k uses the
    shifted exterior form (dtime is dt); in between the transition form
    couples the two through the middle branch of the bridge profile.  The
    boundary values 0 and 2k are assigned by continuity.  The transition
    form is singular at lambda = k, where the transformation has no local
    inverse.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    lam = region_lambda
    if lam <= 0.0:
        value = (lam - k) * (c * dtime) * (c * dtime) - 2.0 * c * dtime * dR
        return PartialInterval(value=value, branch="interior")
    if lam >= 2.0 * k:
        value = (lam - k) * (c * dtime) * (c * dtime) - (dR * dR) / (lam - k)
        return PartialInterval(value=value, branch="exterior")
    if lam == k:
        raise ValueError("transition singularity at lambda=k")
    g = middle_branch(lam, k)
    shifted = dtime - g * dR / c
    value = (lam - k) * (c * shifted) * (c * shifted) - (dR * dR) / (lam - k)
    return PartialInterval(value=value, branch="transition")


def photon_families(lamval: float, k: float, c: float) -> tuple[float, float]:
    """Coordinate speeds ±c(lambda − k) of the two photon families in the
    transition zone 0 < lambda ≤ 2k."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not (0.0 < lamval <= 2.0 * k):
        raise ValueError("transition zone requires 0 < lambda <= 2k")
    speed = c * (lamval - k)
    return (speed, -speed)

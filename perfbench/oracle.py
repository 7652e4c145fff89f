"""Closed-form expectations for the program's outputs.

Nothing here imports lightclock: every expected value is written out from
the documented formula, so a defect in the program cannot also hide in its
oracle.  A check raises ``Wrong`` with a short reason when an output is not
right.  Non-finite output is always a failure.
"""

from __future__ import annotations

import json
import math

REL = 1e-9  # formulas evaluated in another order agree far closer than this


class Wrong(Exception):
    """An output that disagrees with its closed form."""


def close(name: str, got, want: float, rel: float = REL, abs_tol: float = 0.0) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Wrong(f"{name}: expected a number, got {got!r}")
    if not math.isfinite(got):
        raise Wrong(f"{name}: non-finite {got!r}")
    if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        raise Wrong(f"{name}: got {got!r}, want {want!r}")


def equal(name: str, got, want) -> None:
    if got != want:
        raise Wrong(f"{name}: got {got!r}, want {want!r}")


def _reject_constant(token: str):
    raise Wrong(f"non-finite JSON constant {token}")


def parse_json(stdout: bytes) -> dict:
    """Strict JSON object: NaN and Infinity are failures, not values."""
    try:
        obj = json.loads(stdout.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise Wrong("stdout is not a JSON object")
    return obj


# -- formulas ---------------------------------------------------------------


def admissible_triangle(rng) -> tuple[float, float, float, float]:
    """(w1, w2, w3, cos phi) of a velocity triangle in units of c, built from
    the hyperbolic cosine law with the exterior angle phi in (pi/2, pi) and
    the observer's angle theta kept acute (cos theta >= 0.05)."""
    while True:
        w2, w3, cp = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(-0.95, -0.05)
        w1 = math.acosh(math.cosh(w2) * math.cosh(w3) + math.sinh(w2) * math.sinh(w3) * cp)
        cos_theta = (math.cosh(w1) * math.cosh(w3) - math.cosh(w2)) / (
            math.sinh(w1) * math.sinh(w3))
        if cos_theta >= 0.05:
            return w1, w2, w3, cp


def compose(v1: float, v2: float, c: float) -> float:
    """Einstein composition as tanh-addition of rapidities."""
    return c * math.tanh(math.atanh(v1 / c) + math.atanh(v2 / c))


def modified_lambda(r0: float, Lambda_m2: float, R: float) -> float:
    return 1.0 - r0 / R - Lambda_m2 * R * R / 3.0


def bridge(x: float, k: float) -> tuple[float, float]:
    """The three branches of the bridge profile and their derivatives."""
    if x <= 0.0:
        return 1.0 / (x - k), -1.0 / (x - k) ** 2
    if x <= 2.0 * k:
        h = -(x**3) / (2 * k**4) + 7 * x * x / (4 * k**3) - x / k**2 - 1 / k
        dh = -3 * x * x / (2 * k**4) + 7 * x / (2 * k**3) - 1 / k**2
        return h, dh
    return 0.0, 0.0


def partial_interval(lam: float, k: float, dt: float, dR: float, c: float):
    """(value, branch) of the radial partial line element."""
    if lam <= 0.0:
        return (lam - k) * (c * dt) ** 2 - 2 * c * dt * dR, "interior"
    if lam >= 2 * k:
        return (lam - k) * (c * dt) ** 2 - dR * dR / (lam - k), "exterior"
    g, _ = bridge(lam, k)
    shifted = dt - g * dR / c
    return (lam - k) * (c * shifted) ** 2 - dR * dR / (lam - k), "transition"


def log_kernel(profile: tuple, lo: float, hi: float) -> float:
    """∫_lo^hi v(x)/x dx for the three benchmark profiles:
    ("const", C), ("power", A, p) for A·t^p and ("log", a) for a·ln t."""
    kind = profile[0]
    if kind == "const":
        return profile[1] * math.log(hi / lo)
    if kind == "power":
        _, A, p = profile
        return A * (hi**p - lo**p) / p
    if kind == "log":
        a = profile[1]
        return 0.5 * a * (math.log(hi) ** 2 - math.log(lo) ** 2)
    raise ValueError(kind)


def profile_value(profile: tuple, t: float) -> float:
    kind = profile[0]
    if kind == "const":
        return profile[1]
    if kind == "power":
        return profile[1] * t ** profile[2]
    return profile[1] * math.log(t)


def horizon_root_count(r0: float, Lambda_m2: float) -> int:
    """Number of positive zeros of 1 − r0/r − Λr²/3 (Λ > 0, r0 > 0): two when
    the cubic's minimum r0 − 2/(3√Λ) is negative."""
    return 2 if r0 - 2.0 / (3.0 * math.sqrt(Lambda_m2)) < 0.0 else 0

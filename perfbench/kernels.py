"""Seeded library call batches for the lib-kernels and lib-medium workloads.

A batch is a list of ``Call``s, each a public lightclock function with one
input drawn from its documented domain and a closed-form check of its
result.  Inputs are drawn with ``random.Random(seed)`` only; the lightclock
objects a call needs (records, sources, scenarios) are built from them when
the batch is built, outside any timed region.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable

from oracle import Wrong, admissible_triangle, bridge, close, equal, log_kernel, partial_interval, profile_value

PER_FUNCTION = 16  # seeded inputs per function in one batch
ARRAY_POINTS = 1_000_000


@dataclass
class Call:
    layer: str
    name: str  # per-layer metric stem, e.g. "transition_profile_scalar"
    fn: Callable
    args: tuple
    check: Callable[[object], None]
    integrals: int = 0  # log-kernel integrals the call performs


def _interleave(groups: list[list[Call]]) -> list[Call]:
    """Round-robin over functions so a pass mixes every layer evenly."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _group(layer, name, fn, make, n=PER_FUNCTION, integrals=0) -> list[Call]:
    calls = []
    for _ in range(n):
        args, check = make()
        calls.append(Call(layer, name, fn, args, check, integrals))
    return calls


# -- lib-kernels ----------------------------------------------------------------


def kernel_batch(seed: int, n: int = PER_FUNCTION) -> list[Call]:
    from lightclock import (
        alterations as al, clocks as cl, infinitesimals as inf, line_elements as le,
        radar as ra, transition as tr, velocity_space as vs,
    )

    rng = random.Random(seed)
    u = rng.uniform
    turn = itertools.count()  # branches and profiles take turns, the same for every seed
    G = []

    def add(layer, name, fn, make):
        G.append(_group(layer, name, fn, make, n))

    # radar
    def record():
        t1 = u(0.5, 5.0)
        t3 = t1 * u(1.01, 20.0)
        return t1, math.sqrt(t1 * t3), t3

    def einstein():
        t1, t2, t3 = record()

        def check(m):
            tE, rE = 0.5 * (t1 + t3), 0.5 * (t3 - t1)
            close("t_E", m.t_E, tE)
            close("r_E", m.r_E, rE)
            close("v_E", m.v_E, rE / tE)
            close("t2_pred", m.t2_pred, math.sqrt(1 - (rE / tE) ** 2) * tE)
        return (ra.RadarRecord(t1, t2, t3), 1.0), check

    def geometric():
        t1 = u(0.5, 5.0)
        q = 2.0 ** rng.randint(1, 6)
        off = rng.random() < 0.5
        rec = ra.RadarRecord(t1, t1 * q * (1.01 if off else 1.0), t1 * q * q * 1.03 if off else t1 * q * q)
        return (rec, 1e-12), (lambda r, w=not off: equal("geometric", r, w))

    def rapidity():
        v = u(-0.99, 0.99)
        return (v, 1.0), (lambda r: close("omega", r.omega, math.atanh(abs(v))))

    def from_rapidity():
        om, t1 = u(0.0, 3.0), u(0.5, 5.0)

        def check(r):
            close("t2", r.t2, t1 * math.exp(om))
            close("t3", r.t3, t1 * math.exp(2 * om))
        return (om, 1.0, t1), check

    add("radar", "einstein_measures", ra.einstein_measures, einstein)
    add("radar", "check_geometric_mean", ra.check_geometric_mean, geometric)
    add("radar", "rapidity_from_vE", ra.rapidity_from_vE, rapidity)
    add("radar", "record_from_rapidity", ra.record_from_rapidity, from_rapidity)

    # clocks
    def spec_pair():
        L, c = u(0.1, 10.0), u(0.5, 3.0)
        a = u(0.0, 100.0)
        b = a + u(0.0, 100.0)
        return L, c, a, b

    def time_counts():
        L, c, a, b = spec_pair()
        return (cl.LightClockSpec(L, c), cl.CountPair(a, b)), \
            (lambda r: close("time", r, L / c * (b - a), abs_tol=1e-12))

    def dist_counts():
        L, c, a, b = spec_pair()
        return (cl.LightClockSpec(L, c), cl.CountPair(a, b)), \
            (lambda r: close("distance", r, L * (b - a), abs_tol=1e-12))

    def counts_len():
        L = u(0.1, 10.0)
        r = (rng.randint(0, 1000) + u(-0.4, 0.4)) * L
        return (cl.LightClockSpec(L), r), (lambda got: equal("counts", got, round(r / L)))

    def diagram():
        L, c = u(0.1, 10.0), u(0.5, 3.0)
        a1 = u(0.0, 10.0)
        a3 = a1 + u(0.5, 10.0)
        b1 = a3 + u(0.0, 10.0)
        b3 = b1 + u(0.5, 10.0)
        p1, p2 = (a1, 0.5 * (a1 + a3), a3), (b1, 0.5 * (b1 + b3), b3)

        def check(m):
            te = 0.5 * ((b3 - a3) + (b1 - a1))
            re = 0.5 * ((b3 - a3) - (b1 - a1))
            close("t_E_counts", m.t_E_counts, te)
            close("r_E_counts", m.r_E_counts, re, abs_tol=1e-12)
            close("v_E", m.v_E, L * re / (L / c * te), abs_tol=1e-12)
        return (cl.LightClockSpec(L, c), p1, p2), check

    add("clocks", "time_from_counts", cl.time_from_counts, time_counts)
    add("clocks", "distance_from_counts", cl.distance_from_counts, dist_counts)
    add("clocks", "counts_for_length", cl.counts_for_length, counts_len)
    add("clocks", "einstein_from_count_diagram", cl.einstein_from_count_diagram, diagram)

    # velocity_space
    def bg():
        v = u(-0.99, 0.99)
        return (v, 1.0), (lambda r: close("gamma", r.gamma, math.sqrt(1 - v * v)))

    def comp():
        v1, v2 = u(-0.99, 0.99), u(-0.99, 0.99)
        return (v1, v2, 1.0), (lambda r: close("v3", r, math.tanh(math.atanh(v1) + math.atanh(v2)), abs_tol=1e-12))

    def solve():
        w1, w2, w3, cp = admissible_triangle(rng)

        def check(t):
            close("phi", t.phi, math.acos(cp), rel=1e-7)
            close("p1+p2", t.p1 + t.p2, w3, rel=1e-8)
        return (w1, w2, w3, 1.0), check

    def to_einstein():
        w1, w2, w3, _ = admissible_triangle(rng)

        def check(e):
            close("v1", e.v1, math.tanh(w1))
            close("v3", e.v3, math.tanh(w3))
            close("residual", max(abs(e.residual_projection), abs(e.residual_beta),
                                  abs(e.residual_normal)), 0.0, abs_tol=1e-8)
        return (vs.solve_triangle(w1, w2, w3, 1.0),), check

    def boost():
        t, x, v = u(0.5, 5.0), u(-3.0, 3.0), u(-0.9, 0.9)

        def check(e):
            b = 1 / math.sqrt(1 - v * v)
            close("t", e.t, b * (t - v * x), abs_tol=1e-12)
            close("x", e.x, b * (x - v * t), abs_tol=1e-12)
        return (vs.Event4(t, x), v, 1.0), check

    def ival():
        t, x, y, z = u(0, 5), u(-3, 3), u(-3, 3), u(-3, 3)
        return (vs.Event4(t, x, y, z), 1.0), \
            (lambda r: close("interval", r, t * t - x * x - y * y - z * z, abs_tol=1e-12))

    add("velocity_space", "beta_gamma", vs.beta_gamma, bg)
    add("velocity_space", "compose_einstein", vs.compose_einstein, comp)
    add("velocity_space", "solve_triangle", vs.solve_triangle, solve)
    add("velocity_space", "triangle_to_einstein", vs.triangle_to_einstein, to_einstein)
    add("velocity_space", "lorentz_transform", vs.lorentz_transform, boost)
    add("velocity_space", "interval", vs.interval, ival)

    # line_elements
    def source():
        r0, lam = u(0.5, 2.0), u(1e-4, 1e-3)
        return r0, lam, le.source_from_r0(r0, c=1.0, Lambda=lam, lambda_unit="m^-2")

    def schw():
        r0, _, src = source()
        R = r0 * u(1.01, 100.0)
        return (src, R), (lambda r: close("lambda", r, 1 - r0 / R))

    def modified():
        r0, lam, src = source()
        R = r0 * u(1.01, 10.0)
        return (src, R), (lambda r: close("lambda", r, 1 - r0 / R - lam * R * R / 3, abs_tol=1e-12))

    def radial():
        v, R, dt, dR, dph = u(0, 0.9), u(1, 10), u(0, 1), u(0, 1), u(0, 0.1)
        lam = 1 - v * v
        want = lam * dt * dt - dR * dR / lam - R * R * dph * dph
        return (le.LambdaFactor(v=v, c=1.0), le.MetricPoint(R=R, dt=dt, dR=dR, dphi=dph), 1.0), \
            (lambda r: close("ds2", r, want, rel=1e-8, abs_tol=1e-12))

    def potential():
        r0, _, src = source()
        R = r0 * u(1.01, 100.0)
        return (src, R), (lambda r: close("v", r, math.sqrt(r0 / R)))

    def coord_time():
        r0, _, src = source()
        R1 = r0 * u(1.1, 3.0)
        R2 = R1 + u(0.5, 10.0)
        want = (R2 - R1) + r0 * math.log((R2 - r0) / (R1 - r0))
        return (src, R1, R2, 1.0), (lambda r: close("dt", r, want))

    def inf_transform():
        eta, dR, dT = u(0.05, 1.0), u(-1, 1), u(-1, 1)

        def check(r):
            dRs, dTs = r
            close("invariant", dTs * dTs - dRs * dRs, eta * dT * dT - dR * dR / eta,
                  rel=1e-8, abs_tol=1e-9)
        return (eta, dR, dT), check

    def horizon():
        r0 = u(0.5, 2.0)
        lam = u(0.05, 0.4) * 4.0 / (9.0 * r0 * r0)
        src = le.source_from_r0(r0, c=1.0, Lambda=lam, lambda_unit="m^-2")

        def check(roots):
            equal("root count", len(roots), 2)
            for r in roots:
                close("cubic", lam / 3 * r**3 - r + r0, 0.0, abs_tol=1e-9 * r)
        return (src,), check

    def hubble():
        p, t = u(0.2, 3.0), u(1.0, 10.0)

        def check(r):
            close("H", r.H, p / t, rel=1e-7)
            close("q", r.q, 1 / p - 1, rel=1e-5, abs_tol=1e-6)
        return ((lambda tt, p=p: tt**p), t), check

    add("line_elements", "schwarzschild_lambda", le.schwarzschild_lambda, schw)
    add("line_elements", "modified_schwarzschild_lambda", le.modified_schwarzschild_lambda, modified)
    add("line_elements", "radial_interval", le.radial_interval, radial)
    add("line_elements", "potential_velocity", le.potential_velocity, potential)
    add("line_elements", "radar_coordinate_time", le.radar_coordinate_time, coord_time)
    add("line_elements", "infinitesimal_transform", le.infinitesimal_transform, inf_transform)
    add("line_elements", "horizon_roots", le.horizon_roots, horizon)
    add("line_elements", "hubble_deceleration", le.hubble_deceleration, hubble)

    # alterations
    def g_special():
        v = u(-0.99, 0.99)
        return (v, 1.0), (lambda r: close("gamma", r, math.sqrt(1 - v * v)))

    def g_grav():
        r0, _, src = source()
        R = r0 * u(1.01, 100.0)
        return (src, R), (lambda r: close("gamma", r, math.sqrt(1 - r0 / R)))

    def tdoppler():
        nu, g = u(1.0, 1e9), u(0.01, 1.0)
        return (nu, g), (lambda r: close("nu", r, g * nu))

    def total():
        nu, v = u(1.0, 1e9), u(0.0, 0.99)
        return (nu, v, 1.0), (lambda r: close("nu", r, nu * math.sqrt((1 - v) / (1 + v))))

    def decay():
        tau, g = u(1e-9, 1.0), u(0.01, 1.0)
        return (tau, g), (lambda r: close("tau", r, tau / g))

    def mass():
        m, g = u(1e-30, 1.0), u(0.01, 1.0)
        return (m, g), (lambda r: close("mass", r, m / g))

    def clock_compare():
        rs, rr = u(0.01, 0.9), u(1.5, 1e5)
        return (al.GravCompareInput(r_s=rs, r_P=1.0, r_R=rr),), \
            (lambda r: close("ratio", r, math.sqrt(1 - rs / rr) / math.sqrt(1 - rs)))

    def fcompare():
        gp, gr, nu = u(0.05, 1.0), u(0.05, 1.0), u(1.0, 1e9)
        return (gp, gr, nu), (lambda r: close("nu_p", r, math.sqrt(gr / gp) * nu))

    add("alterations", "gamma_special", al.gamma_special, g_special)
    add("alterations", "gamma_gravitational", al.gamma_gravitational, g_grav)
    add("alterations", "transverse_doppler", al.transverse_doppler, tdoppler)
    add("alterations", "total_doppler", al.total_doppler, total)
    add("alterations", "decay_lifetime", al.decay_lifetime, decay)
    add("alterations", "mass_alteration", al.mass_alteration, mass)
    add("alterations", "gravitational_clock_compare", al.gravitational_clock_compare, clock_compare)
    add("alterations", "frequency_compare", al.frequency_compare, fcompare)

    # transition: x spans all three branches of the bridge profile
    def bridge_x():
        k = u(1e-3, 1.0)
        return (u(-5 * k, 0.0), u(0.0, 2 * k), u(2 * k, 5 * k))[next(turn) % 3], k

    def profile():
        x, k = bridge_x()
        return (x, k), (lambda r: close("H", r, bridge(x, k)[0], abs_tol=1e-12 / k))

    def profile_prime():
        x, k = bridge_x()
        return (x, k), (lambda r: close("H'", r, bridge(x, k)[1], abs_tol=1e-12 / (k * k)))

    def middle():
        k = u(1e-3, 1.0)
        x = u(1e-6 * k, 2 * k)
        return (x, k), (lambda r: close("H", r, bridge(x, k)[0], abs_tol=1e-12 / k))

    def pinterval():
        k = u(0.05, 0.5)
        lam = (u(-1.0, 0.0), u(0.05 * k, 0.9 * k), u(2.0 * k, 3.0))[next(turn) % 3]
        dt, dR = u(0.1, 2.0), u(0.1, 2.0)
        value, branch = partial_interval(lam, k, dt, dR, 1.0)

        def check(r):
            equal("branch", r.branch, branch)
            close("value", r.value, value, abs_tol=1e-12)
        return (lam, k, dt, dR, 1.0), check

    def damping():
        r0, _, src = source()
        R = r0 * (u(0.1, 0.99), u(1.01, 10.0))[next(turn) % 2]
        want = 1 / (1 - r0 / R) if R < r0 else 0.0
        return (R, src), (lambda r: close("damping", r, want))

    def photons():
        k = u(1e-3, 1.0)
        lam = u(1e-6 * k, 2 * k)

        def check(r):
            close("plus", r[0], lam - k, abs_tol=1e-15)
            close("minus", r[1], k - lam, abs_tol=1e-15)
        return (lam, k, 1.0), check

    add("transition", "transition_profile_scalar", tr.transition_profile, profile)
    add("transition", "transition_profile_prime_scalar", tr.transition_profile_prime, profile_prime)
    add("transition", "middle_branch", tr.middle_branch, middle)
    add("transition", "partial_interval", tr.partial_interval, pinterval)
    add("transition", "damping_factor", tr.damping_factor, damping)
    add("transition", "photon_families", tr.photon_families, photons)

    # infinitesimals
    def duals():
        a, b, c, d = u(-3, 3), u(-3, 3), u(0.5, 3), u(-3, 3)
        return inf.Dual(a, b), inf.Dual(c, d), (a, b, c, d)

    def dmul():
        x, y, (a, b, c, d) = duals()

        def check(r):
            close("real", r.real, a * c, abs_tol=1e-12)
            close("eps", r.eps, a * d + b * c, abs_tol=1e-12)
        return (x, y), check

    def dadd():
        x, y, (a, b, c, d) = duals()

        def check(r):
            close("real", r.real, a + c, abs_tol=1e-12)
            close("eps", r.eps, b + d, abs_tol=1e-12)
        return (x, y), check

    def ddiv():
        x, y, (a, b, c, d) = duals()

        def check(r):
            close("real", r.real, a / c)
            close("eps", r.eps, (b * c - a * d) / (c * c), abs_tol=1e-12)
        return (x, y), check

    def darith():
        x, y, (a, b, c, d) = duals()
        return (x, y, "mul"), (lambda r: close("eps", r.eps, a * d + b * c, abs_tol=1e-12))

    def deriv():
        x = u(-3, 3)
        return ((lambda d: d * d * d - 2 * d), x), (lambda r: close("f'", r, 3 * x * x - 2, abs_tol=1e-12))

    def std():
        x, _, (a, _b, _c, _d) = duals()
        return (x,), (lambda r: equal("standard part", r, a))

    add("infinitesimals", "dual_mul", operator.mul, dmul)
    add("infinitesimals", "dual_add", operator.add, dadd)
    add("infinitesimals", "dual_div", operator.truediv, ddiv)
    add("infinitesimals", "dual_arith", inf.dual_arith, darith)
    add("infinitesimals", "derivative", inf.derivative, deriv)
    add("infinitesimals", "standard_part", inf.standard_part, std)
    return _interleave(G)


def array_call(seed: int, points: int = ARRAY_POINTS) -> Call:
    """One array ``transition_profile`` over a seeded grid covering all three
    branches; every point must be finite and sampled points match the
    closed form."""
    import numpy as np
    from lightclock import transition

    rng = random.Random(seed)
    k = rng.uniform(1e-3, 1.0)
    x = np.sort(np.random.default_rng(seed).uniform(-5 * k, 5 * k, points))
    sample = sorted(rng.sample(range(points), min(points, 256)))

    def check(h):
        if h.shape != x.shape or not bool(np.isfinite(h).all()):
            raise Wrong("array profile has a wrong shape or a non-finite point")
        for i in sample:
            close("H", float(h[i]), bridge(float(x[i]), k)[0], abs_tol=1e-12 / k)

    return Call("transition", "transition_profile_array", transition.transition_profile,
                (x, k), check)


# -- lib-medium -----------------------------------------------------------------

COUNT_PULSES = 64


def profiles(rng: random.Random) -> list[tuple]:
    """constant C, power law A·t^p and a·ln t, all non-negative on t ≥ 1."""
    return [
        ("const", rng.uniform(0.1, 2.0)),
        ("power", rng.uniform(0.1, 2.0), rng.uniform(0.3, 2.0)),
        ("log", rng.uniform(0.1, 2.0)),
    ]


def profile_fn(profile: tuple) -> Callable[[float], float]:
    kind = profile[0]
    if kind == "const":
        C = profile[1]
        return lambda t: C
    if kind == "power":
        _, A, p = profile
        return lambda t: A * t**p
    a = profile[1]
    return lambda t: a * math.log(t)


def medium_batch(seed: int, n: int = PER_FUNCTION, wrap=lambda f: f) -> list[Call]:
    """``wrap`` lets the per-layer probe count the profile's evaluations."""
    from lightclock import clocks, medium

    rng = random.Random(seed)
    u = rng.uniform
    turn = itertools.count()
    G = []

    def scenario(profile, a, b, t1=None):
        return medium.PropagationScenario(
            velocity_profile=wrap(profile_fn(profile)), t1=a if t1 is None else t1,
            a=a, b=b, c=1.0)

    def span():
        a = u(1.0, 3.0)
        return a, a * u(1.5, 6.0)

    def velocity():
        pr = profiles(rng)[next(turn) % 3]
        a, b = span()
        ts, te = a + (b - a) * u(0, 0.4), a + (b - a) * u(0.6, 1.0)

        def check(r):
            close("omega", r.omega, log_kernel(pr, ts, te))
            if not ts <= r.witness <= te:
                raise Wrong(f"witness {r.witness} outside [{ts}, {te}]")
            close("witness gap", profile_value(pr, r.witness) * math.log(te / ts), r.omega, rel=1e-8)
        return (scenario(pr, a, b), ts, te), check

    def distance():
        pr = profiles(rng)[next(turn) % 3]
        a, b = span()
        t = a + (b - a) * u(0.1, 1.0)
        return (scenario(pr, a, b), t), (lambda r: close("s", r, t * log_kernel(pr, a, t)))

    def equilinear():
        pr = profiles(rng)[next(turn) % 3]
        a, b = span()
        t1, t2, t3 = sorted(a + (b - a) * u(0.05, 1.0) for _ in range(3))

        def check(r):
            close("w1", r.w1, log_kernel(pr, t1, t2), abs_tol=1e-12)
            close("w2", r.w2, log_kernel(pr, t2, t3), abs_tol=1e-12)
            close("w3", r.w3, log_kernel(pr, t1, t3))
            close("residual", r.residual, 0.0, abs_tol=1e-10 * max(1.0, abs(r.w3)))
        return (scenario(pr, a, b), t1, t2, t3), check

    def roundtrip():
        C = u(0.1, 2.0)
        a, b = span()
        om = u(0.0, 2.0)

        def check(r):
            close("t2", r.t2, a * math.exp(om))
            close("t3", r.t3, a * math.exp(2 * om))
        return (scenario(("const", C), a, b), om, a), check

    def counts():
        L, om, t1 = u(0.5, 2.0), u(1e-3, 0.5), u(0.5, 2.0)

        def check(rows):
            equal("rows", len(rows), COUNT_PULSES)
            q, start = math.exp(om), t1
            for i, row in enumerate(rows):
                close("t1", row.t1, start)
                close("t3", row.t3, row.t1 * q * q, rel=1e-12)
                close("tau3", row.tau3, 2 * row.tau2 - row.tau1, rel=1e-12)
                close("tau1", row.tau1, row.t1 / L)
                start = row.t3
        return (clocks.LightClockSpec(L, 1.0), om, t1, COUNT_PULSES), check

    G.append(_group("medium", "medium_velocity", medium.medium_velocity, velocity, n, 1))
    G.append(_group("medium", "distance_profile", medium.distance_profile, distance, n, 1))
    G.append(_group("medium", "equilinear_check", medium.equilinear_check, equilinear, n, 3))
    G.append(_group("medium", "roundtrip", medium.roundtrip, roundtrip, n))
    G.append(_group("medium", "count_trace", medium.count_trace, counts, n))
    return _interleave(G)


def first_call(workload: str, seed: int) -> None:
    """What a user pays once: the import plus the first call of each kind.

    For lib-kernels that includes a small array call, so a lazy numpy import
    shows here and not only in the steady loop."""
    if workload == "lib-kernels":
        for call in kernel_batch(seed, n=1) + [array_call(seed, points=1000)]:
            call.check(call.fn(*call.args))
    else:
        for call in medium_batch(seed, n=1):
            call.check(call.fn(*call.args))

"""The seeded argv cycle of the cli-oneshot workload, each with its oracle check.

A case's ``check(returncode, stdout, stderr)`` raises ``oracle.Wrong`` when
the process did not give the documented result.  Values are drawn from each
subcommand's documented domain and passed as ``repr`` floats, so the same
seed gives byte-identical argvs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from env import FIXTURES
from oracle import (
    Wrong,
    admissible_triangle,
    close,
    compose,
    equal,
    horizon_root_count,
    modified_lambda,
    parse_json,
    partial_interval,
)

Check = Callable[[int, bytes, bytes], None]


@dataclass
class Case:
    name: str
    argv: list[str]
    check: Check
    files: dict[str, str] = field(default_factory=dict)  # inputs to write first


def _f(x: float) -> str:
    return repr(float(x))


def _ok_json(check_obj: Callable[[dict], None]) -> Check:
    def check(code: int, out: bytes, err: bytes) -> None:
        equal("exit code", code, 0)
        equal("stderr", err, b"")
        check_obj(parse_json(out))

    return check


def _golden(name: str) -> Check:
    want = (FIXTURES / name).read_bytes()

    def check(code: int, out: bytes, err: bytes) -> None:
        equal("exit code", code, 0)
        if out != want:
            raise Wrong(f"stdout differs from {name}")

    return check


def _error(code_want: int, prefix: bytes) -> Check:
    def check(code: int, out: bytes, err: bytes) -> None:
        equal("exit code", code, code_want)
        equal("stdout", out, b"")
        if not err.startswith(prefix) or b"Traceback" in err:
            raise Wrong(f"stderr {err[:80]!r}")

    return check


# -- cli-oneshot --------------------------------------------------------------


def _golden_cases() -> list[Case]:
    fx = str(FIXTURES)
    return [
        Case("golden-radar", ["radar", "--config", f"{fx}/radar_reference.json"],
             _golden("radar_reference.golden.json")),
        Case("golden-metric", ["metric", "schwarzschild", "--config",
                               f"{fx}/schwarzschild_sweep.json"],
             _golden("schwarzschild_sweep.golden.csv")),
        Case("golden-transition", ["transition", "H", "--config",
                                   f"{fx}/transition_profile.json"],
             _golden("transition_profile.golden.csv")),
    ]


def oneshot_cases(seed: int, work: Path) -> list[Case]:
    """One small call per subcommand family, plus the goldens and two
    documented errors, in a fixed order."""
    rng = random.Random(seed)
    u = rng.uniform
    cases = _golden_cases()

    v1, v2 = u(-0.95, 0.95), u(-0.95, 0.95)
    cases.append(Case("compose", ["compose", "--v1", _f(v1), "--v2", _f(v2), "--c", "1"],
                      _ok_json(lambda o: close("v3", o["v3"], compose(v1, v2, 1.0)))))

    t, x, v = u(0.5, 5.0), u(-3.0, 3.0), u(-0.9, 0.9)

    def lorentz(o):
        b = 1.0 / math.sqrt(1.0 - v * v)
        close("t", o["t"], b * (t - v * x))
        close("x", o["x"], b * (x - v * t), abs_tol=1e-12)
        close("interval_before", o["interval_before"], t * t - x * x, abs_tol=1e-12)
        close("interval_after", o["interval_after"], t * t - x * x, rel=1e-8, abs_tol=1e-9)

    cases.append(Case("lorentz", ["lorentz", "--t", _f(t), "--x", _f(x), "--v3", _f(v),
                                  "--c", "1"], _ok_json(lorentz)))

    w1, w2, w3, cos_phi = admissible_triangle(rng)

    def triangle(o):
        close("phi", o["phi"], math.acos(cos_phi), rel=1e-7)
        for name, w in (("v1", w1), ("v2", w2), ("v3", w3)):
            close(name, o[name], math.tanh(w))
        close("p1+p2", o["p1"] + o["p2"], w3, rel=1e-8)
        for r in ("residual_projection", "residual_beta", "residual_normal"):
            close(r, o[r], 0.0, abs_tol=1e-8)

    cases.append(Case("triangle", ["triangle", "--omega1", _f(w1), "--omega2", _f(w2),
                                   "--omega3", _f(w3), "--c", "1"], _ok_json(triangle)))

    r0, R, lam_m2 = u(0.5, 2.0), u(3.0, 10.0), u(1e-4, 1e-3)

    def modified(o):
        lam = modified_lambda(r0, lam_m2, R)
        close("lambda", o["lambda"], lam)
        close("null_speed", o["null_speed"], abs(lam))
        close("gamma", o["gamma"], math.sqrt(lam))

    cases.append(Case("metric-modified", ["metric", "modified", "--r0", _f(r0), "--R", _f(R),
                                          "--Lambda", _f(lam_m2), "--lambda-unit", "m^-2",
                                          "--c", "1"], _ok_json(modified)))

    a, Rrw, dt, dR = u(5.0, 20.0), u(0.5, 4.0), u(0.1, 1.0), u(0.1, 1.0)
    cases.append(Case("metric-rw", ["metric", "rw", "--a", _f(a), "--R", _f(Rrw), "--dt", _f(dt),
                                    "--dR", _f(dR), "--c", "1"],
                      _ok_json(lambda o: close(
                          "ds2", o["ds2"], dt * dt - dR * dR / (1.0 - (Rrw / a) ** 2),
                          abs_tol=1e-12))))

    R1 = r0 * u(1.1, 3.0)
    R2 = R1 + u(0.5, 10.0)
    want_dt = (R2 - R1) + r0 * math.log((R2 - r0) / (R1 - r0))

    def radar_distance(o):
        close("delta_t", o["delta_t"], want_dt)
        close("c_delta_t", o["c_delta_t"], want_dt)

    cases.append(Case("radar-distance", ["radar-distance", "--r0", _f(r0), "--R1", _f(R1),
                                         "--R2", _f(R2), "--c", "1"], _ok_json(radar_distance)))

    hz_lam = u(0.05, 0.4) * 4.0 / (9.0 * r0 * r0)

    def horizon(o):
        roots = o["roots"]
        equal("root count", len(roots), horizon_root_count(r0, hz_lam))
        equal("ascending", roots, sorted(roots))
        for r in roots:
            close("cubic residual", hz_lam / 3.0 * r**3 - r + r0, 0.0, abs_tol=1e-9 * r)

    cases.append(Case("horizon", ["horizon", "--r0", _f(r0), "--Lambda", _f(hz_lam),
                                  "--lambda-unit", "m^-2"], _ok_json(horizon)))

    nu, vd = u(1e3, 1e9), u(0.0, 0.95)

    def doppler(o):
        g = math.sqrt(1.0 - vd * vd)
        close("gamma", o["gamma"], g)
        close("nu_m", o["nu_m"], g * nu)

    cases.append(Case("alter-doppler", ["alter", "doppler", "--nu-s", _f(nu), "--v", _f(vd),
                                        "--c", "1"], _ok_json(doppler)))

    rs, rr = u(0.01, 0.9), u(1.5, 1e5)
    cases.append(Case("dilation", ["dilation", "--rs-over-rp", _f(rs), "--rr-over-rp", _f(rr)],
                      _ok_json(lambda o: close(
                          "ratio", o["ratio"], math.sqrt(1 - rs / rr) / math.sqrt(1 - rs)))))

    g1p, g1r, nur = u(0.05, 1.0), u(0.05, 1.0), u(1.0, 1e9)
    cases.append(Case("compare-frequency", ["compare-frequency", "--g1-p", _f(g1p),
                                            "--g1-r", _f(g1r), "--nu-r", _f(nur)],
                      _ok_json(lambda o: close("nu_p", o["nu_p"],
                                               math.sqrt(g1r / g1p) * nur))))

    k = u(0.05, 0.5)
    lam_t = rng.choice((u(-1.0, 0.0), u(0.05 * k, 0.9 * k), u(2.0 * k, 3.0)))
    tdt, tdR = u(0.1, 2.0), u(0.1, 2.0)
    want_val, want_branch = partial_interval(lam_t, k, tdt, tdR, 1.0)

    def interval(o):
        equal("branch", o["branch"], want_branch)
        close("value", o["value"], want_val, abs_tol=1e-12)

    cases.append(Case("transition-interval", ["transition", "interval", "--lam", _f(lam_t),
                                              "--k", _f(k), "--dt", _f(tdt), "--dR", _f(tdR),
                                              "--c", "1"], _ok_json(interval)))

    t1, om = u(0.5, 5.0), u(0.0, 2.0)

    def roundtrip(o):
        close("t1", o["t1"], t1)
        close("t2", o["t2"], t1 * math.exp(om))
        close("t3", o["t3"], t1 * math.exp(2 * om))
        equal("geometric_mean_ok", o["geometric_mean_ok"], True)

    cases.append(Case("sim-roundtrip", ["sim", "roundtrip", "--t1", _f(t1), "--omega", _f(om),
                                        "--c", "1"], _ok_json(roundtrip)))

    e1 = u(0.5, 2.0)
    e2 = e1 * u(1.1, 3.0)
    e3 = e2 * u(1.1, 3.0)

    def equilinear(o):
        close("w1", o["w1"], math.log(e2 / e1))
        close("w2", o["w2"], math.log(e3 / e2))
        close("w3", o["w3"], math.log(e3 / e1))
        close("residual", o["residual"], 0.0, abs_tol=1e-9)

    cases.append(Case("sim-equilinear", ["sim", "equilinear", "--t1", _f(e1), "--t2", _f(e2),
                                         "--t3", _f(e3), "--c", "1"], _ok_json(equilinear)))

    uo, omo, dte = u(0.1, 10.0), u(0.0, 3.0), u(0.01, 1.0)

    def offset(o):
        close("separation", o["separation"], uo * math.exp(omo) * dte)
        close("classical", o["classical"], uo * dte)
        close("ratio", o["ratio"], math.exp(omo))

    cases.append(Case("sim-offset", ["sim", "offset", "--u", _f(uo), "--omega", _f(omo),
                                     "--dt-emit", _f(dte), "--c", "1"], _ok_json(offset)))

    p, th = u(0.2, 3.0), u(1.0, 10.0)

    def hubble(o):
        close("H", o["H"], p / th, rel=1e-7)
        close("q", o["q"], 1.0 / p - 1.0, rel=1e-5, abs_tol=1e-6)

    cases.append(Case("hubble", ["hubble", "--model", "powerlaw", "--exponent", _f(p),
                                 "--t", _f(th)], _ok_json(hubble)))

    # documented errors: a radar record with t2 > t3 is a domain error (1);
    # a wrong unit tag in a config is a config error (2)
    b1 = u(0.5, 2.0)
    cases.append(Case("error-domain", ["radar", "--t1", _f(b1), "--t2", _f(3 * b1),
                                       "--t3", _f(2 * b1), "--c", "1"],
                      _error(1, b"domain error:")))
    bad = work / f"bad-unit-{seed}.json"
    cases.append(Case("error-config", ["radar", "--config", str(bad)],
                      _error(2, b"config error:"),
                      files={str(bad): json.dumps({
                          "t1": {"value": u(0.5, 2.0), "unit": "m"},
                          "t2": {"value": 2.0, "unit": "s"},
                          "t3": {"value": 4.0, "unit": "s"}})}))
    return cases

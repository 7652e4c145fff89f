"""Command-line surface: scenario configuration, batch evaluation, and
table/plot-data emission.

Parameters come from flags or from a JSON config file (flags win).  Each
(command, mode) reads the parameters its row in ``_COMMANDS`` declares; a
flag it does not read is a config error (exit 2).  Physical quantities in
config files carry explicit unit tags; a mismatch is a config error too.
Domain errors from the core exit 1.  Output is JSON for single results and
CSV for sweeps, both byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Sequence

# each submodule's body runs only when a handler first uses it (see the
# package docstring), so a call loads just the modules its subcommand needs
from . import (
    LAMBDA_UNITS,
    SPEED_OF_LIGHT,
    _linspace,
    alterations,
    clocks,
    line_elements,
    medium,
    radar,
    transition,
    velocity_space,
)

DEFAULT_TRANSITION_K = 1e-3


class ConfigError(Exception):
    pass


def _tolerance() -> float:
    text = os.environ.get("LIGHTCLOCK_TOL", "1e-12")
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"LIGHTCLOCK_TOL must be a non-negative number, got {text!r}")
    return tol


# Every parameter a subcommand takes is declared once, here or in _OTHER.
# Float parameters are listed under the unit tag their config value must
# carry; None means dimensionless (a plain number), and LAMBDA_UNITS means the
# value declares one of those units, which sets lambda_unit.
_FLOATS_BY_UNIT: dict[str | tuple[str, ...] | None, str] = {
    "s": "t1 t2 t3 t dt dt_emit tau_s a",
    "m/s": "c v v1 v2 v3 d u omega omega1 omega2 omega3",
    "m": "x y z dx dy dz dr dR r0 r R R1 R2 rp L",
    "rad": "theta dtheta dphi",
    "Hz": "nu_s nu_r",
    "kg": "mass mass_s",
    "kg/m^3": "rho",
    "m^3/(kg s^2)": "G",
    "1/s": "rate",
    LAMBDA_UNITS: "Lambda Lambda1",
    None: "gamma g1_p g1_r rs_over_rp rr_over_rp k lam x_min x_max lambda_min lambda_max exponent",
}
_UNITS = {name: unit for unit, names in _FLOATS_BY_UNIT.items() for name in names.split()}

# the other parameters: their type, or the tuple of strings they may take
_OTHER: dict[str, object] = {
    "n": int, "n_pulses": int, "sweep_R": str, "out": str,
    "mode": ("real", "complex"),
    "lambda_unit": LAMBDA_UNITS,
    "model": ("linear", "exponential", "powerlaw"),
}


def _config_value(name: str, entry: object, resolved: dict[str, object]) -> object:
    """Check one config field against its declared unit or type and strip
    its unit tag."""
    kind, unit = _OTHER.get(name, float), _UNITS.get(name)
    # a dimensionless number may carry a tag too, or none
    units = (unit,) if isinstance(unit, str) else unit or (None, "dimensionless", "1")
    if isinstance(entry, dict) and kind in (float, int):
        if entry.get("unit") not in units:
            raise ConfigError(
                f"config field {name!r}: expected unit {'|'.join(filter(None, units))!r}, "
                f"got {entry.get('unit')!r}"
            )
        if isinstance(unit, tuple):
            resolved["lambda_unit"] = entry["unit"]
        entry = entry.get("value")
    elif unit is not None:
        raise ConfigError(
            f"config field {name!r} must carry a unit tag "
            f'({{"value": ..., "unit": "{"|".join(units)}"}})'
        )
    if isinstance(kind, tuple):
        if entry not in kind:
            raise ConfigError(f"config field {name!r} must be one of {kind}, got {entry!r}")
        return entry
    if isinstance(entry, bool) or not isinstance(entry, (int, float) if kind is float else kind):
        what = "a number" if kind is float else f"a JSON {kind.__name__}"
        raise ConfigError(f"config field {name!r} must be {what}, got {entry!r}")
    if unit is None:
        return entry
    try:
        return float(entry)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"config field {name!r} is too large for a float") from None


def _load_config(path: str | None, names: Sequence[str]) -> dict[str, object]:
    """Read a config file and resolve the fields in ``names``.  A field that
    only other subcommands or modes take is ignored, since a config may be
    shared; one that none takes is an error."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    resolved: dict[str, object] = {}
    for name, entry in raw.items():
        if name in names:
            resolved[name] = _config_value(name, entry, resolved)
        elif name not in _DECLARED:
            raise ConfigError(f"config field {name!r} is not a parameter of any subcommand")
    return resolved


def _names(spec: str) -> list[str]:
    """The parameter names of a row's spec, alternatives and groups split."""
    return spec.replace("|", " ").replace(",", " ").split()


def _flags(rows: dict) -> list[str]:
    """The flags of a subcommand: every parameter any of its rows reads."""
    return list(dict.fromkeys(name for spec, _ in rows.values() for name in _names(spec)))


class Params:
    """The row of a call's (command, mode) and its flag/config merge: flags
    win, then config, then defaults.

    A flag the row does not read is a config error, and so is giving a
    parameter from each side of one of its alternatives ``a|b`` (flag and
    config merged).  The light speed ``c`` is resolved on construction:
    --c, then --natural-units (c = 1), then the config, then SI.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        _, dest, rows = _COMMANDS[args.command]
        mode = self.args.get(dest)  # None for a command without modes
        spec, self.handler = rows[mode]
        self.label = f"{args.command} {mode}" if mode else args.command
        self.names = _names(spec) + ["out", "c"]
        self.config = _load_config(self.args.get("config"), self.names)
        unread = [n for n in _flags(rows) if n not in self.names and self.args.get(n) is not None]
        if unread:
            raise ConfigError(
                f"{self.label} does not read {', '.join(map(repr, unread))}; it reads {spec}"
            )
        # argparse's float() and json.load both accept nan and inf
        for name in self.names:
            for value in (self.args.get(name), self.config.get(name)):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"parameter {name!r} must be finite, got {value!r}")
        for pair in (token.split("|") for token in spec.split() if "|" in token):
            a, b = ([n for n in side.split(",") if self.get(n) is not None] for side in pair)
            if a and b:
                raise ConfigError(f"give {a[0]!r} or {b[0]!r}, not both")
        c = self.args.get("c")
        if c is None:
            c = 1.0 if self.args.get("natural_units") else self.config.get("c", SPEED_OF_LIGHT)
        if not 0.0 < c < math.inf:
            raise ConfigError(f"parameter 'c' must be positive and finite, got {c!r}")
        self.c = c

    def get(self, name: str, default: object = None, required: bool = False) -> object:
        assert name in self.names, f"{self.label} reads {name!r} but its row does not declare it"
        value = self.args.get(name)
        if value is None:
            value = self.config.get(name, default)
        if value is None and required:
            raise ConfigError(f"missing required parameter {name!r}")
        return value

    def require(self, *names: str) -> tuple:
        """The values of ``names`` in order; each must be given."""
        return tuple(self.get(name, required=True) for name in names)

    def given(self, *names: str) -> dict[str, object]:
        """The parameters among ``names`` that were given, as keyword
        arguments, so that the kernel's own defaults cover the rest."""
        return {name: value for name in names if (value := self.get(name)) is not None}

    def summary(self) -> str:
        """The parameters given and the light speed, as name=value pairs."""
        given = {**self.given(*self.names), "c": self.c}
        return " ".join(f"{name}={value!r}" for name, value in given.items())


def _format_value(x: object) -> str:
    # float() first: numpy.float64 is a float whose repr is "np.float64(...)"
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def emit_json(obj: dict[str, object], out: str | None) -> None:
    """Strict JSON: a non-finite value raises ValueError."""
    _write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def emit_plot_data(
    header: Sequence[str], rows: Sequence[Sequence[object]], out: str | None
) -> None:
    """CSV with a header naming columns and units, LF endings, and floats
    printed at full round-trip precision."""
    if not rows:
        raise ValueError("refusing to emit an empty series")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(x) for x in row))
    _write_text("\n".join(lines) + "\n", out)


def _sweep(start: float, stop: float, count: int, name: str) -> list[float]:
    """``count`` evenly spaced points from ``start`` to ``stop``; ``name``
    is the parameter that gave the count."""
    if count < 2:
        raise ConfigError(f"{name!r} must count at least 2 points, got {count}")
    if not math.isfinite((stop - start) / (count - 1)):
        raise ConfigError(f"{name!r}: the step from {start!r} to {stop!r} overflows")
    return _linspace(start, stop, count)


def _parse_sweep(text: str) -> list[float]:
    """start:stop:count[:log]: evenly spaced in R, or in ln R with :log."""
    log = text.endswith(":log")
    try:
        start_s, stop_s, count_s = text.removesuffix(":log").split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"'sweep_R' must look like start:stop:count[:log], got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"'sweep_R' start and stop must be finite, got {text!r}")
    if not log:
        return _sweep(start, stop, count, "sweep_R")
    if not (start > 0.0 and stop > 0.0):
        raise ConfigError(f"'sweep_R' log spacing needs a positive start and stop, got {text!r}")
    grid = [math.exp(x) for x in _sweep(math.log(start), math.log(stop), count, "sweep_R")]
    return [start, *grid[1:-1], stop]


# ---------------------------------------------------------------------------
# command handlers, one per (command, mode) row: each returns a dict (emitted
# as JSON) or a (header, rows) pair (emitted as CSV)


def _cmd_radar(p: Params) -> dict:
    rec = radar.RadarRecord(*p.require("t1", "t2", "t3"))
    m = radar.einstein_measures(rec, p.c)
    return {
        "t_E": m.t_E,
        "r_E": m.r_E,
        "v_E": m.v_E,
        "K": m.K,
        "t2_pred": m.t2_pred,
        "degenerate": m.degenerate,
        "geometric_mean_ok": radar.check_geometric_mean(rec, _tolerance()),
        "omega": radar.rapidity_from_vE(m.v_E, p.c).omega,
    }


def _cmd_compose(p: Params) -> dict:
    return {"v3": velocity_space.compose_einstein(*p.require("v1", "v2"), p.c)}


def _cmd_lorentz(p: Params) -> dict:
    event = velocity_space.Event4(*p.require("t", "x"), **p.given("y", "z"))
    moved = velocity_space.lorentz_transform(event, p.get("v3", required=True), p.c)
    return {
        **vars(moved),
        "interval_before": velocity_space.interval(event, p.c),
        "interval_after": velocity_space.interval(moved, p.c),
    }


def _cmd_triangle(p: Params) -> dict:
    tri = velocity_space.solve_triangle(*p.require("omega1", "omega2", "omega3"), p.c)
    ein = velocity_space.triangle_to_einstein(tri)
    return {
        "theta": tri.theta,
        "phi": tri.phi,
        "p1": tri.p1,
        "p2": tri.p2,
        "n": tri.n,
        **vars(ein),
    }


def _source(p: Params, *names: str) -> line_elements.GravitySource:
    """The source given by r0 or mass, and G, plus the parameters ``names``."""
    common = dict(c=p.c, **p.given("G", *names))
    r0 = p.get("r0")
    if r0 is not None:
        return line_elements.source_from_r0(r0, **common)
    mass = p.get("mass")
    if mass is None:
        raise ConfigError("need either r0 or mass")
    return line_elements.GravitySource(mass_M=mass, **common)


def _metric_point(p: Params) -> line_elements.MetricPoint:
    return line_elements.MetricPoint(
        R=p.get("R", 0.0), **p.given("theta", "dt", "dR", "dtheta", "dphi")
    )


def _metric_minkowski(p: Params) -> dict:
    ds2 = line_elements.minkowski_interval(
        p.get("dt", 0.0), p.get("dx", 0.0), p.get("dy", 0.0), p.get("dz", 0.0), p.c
    )
    return {"ds2": ds2}


def _metric_linear(p: Params) -> dict:
    lam = line_elements.LambdaFactor(v=p.get("v", required=True), c=p.c, **p.given("d", "mode"))
    ds2 = line_elements.linear_interval(lam, p.get("dt", 0.0), p.get("dr", 0.0), p.c)
    return {"lambda": lam.value(), "ds2": ds2}


def _metric_rw(p: Params) -> dict:
    ds2 = line_elements.robertson_walker_interval(
        p.get("a", required=True), _metric_point(p), p.c
    )
    return {"ds2": ds2}


def _metric_approx(p: Params) -> dict:
    src = _source(p)
    ds2 = line_elements.newtonian_first_approx(
        src, p.get("r", required=True), p.get("dt", 0.0), p.get("dr", 0.0), p.c
    )
    return {"ds2": ds2, "field_strength": src.schwarzschild_r0 / p.get("r")}


def _radial_metric(p: Params, src: line_elements.GravitySource, lam_of: object) -> dict | tuple:
    """The factor ``lam_of(src, R)`` at the point R, or over sweep_R as CSV."""
    c = p.c

    def row(R: float) -> tuple:
        lam = lam_of(src, R)
        null_speed = line_elements.null_radial_speed(lam, c)
        if not (math.isfinite(lam) and math.isfinite(null_speed)):
            raise ValueError(
                f"metric at R = {R!r} is not finite: lambda {lam!r}, null speed {null_speed!r}"
            )
        gamma = math.sqrt(lam) if lam > 0 else math.nan  # nan past a horizon
        return R, lam, null_speed, gamma

    sweep = p.get("sweep_R")
    if sweep is not None:
        header = ("R_m", "lambda_dimensionless", "null_speed_m_per_s", "gamma_dimensionless")
        return header, [row(R) for R in _parse_sweep(sweep)]

    R = p.get("R")
    if R is None:
        raise ConfigError("need either R or sweep_R")
    R, lam, null_speed, gamma = row(R)
    result = {"R": R, "lambda": lam, "null_speed": null_speed, "gamma": gamma if lam > 0 else None}
    point = _metric_point(p)
    if point.dt or point.dR or point.dtheta or point.dphi:
        result["ds2"] = line_elements.radial_interval_value(lam, point, c)
    return result


def _cmd_radar_distance(p: Params) -> dict:
    src = _source(p)
    delta_t = line_elements.radar_coordinate_time(src, *p.require("R1", "R2"), p.c)
    return {"delta_t": delta_t, "c_delta_t": p.c * delta_t}


def _cmd_horizon(p: Params) -> dict:
    return {"roots": line_elements.horizon_roots(_source(p, "Lambda", "lambda_unit"))}


def _alteration(p: Params, rest: str, key: str, kernel: object) -> dict:
    """``kernel(rest value, gamma)`` under ``key``, gamma given or from v."""
    gamma = p.get("gamma")
    if gamma is None:
        v = p.get("v")
        if v is None:
            raise ConfigError("need either gamma or v")
        gamma = alterations.gamma_special(v, p.c)
    return {"gamma": gamma, key: kernel(p.get(rest, required=True), gamma)}


def _alter_total_doppler(p: Params) -> dict:
    nu_s = p.get("nu_s", required=True)
    received = alterations.total_doppler(nu_s, p.get("v", required=True), p.c)
    return {"nu_received": received, "ratio": received / nu_s}


def _cmd_dilation(p: Params) -> dict:
    rs_over_rp, rr_over_rp = p.require("rs_over_rp", "rr_over_rp")
    if (p.get("Lambda") or p.get("Lambda1")) and p.get("rp") is None:
        raise ConfigError("rp is required when a cosmological constant is supplied")
    rp = p.get("rp", 1.0)
    inp = alterations.GravCompareInput(
        r_s=rs_over_rp * rp,
        r_P=rp,
        r_R=rr_over_rp * rp,
        c=p.c,
        **p.given("Lambda", "Lambda1", "lambda_unit"),
    )
    return {"ratio": alterations.gravitational_clock_compare(inp)}


def _cmd_compare_frequency(p: Params) -> dict:
    return {"nu_p": alterations.frequency_compare(*p.require("g1_p", "g1_r", "nu_r"))}


def _transition_H(p: Params) -> tuple:
    k = p.get("k", DEFAULT_TRANSITION_K)
    x_min = p.get("x_min", -5.0 * k)
    x_max = p.get("x_max", 5.0 * k)
    n = p.get("n", 101)
    if x_min > x_max:
        raise ConfigError(f"'x_min' = {x_min!r} exceeds 'x_max' = {x_max!r}")
    grid = sorted(set(_sweep(x_min, x_max, n, "n") + [0.0, 2.0 * k]))
    grid = [x for x in grid if x_min <= x <= x_max]
    rows = [
        (
            x,
            transition.transition_profile(x, k),
            transition.transition_profile_prime(x, k),
        )
        for x in grid
    ]
    return ("x_dimensionless", "H_dimensionless", "H_prime_dimensionless"), rows


def _transition_interval(p: Params) -> dict:
    k = p.get("k", DEFAULT_TRANSITION_K)
    return vars(transition.partial_interval(
        p.get("lam", required=True), k, p.get("dt", 0.0), p.get("dR", 0.0), p.c
    ))


def _transition_photons(p: Params) -> dict | tuple:
    """One lambda as JSON, or a fan over [lambda_min, lambda_max] as CSV."""
    c = p.c
    k = p.get("k", DEFAULT_TRANSITION_K)
    lam = p.get("lam")
    if lam is not None:
        plus, minus = transition.photon_families(lam, k, c)
        return {"lambda": lam, "speed_plus": plus, "speed_minus": minus}
    lam_min = p.get("lambda_min", 1e-3 * k)
    lam_max = p.get("lambda_max", 2.0 * k)
    n = p.get("n", 101)
    rows = []
    for lam_val in _sweep(lam_min, lam_max, n, "n"):
        plus, minus = transition.photon_families(lam_val, k, c)
        rows.append((lam_val, plus, minus))
    return ("lambda_dimensionless", "speed_plus_m_per_s", "speed_minus_m_per_s"), rows


def _sim_roundtrip(p: Params) -> dict:
    t1, omega = p.require("t1", "omega")
    rec = radar.record_from_rapidity(omega, p.c, t1)
    return {**vars(rec), "geometric_mean_ok": radar.check_geometric_mean(rec, _tolerance())}


def _sim_counts(p: Params) -> tuple:
    spec = clocks.LightClockSpec(
        round_trip_length_L=p.get("L", required=True), light_speed_c=p.c
    )
    trace = medium.count_trace(spec, *p.require("omega", "t1"), p.get("n_pulses", 3))
    rows = [
        (i + 1, row.tau1, row.tau2, row.tau3, row.t1, row.t2, row.t3)
        for i, row in enumerate(trace)
    ]
    header = ("pulse_index", "tau1_ticks", "tau2_ticks", "tau3_ticks", "t1_s", "t2_s", "t3_s")
    return header, rows


def _sim_equilinear(p: Params) -> dict:
    c = p.c
    t1, t2, t3 = p.require("t1", "t2", "t3")
    scenario = medium.PropagationScenario(
        velocity_profile=lambda _t: c, t1=t1, a=t1, b=t3, c=c
    )
    return vars(medium.equilinear_check(scenario, t1, t2, t3))


def _sim_offset(p: Params) -> dict:
    u, omega, dt_emit = p.require("u", "omega", "dt_emit")
    separation, classical = medium.parallel_photon_offset(u, omega, p.c, dt_emit)
    return {
        "separation": separation,
        "classical": classical,
        "ratio": separation / classical,
    }


def _cmd_hubble(p: Params) -> dict:
    model, t = p.require("model", "t")
    # the names each model does not read: the rate of a = rate·t cancels out of H
    unread = {"linear": ("rate", "exponent"), "exponential": ("exponent",), "powerlaw": ("rate",)}
    for name in unread[model]:
        if p.get(name) is not None:
            raise ConfigError(f"hubble --model {model} does not read {name!r}")
    if model == "linear":
        scale = lambda tt: tt
    elif model == "exponential":
        rate = p.get("rate", required=True)
        scale = lambda tt: (tt * rate).exp()  # tt is a Dual
    else:  # powerlaw
        exponent = p.get("exponent", required=True)
        scale = lambda tt: tt**exponent
    rates = line_elements.hubble_deceleration(scale, t, **p.given("rho", "G"))
    # friedmann_residual is reported only when a density was given
    return {key: value for key, value in vars(rates).items() if value is not None}


# ---------------------------------------------------------------------------
# parser

# subcommand: (help, dest of its positional mode or None, rows); a row maps a
# mode (None when there are none) to (the parameters it reads, its handler).
# "a|b" in a row lets a call give either side, not both; a side may be a
# comma-joined group.  Every row also reads --out and --c; every subcommand
# also takes --config and --natural-units.
_POINT_OR_SWEEP = "R,theta,dt,dR,dtheta,dphi|sweep_R"
_COMMANDS: dict[str, tuple[str, str | None, dict[str | None, tuple[str, object]]]] = {
    "radar": ("Einstein measures of a radar record", None, {None: ("t1 t2 t3", _cmd_radar)}),
    "compose": ("Einstein velocity composition", None, {None: ("v1 v2", _cmd_compose)}),
    "lorentz": ("x-aligned boost of an event", None, {None: ("t x y z v3", _cmd_lorentz)}),
    "triangle": ("solve a hyperbolic velocity triangle", None,
                 {None: ("omega1 omega2 omega3", _cmd_triangle)}),
    "metric": ("evaluate a line element", "form", {
        "minkowski": ("dt dx dy dz", _metric_minkowski),
        "linear": ("v d mode dt dr", _metric_linear),
        "schwarzschild": (f"r0|mass G {_POINT_OR_SWEEP}", lambda p: _radial_metric(
            p, _source(p), line_elements.schwarzschild_lambda)),
        "modified": (f"r0|mass G Lambda lambda_unit {_POINT_OR_SWEEP}", lambda p: _radial_metric(
            p, _source(p, "Lambda", "lambda_unit"), line_elements.modified_schwarzschild_lambda)),
        "desitter": (f"Lambda lambda_unit {_POINT_OR_SWEEP}", lambda p: _radial_metric(
            p, line_elements.GravitySource(0.0, c=p.c, **p.given("Lambda", "lambda_unit")),
            line_elements.modified_schwarzschild_lambda)),
        "rw": ("a R theta dt dR dtheta dphi", _metric_rw),
        "approx": ("r0|mass G r dt dr", _metric_approx),
    }),
    "radar-distance": ("radial pulse coordinate flight time", None,
                       {None: ("r0|mass G R1 R2", _cmd_radar_distance)}),
    "horizon": ("horizon radii of the modified factor", None,
                {None: ("r0|mass G Lambda lambda_unit", _cmd_horizon)}),
    "alter": ("physical alteration ratios", "effect", {
        "doppler": ("nu_s gamma|v", lambda p: _alteration(
            p, "nu_s", "nu_m", alterations.transverse_doppler)),
        "total-doppler": ("nu_s v", _alter_total_doppler),
        "decay": ("tau_s gamma|v", lambda p: _alteration(
            p, "tau_s", "tau_m", alterations.decay_lifetime)),
        "mass": ("mass_s gamma|v", lambda p: _alteration(
            p, "mass_s", "mass_m", alterations.mass_alteration)),
    }),
    "dilation": ("gravitational clock-rate comparison", None,
                 {None: ("rs_over_rp rr_over_rp rp Lambda Lambda1 lambda_unit", _cmd_dilation)}),
    "compare-frequency": ("two-position frequency comparison", None,
                          {None: ("g1_p g1_r nu_r", _cmd_compare_frequency)}),
    "transition": ("transition-zone machinery", "mode", {
        "H": ("k x_min x_max n", _transition_H),
        "interval": ("k lam dt dR", _transition_interval),
        "photons": ("k lam|lambda_min,lambda_max,n", _transition_photons),
    }),
    "sim": ("medium-propagation simulator", "mode", {
        "roundtrip": ("t1 omega", _sim_roundtrip),
        "counts": ("L omega t1 n_pulses", _sim_counts),
        "equilinear": ("t1 t2 t3", _sim_equilinear),
        "offset": ("u omega dt_emit", _sim_offset),
    }),
    "hubble": ("expansion rate and deceleration parameter", None,
               {None: ("model t rate exponent rho G", _cmd_hubble)}),
}

# every config field: the parameters of all rows
_DECLARED = {"out", "c"}.union(*(_flags(rows) for _, _, rows in _COMMANDS.values()))

_HELP = {"sweep_R": "radial sweep start:stop:count[:log] emitting CSV"}


def _epilog(dest: str | None, rows: dict) -> str:
    """The parameters each mode reads, for --help."""
    head = f"parameters read by each {dest}" if dest else "parameters read"
    lines = [f"  {mode:14}{spec}" if mode else f"  {spec}" for mode, (spec, _) in rows.items()]
    return f"{head} (a|b: a or b, not both; a,b: a group), plus --out and --c:\n" + "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightclock",
        description="Deterministic light-clock kinematics engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, dest, rows) in _COMMANDS.items():
        sp = sub.add_parser(
            command, help=help_text, epilog=_epilog(dest, rows),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        if dest is not None:
            sp.add_argument(dest, choices=list(rows))
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--c", type=float, help="light speed in m/s")
        sp.add_argument(
            "--natural-units", action="store_true", help="set c = 1 unless --c is given"
        )
        for name in _flags(rows):
            kind = _OTHER.get(name, float)
            choices = kind if isinstance(kind, tuple) else None
            sp.add_argument(
                f"--{name.replace('_', '-')}",
                dest=name,
                type=None if choices else kind,
                choices=choices,
                help=_HELP.get(name),
            )
    return parser


def _check_finite(result: dict | tuple) -> None:
    """Raise FloatingPointError naming the first output key or CSV column
    with a value that is not finite; a sweep's gamma column is nan past a
    horizon by design."""
    if isinstance(result, dict):
        cells = ((k, x) for k, v in result.items() for x in (v if isinstance(v, list) else [v]))
    else:
        header, rows = result
        cells = ((k, x) for row in rows for k, x in zip(header, row) if not k.startswith("gamma"))
    for key, x in cells:
        if isinstance(x, float) and not math.isfinite(x):
            raise FloatingPointError(f"output {key!r} is not finite: {x!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            params = Params(args)
            result = params.handler(params)
            _check_finite(result)
        if isinstance(result, dict):
            emit_json(result, params.get("out"))
        else:
            emit_plot_data(*result, params.get("out"))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # an ArithmeticError is where no kernel checks its domain first
        print(f"domain error: {params.label}: {exc} (given {params.summary()})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

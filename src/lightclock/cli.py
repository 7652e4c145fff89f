"""Command-line surface: scenario configuration, batch evaluation, and
table/plot-data emission.

Parameters come from flags or from a JSON config file (flags win).  Each
(command, mode) reads the parameters its row in ``_COMMANDS`` declares, and
``ArgvReader`` reads the argv against that table alone: a flag the table does
not declare (an abbreviation too), a repeated flag, or one the mode does not
read is a config error (exit 2), as is a config unit tag that does not match
or a Λ tag that disagrees with another unit given for Λ.  Domain errors from
the core exit 1.  Output is JSON for single results and CSV for sweeps, both
byte-deterministic.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from collections.abc import Callable, Sequence
from types import SimpleNamespace

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
    None: "gamma g1_p g1_r rs_over_rp rr_over_rp k lam x_min x_max lambda_min lambda_max exponent"
          " tol",
}
_UNITS = {name: unit for unit, names in _FLOATS_BY_UNIT.items() for name in names.split()}

# the other parameters and --config: their type, or the tuple of strings they may take
_OTHER: dict[str, object] = {
    "n": int, "n_pulses": int, "sweep_R": str, "out": str, "config": str,
    "mode": ("real", "complex"),
    "lambda_unit": LAMBDA_UNITS,
}


def _value(what: str, kind: object, text: object) -> object:
    """``text`` as ``kind``: a type, or the tuple of the values it may take."""
    if not isinstance(kind, tuple):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                              f"got {text!r}") from None
    if text not in kind:
        raise ConfigError(f"{what} must be one of {', '.join(kind)}, got {text!r}")
    return text


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
        if isinstance(unit, tuple):  # a Λ's tag, which Params checks against the other units
            resolved.setdefault("lambda_tags", {})[f"config field {name!r}"] = entry["unit"]
        entry = entry.get("value")
    elif unit is not None:
        raise ConfigError(
            f"config field {name!r} must carry a unit tag "
            f'({{"value": ..., "unit": "{"|".join(units)}"}})'
        )
    if isinstance(kind, tuple):
        return _value(f"config field {name!r}", kind, entry)
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
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
    """The parameter names of a row's spec, without its marks."""
    return re.findall(r"\w+", spec)


def _flags(rows: dict) -> list[str]:
    """The flags of a subcommand: every parameter any of its rows reads."""
    return list(dict.fromkeys(name for spec, _ in rows.values() for name in _names(spec)))


class Params:
    """The row of a call's (command, mode) and its flag/config merge: flags
    win, then config, then defaults.

    Before any handler runs, these are config errors, in this order: a bad
    config, a value that is not finite, a bad light speed ``c``, an
    alternative given on both sides (flag and config merged) or on neither,
    and a name the row requires that the call leaves out.  ``c`` is --c, then
    --natural-units (c = 1), then the config, then SI.
    """

    def __init__(self, args: SimpleNamespace):
        self.args = vars(args)
        _, dest, rows = _COMMANDS[args.command]
        mode = self.args.get(dest and dest.lstrip("-"))  # None for a command without modes
        spec, self.handler = rows[mode]
        self.label = f"{args.command} {mode}" if mode else args.command
        self.names = _names(spec) + ["out", "c"]
        self.config = _load_config(self.args.get("config"), self.names)
        if tags := self.config.pop("lambda_tags", None):  # they set lambda_unit, so must agree
            units = {**tags, "config field 'lambda_unit'": self.config.get("lambda_unit"),
                     "--lambda-unit": self.args.get("lambda_unit")}
            (first, unit), *rest = ((k, u) for k, u in units.items() if u is not None)
            if clash := [(source, other) for source, other in rest if other != unit]:
                raise ConfigError(f"the units of Lambda disagree: {first} gives {unit!r}, "
                                  f"{clash[0][0]} gives {clash[0][1]!r}")
            self.config["lambda_unit"] = unit
        # float() and json.load both accept nan and inf
        for name in self.names:
            for value in (self.args.get(name), self.config.get(name)):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"parameter {name!r} must be finite, got {value!r}")
        c = self.args.get("c")
        if c is None:
            c = 1.0 if self.args.get("natural_units") else self.config.get("c", SPEED_OF_LIGHT)
        if not (0.0 < c < math.inf and c * c > 0.0):
            raise ConfigError(f"parameter 'c' must be positive and finite, with a square "
                              f"that is not 0, got {c!r}")
        self.c = c
        # one side of each alternative, then the names outside them
        for token in sorted(spec.split(), key=lambda token: "|" not in token):
            sides = token.split("|")
            given = [[n for n in _names(s) if self.get(n) is not None] for s in sides]
            if len(sides) > 1 and all(given):
                raise ConfigError(f"give {given[0][0]!r} or {given[1][0]!r}, not both")
            sides = [s for s, g in zip(sides, given) if g] or sides
            need = [[n for n in side.split(",") if not n.startswith("[")] for side in sides]
            if len(sides) > 1 and all(need):
                raise ConfigError(f"need either {need[0][0]} or {need[1][0]}")
            if len(sides) == 1 and (missing := [n for n in need[0] if self.get(n) is None]):
                raise ConfigError(f"missing required parameter {missing[0]!r}")
        sweep = self.get("sweep_R") if "sweep_R" in self.names else None
        self.grid = None if sweep is None else _parse_sweep(sweep)

    def get(self, name: str, default: object = None) -> object:
        assert name in self.names, f"{self.label} reads {name!r} but its row does not declare it"
        value = self.args.get(name)
        return self.config.get(name, default) if value is None else value

    def require(self, *names: str) -> tuple:
        """The values of ``names`` in order, which the row requires."""
        return tuple(map(self.get, names))

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
    lines = [",".join(header), *(",".join(map(_format_value, row)) for row in rows)]
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
    t1, t2, t3 = p.require("t1", "t2", "t3")
    rec = radar.RadarRecord(t1, t2, t3)
    m = radar.einstein_measures(rec, p.c)
    return {
        "t_E": m.t_E,
        "r_E": m.r_E,
        "v_E": m.v_E,
        "K": m.K,
        "t2_pred": m.t2_pred,
        "degenerate": m.degenerate,
        "geometric_mean_ok": radar.check_geometric_mean(rec, **p.given("tol")),
        "omega": radar.rapidity_from_vE(m.v_E, p.c).omega,
    }


def _cmd_compose(p: Params) -> dict:
    return {"v3": velocity_space.compose_einstein(*p.require("v1", "v2"), p.c)}


def _cmd_lorentz(p: Params) -> dict:
    t, x, v3 = p.require("t", "x", "v3")
    event = velocity_space.Event4(t, x, **p.given("y", "z"))
    moved = velocity_space.lorentz_transform(event, v3, p.c)
    return {
        **vars(moved),
        "interval_before": velocity_space.interval(event, p.c),
        "interval_after": velocity_space.interval(moved, p.c),
    }


def _cmd_triangle(p: Params) -> dict:
    tri = velocity_space.solve_triangle(*p.require("omega1", "omega2", "omega3"), p.c)
    ein = velocity_space.triangle_to_einstein(tri)
    return {"theta": tri.theta, "phi": tri.phi, "p1": tri.p1, "p2": tri.p2, "n": tri.n, **vars(ein)}


def _source(p: Params, *names: str) -> line_elements.GravitySource:
    """The source given by r0, or by mass and G, plus the parameters ``names``."""
    if p.get("r0") is not None:
        return line_elements.source_from_r0(p.get("r0"), p.c, **p.given(*names))
    return line_elements.source_from_mass(p.get("mass"), c=p.c, **p.given("G", *names))


def _metric_point(p: Params) -> line_elements.MetricPoint:
    return line_elements.MetricPoint(
        R=p.get("R", 0.0), **p.given("theta", "dt", "dR", "dtheta", "dphi")
    )


def _metric_minkowski(p: Params) -> dict:
    steps = (p.get(name, 0.0) for name in ("dt", "dx", "dy", "dz"))
    return {"ds2": line_elements.minkowski_interval(*steps, p.c)}


def _metric_linear(p: Params) -> dict:
    lam = line_elements.LambdaFactor(v=p.get("v"), c=p.c, **p.given("d", "mode"))
    ds2 = line_elements.linear_interval(lam, p.get("dt", 0.0), p.get("dr", 0.0), p.c)
    return {"lambda": lam.value(), "ds2": ds2}


def _metric_rw(p: Params) -> dict:
    return {"ds2": line_elements.robertson_walker_interval(p.get("a"), _metric_point(p), p.c)}


def _metric_approx(p: Params) -> dict:
    src, r = _source(p), p.get("r")
    ds2 = line_elements.newtonian_first_approx(src, r, p.get("dt", 0.0), p.get("dr", 0.0), p.c)
    return {"ds2": ds2, "field_strength": src.schwarzschild_r0 / r}


def _radial_metric(p: Params, src: line_elements.GravitySource, lam_of: Callable) -> dict | tuple:
    """The factor ``lam_of(src, R)`` at the point R, or over sweep_R as CSV."""
    c = p.c

    def row(R: float) -> tuple:
        lam = lam_of(src, R)
        gamma = math.sqrt(lam) if lam > 0 else math.nan  # nan past a horizon
        return R, lam, line_elements.null_radial_speed(lam, c), gamma

    if p.grid is not None:
        header = ("R_m", "lambda_dimensionless", "null_speed_m_per_s", "gamma_dimensionless")
        return header, [row(R) for R in p.grid]

    point = _metric_point(p)
    R, lam, null_speed, gamma = row(point.R)
    result = {"R": R, "lambda": lam, "null_speed": null_speed, "gamma": gamma if lam > 0 else None}
    if point.dt or point.dR or point.dtheta or point.dphi:
        result["ds2"] = line_elements.radial_interval_value(lam, point, c)
    return result


def _cmd_radar_distance(p: Params) -> dict:
    delta_t = line_elements.radar_coordinate_time(_source(p), *p.require("R1", "R2"), p.c)
    return {"delta_t": delta_t, "c_delta_t": p.c * delta_t}


def _cmd_horizon(p: Params) -> dict:
    return {"roots": line_elements.horizon_roots(_source(p, "Lambda", "lambda_unit"))}


def _alteration(p: Params, rest: str, key: str, kernel: object) -> dict:
    """``kernel(rest value, gamma)`` under ``key``, gamma given or from v."""
    gamma = p.get("gamma")
    if gamma is None:
        gamma = alterations.gamma_special(p.get("v"), p.c)
    return {"gamma": gamma, key: kernel(p.get(rest), gamma)}


def _alter_total_doppler(p: Params) -> dict:
    nu_s, v = p.require("nu_s", "v")
    received = alterations.total_doppler(nu_s, v, p.c)
    return {"nu_received": received, "ratio": received / nu_s}


def _cmd_dilation(p: Params) -> dict:
    rs_over_rp, rr_over_rp = p.require("rs_over_rp", "rr_over_rp")
    lam = p.get("Lambda", 0.0)
    lam1 = p.get("Lambda1", lam)  # the R side takes the P side's by default
    if (lam or lam1) and p.get("rp") is None:
        raise ConfigError("rp is required when a cosmological constant is supplied")
    rp = p.get("rp", 1.0)
    unit = p.get("lambda_unit", "s^-2")
    inp = alterations.GravCompareInput(
        rs_over_rp * rp, rp, rr_over_rp * rp,
        *(line_elements.convert_lambda(x, unit, p.c) for x in (lam, lam1)),
    )
    return {"ratio": alterations.gravitational_clock_compare(inp)}


def _cmd_compare_frequency(p: Params) -> dict:
    return {"nu_p": alterations.frequency_compare(*p.require("g1_p", "g1_r", "nu_r"))}


def _transition_H(p: Params) -> tuple:
    k = p.get("k", DEFAULT_TRANSITION_K)
    x_min = p.get("x_min", -5.0 * k)
    x_max = p.get("x_max", 5.0 * k)
    if x_min > x_max:
        raise ConfigError(f"'x_min' = {x_min!r} exceeds 'x_max' = {x_max!r}")
    grid = sorted(x for x in {*_sweep(x_min, x_max, p.get("n", 101), "n"), 0.0, 2.0 * k}
                  if x_min <= x <= x_max)
    rows = [(x, transition.transition_profile(x, k), transition.transition_profile_prime(x, k))
            for x in grid]
    return ("x_dimensionless", "H_dimensionless", "H_prime_dimensionless"), rows


def _transition_interval(p: Params) -> dict:
    k = p.get("k", DEFAULT_TRANSITION_K)
    return vars(transition.partial_interval(
        p.get("lam"), k, p.get("dt", 0.0), p.get("dR", 0.0), p.c
    ))


def _transition_photons(p: Params) -> dict | tuple:
    """One lambda as JSON, or a fan over [lambda_min, lambda_max] as CSV."""
    c = p.c
    k = p.get("k", DEFAULT_TRANSITION_K)
    lam = p.get("lam")
    if lam is not None:
        plus, minus = transition.photon_families(lam, k, c)
        return {"lambda": lam, "speed_plus": plus, "speed_minus": minus}
    fan = _sweep(p.get("lambda_min", 1e-3 * k), p.get("lambda_max", 2.0 * k), p.get("n", 101), "n")
    rows = [(lam_val, *transition.photon_families(lam_val, k, c)) for lam_val in fan]
    return ("lambda_dimensionless", "speed_plus_m_per_s", "speed_minus_m_per_s"), rows


def _sim_roundtrip(p: Params) -> dict:
    t1, omega = p.require("t1", "omega")
    rec = radar.record_from_rapidity(omega, p.c, t1)
    return {**vars(rec), "geometric_mean_ok": radar.check_geometric_mean(rec, **p.given("tol"))}


def _sim_counts(p: Params) -> tuple:
    L, omega, t1 = p.require("L", "omega", "t1")
    spec = clocks.LightClockSpec(round_trip_length_L=L, light_speed_c=p.c)
    trace = medium.count_trace(spec, omega, t1, p.get("n_pulses", 3))
    rows = [
        (i + 1, row.tau1, row.tau2, row.tau3, row.t1, row.t2, row.t3)
        for i, row in enumerate(trace)
    ]
    header = ("pulse_index", "tau1_ticks", "tau2_ticks", "tau3_ticks", "t1_s", "t2_s", "t3_s")
    return header, rows


def _sim_equilinear(p: Params) -> dict:
    c = p.c
    t1, t2, t3 = p.require("t1", "t2", "t3")
    scenario = medium.PropagationScenario(velocity_profile=lambda _t: c, t1=t1, a=t1, b=t3, c=c)
    return vars(medium.equilinear_check(scenario, t1, t2, t3))


def _sim_offset(p: Params) -> dict:
    u, omega, dt_emit = p.require("u", "omega", "dt_emit")
    separation, classical = medium.parallel_photon_offset(u, omega, p.c, dt_emit)
    return {"separation": separation, "classical": classical, "ratio": separation / classical}


def _hubble(p: Params, scale: Callable) -> dict:
    """H and q of the scale factor ``scale``, which takes a Dual time."""
    rates = line_elements.hubble_deceleration(scale, p.get("t"), **p.given("rho", "G"))
    # friedmann_residual is reported only when a density was given
    return {key: value for key, value in vars(rates).items() if value is not None}


# ---------------------------------------------------------------------------
# the table of rows, and the argv reader that reads calls against it

# subcommand: (help, dest of its mode or None, rows); the mode is positional,
# or a flag with choices when its dest is spelled "--model".  A row maps a
# mode (None when there are none) to (the parameters it reads, its handler).
# A call must give each unmarked name; "[name]" is optional.  "a|b" in a row
# lets a call give either side, not both, and it must give one when each side
# has an unmarked name; a side may be a comma-joined group.
_POINT_OR_SWEEP = "R,[theta],[dt],[dR],[dtheta],[dphi]|sweep_R"
_COMMANDS: dict[str, tuple[str, str | None, dict[str | None, tuple[str, object]]]] = {
    "radar": ("Einstein measures of a radar record", None,
              {None: ("t1 t2 t3 [tol]", _cmd_radar)}),
    "compose": ("Einstein velocity composition", None, {None: ("v1 v2", _cmd_compose)}),
    "lorentz": ("x-aligned boost of an event", None, {None: ("t x [y] [z] v3", _cmd_lorentz)}),
    "triangle": ("solve a hyperbolic velocity triangle", None,
                 {None: ("omega1 omega2 omega3", _cmd_triangle)}),
    "metric": ("evaluate a line element", "form", {
        "minkowski": ("[dt] [dx] [dy] [dz]", _metric_minkowski),
        "linear": ("v [d] [mode] [dt] [dr]", _metric_linear),
        "schwarzschild": (f"r0|mass,[G] {_POINT_OR_SWEEP}", lambda p: _radial_metric(
            p, _source(p), line_elements.schwarzschild_lambda)),
        "modified": (f"r0|mass,[G] [Lambda] [lambda_unit] {_POINT_OR_SWEEP}",
                     lambda p: _radial_metric(p, _source(p, "Lambda", "lambda_unit"),
                                              line_elements.modified_schwarzschild_lambda)),
        "desitter": (f"[Lambda] [lambda_unit] {_POINT_OR_SWEEP}", lambda p: _radial_metric(
            p, line_elements.source_from_r0(0.0, p.c, **p.given("Lambda", "lambda_unit")),
            line_elements.modified_schwarzschild_lambda)),
        "rw": ("a [R] [theta] [dt] [dR] [dtheta] [dphi]", _metric_rw),
        "approx": ("r0|mass,[G] r [dt] [dr]", _metric_approx),
    }),
    "radar-distance": ("radial pulse coordinate flight time", None,
                       {None: ("r0|mass,[G] R1 R2", _cmd_radar_distance)}),
    "horizon": ("horizon radii of the modified factor", None,
                {None: ("r0|mass,[G] [Lambda] [lambda_unit]", _cmd_horizon)}),
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
                 {None: ("rs_over_rp rr_over_rp [rp] [Lambda] [Lambda1] [lambda_unit]",
                         _cmd_dilation)}),
    "compare-frequency": ("two-position frequency comparison", None,
                          {None: ("g1_p g1_r nu_r", _cmd_compare_frequency)}),
    "transition": ("transition-zone machinery", "mode", {
        "H": ("[k] [x_min] [x_max] [n]", _transition_H),
        "interval": ("[k] lam [dt] [dR]", _transition_interval),
        "photons": ("[k] [lam]|[lambda_min],[lambda_max],[n]", _transition_photons),
    }),
    "sim": ("medium-propagation simulator", "mode", {
        "roundtrip": ("t1 omega [tol]", _sim_roundtrip),
        "counts": ("L omega t1 [n_pulses]", _sim_counts),
        "equilinear": ("t1 t2 t3", _sim_equilinear),
        "offset": ("u omega dt_emit", _sim_offset),
    }),
    # a = rate·t gives H = 1/t whatever the rate, so linear reads none
    "hubble": ("expansion rate and deceleration parameter", "--model", {
        "linear": ("t [rho] [G]", lambda p: _hubble(p, lambda tt: tt)),
        "exponential": ("rate t [rho] [G]",
                        lambda p: _hubble(p, lambda tt: (tt * p.get("rate")).exp())),
        "powerlaw": ("exponent t [rho] [G]",
                     lambda p: _hubble(p, lambda tt: tt ** p.get("exponent"))),
    }),
}

# every config field: the parameters of all rows
_DECLARED = {"out", "c"}.union(*(_flags(rows) for _, _, rows in _COMMANDS.values()))

# every row also reads --out and --c, and every subcommand takes all four
_COMMON = ("config", "out", "c", "natural_units")
# each flag and the name it sets, whichever row reads that name
_FLAGS = {"--" + name.replace("_", "-"): name for name in [*_DECLARED, *_COMMON]}


def _help(command: str | None) -> str:
    """The help text of ``command``, or of lightclock when it is None."""
    if command is None:
        lines = [f"  {name:19}{text}" for name, (text, _, _) in _COMMANDS.items()]
        return "\n".join(["usage: lightclock <command> [--<name> <value> ...]", "", *lines, ""])
    text, dest, rows = _COMMANDS[command]
    slot = "" if dest is None else f" {dest} <{dest[2:]}>" if dest[0] == "-" else f" <{dest}>"
    head = f"parameters read by each {dest}" if dest else "parameters read"
    lines = [f"  {mode:14}{spec}" if mode else f"  {spec}" for mode, (spec, _) in rows.items()]
    return "\n".join([
        f"usage: lightclock {command}{slot} [--<name> <value> | --<name>=<value> ...]", "", text,
        "", "--config <JSON file> (flags override it), --out <file>, --c <m/s>, --natural-units",
        "", f"{head}, plus --out and --c; the flag of a name is --<name>, with - for _:",
        *lines, "a|b: a or b, not both; a,b: a group; [a]: optional", ""])


class ArgvReader:
    """Reads a call's argv against ``_COMMANDS``: the subcommand, then in any
    order its mode (positional, or the flag ``--model``) and ``--name value``
    or ``--name=value`` for each declared name and common flag; a value may
    start with one "-".  Anything else is a config error naming its token."""

    def parse_args(self, argv: Sequence[str]) -> SimpleNamespace | str:
        """What Params takes, or the help text that -h or --help asks for."""
        command = argv[0] if argv else None
        if {"-h", "--help"} & set(argv):
            return _help(command if command in _COMMANDS else None)
        if command not in _COMMANDS:
            got = f"unknown subcommand {command!r}" if argv else "missing subcommand"
            raise ConfigError(f"{got}; the subcommands are {', '.join(_COMMANDS)}")
        _, dest, rows = _COMMANDS[command]
        given, tokens = {}, iter(argv[1:])  # the mode is given[None]
        for token in tokens:
            flag, eq, text = token.partition("=")
            if not token.startswith("--") and dest and dest[0] != "-" and None not in given:
                flag, eq, text = dest, "=", token  # the positional mode
            elif flag != dest and flag not in _FLAGS:  # an abbreviation too, or _ for -
                raise ConfigError(f"unknown argument {flag!r}; see lightclock {command} --help")
            name = _FLAGS.get(flag)
            if name in given:
                raise ConfigError(f"{flag} is given twice")
            if name == "natural_units":
                if eq:
                    raise ConfigError(f"{flag} takes no value")
                given[name] = True
            elif not eq and ((text := next(tokens, None)) is None or text.startswith("--")):
                raise ConfigError(f"{flag} needs a value")
            else:
                given[name] = _value(flag, _OTHER.get(name, float) if name else tuple(rows), text)
        mode = given.pop(None, None)
        if dest and mode is None:
            raise ConfigError(f"missing required parameter {dest.lstrip('-')!r}")
        spec = rows[mode][0]
        unread = [name for name in given if name not in _COMMON and name not in _names(spec)]
        if unread:
            label = f"{command} {mode}" if mode else command
            raise ConfigError(f"{label} does not read {', '.join(map(repr, unread))}; "
                              f"it reads {re.sub(r'[][]', '', spec)}")
        if dest:
            given[dest.lstrip("-")] = mode
        return SimpleNamespace(command=command, **given)


# the reader, under the name that perfbench's probes and the tests call
build_parser = ArgvReader


def _check_finite(result: dict | tuple) -> None:
    """Raise FloatingPointError naming the first output key with a value
    that is not finite, or its CSV column and row ("at R = 2.0" where the
    first column, R_m, reads 2.0); a sweep's gamma column is nan past a
    horizon by design."""
    if isinstance(result, dict):
        cells = ((k, x, "") for k, v in result.items() for x in (v if isinstance(v, list) else [v]))
    else:
        header, rows = result
        cells = ((k, x, r) for r in rows for k, x in zip(header, r) if not k.startswith("gamma"))
    for key, x, row in cells:
        if isinstance(x, float) and not math.isfinite(x):
            where = f" at {header[0].partition('_')[0]} = {row[0]!r}" if row else ""
            raise FloatingPointError(f"output {key!r} is not finite: {x!r}{where}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        if isinstance(args, str):  # the help that -h or --help asks for
            sys.stdout.write(args)
            return 0
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

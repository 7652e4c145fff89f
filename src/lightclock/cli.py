"""Command-line surface: scenario configuration, batch evaluation, and
table/plot-data emission.

Parameters come from flags or from a JSON config file (flags win).  Physical
quantities in config files carry explicit unit tags; a mismatch is a config
error (exit 2).  Domain errors from the core exit 1.  Output is JSON for
single results and CSV for sweeps, both byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

# each submodule's body runs only when a handler first uses it (see the
# package docstring), so a call loads just the modules its subcommand needs
from . import (
    LAMBDA_UNITS,
    SPEED_OF_LIGHT,
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
_OTHER: dict[str, Any] = {
    "n": int, "n_pulses": int, "sweep_R": str, "out": str,
    "mode": ("real", "complex"),
    "lambda_unit": LAMBDA_UNITS,
    "model": ("linear", "exponential", "powerlaw"),
}


def _config_value(name: str, entry: Any, resolved: dict[str, Any]) -> Any:
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
    return entry if unit is None else float(entry)


def _load_config(path: str | None, names: Sequence[str]) -> dict[str, Any]:
    """Read a config file and resolve the fields in ``names``.  A field that
    only other subcommands take is ignored, since a config may be shared; one
    that no subcommand takes is an error."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    resolved: dict[str, Any] = {}
    for name, entry in raw.items():
        if name in names:
            resolved[name] = _config_value(name, entry, resolved)
        elif name not in _DECLARED:
            raise ConfigError(f"config field {name!r} is not a parameter of any subcommand")
    return resolved


class Params:
    """Flag/config merge: flags win, then config, then defaults.

    The light speed ``c`` is resolved on construction: --c, then
    --natural-units (c = 1), then the config, then SI.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        names = _COMMANDS[args.command][1].split() + ["out", "c"]
        self.config = _load_config(self.args.get("config"), names)
        # argparse's float() and json.load both accept nan and inf
        for name in names:
            for value in (self.args.get(name), self.config.get(name)):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"parameter {name!r} must be finite, got {value!r}")
        c = self.args.get("c")
        if c is None:
            c = 1.0 if self.args.get("natural_units") else self.config.get("c", SPEED_OF_LIGHT)
        if not 0.0 < c < math.inf:
            raise ConfigError(f"parameter 'c' must be positive and finite, got {c!r}")
        self.c = c

    def get(self, name: str, default: Any = None, required: bool = False) -> Any:
        value = self.args.get(name)
        if value is None:
            value = self.config.get(name, default)
        if value is None and required:
            raise ConfigError(f"missing required parameter {name!r}")
        return value

    def require(self, *names: str) -> tuple:
        """The values of ``names`` in order; each must be given."""
        return tuple(self.get(name, required=True) for name in names)

    def given(self, *names: str) -> dict[str, Any]:
        """The parameters among ``names`` that were given, as keyword
        arguments, so that the kernel's own defaults cover the rest."""
        return {name: value for name in names if (value := self.get(name)) is not None}


def _format_value(x: Any) -> str:
    # float() first: numpy.float64 is a float whose repr is "np.float64(...)"
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def emit_json(obj: dict[str, Any], out: str | None) -> None:
    """Strict JSON: a non-finite value raises ValueError."""
    _write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def emit_plot_data(
    header: Sequence[str], rows: Sequence[Sequence[Any]], out: str | None
) -> None:
    """CSV with a header naming columns and units, LF endings, and floats
    printed at full round-trip precision."""
    if not rows:
        raise ValueError("refusing to emit an empty series")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(x) for x in row))
    _write_text("\n".join(lines) + "\n", out)


def _parse_sweep(text: str) -> list[float]:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"sweep must look like start:stop:count, got {text!r}") from exc
    if count < 2:
        raise ConfigError("sweep count must be at least 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep start and stop must be finite, got {text!r}")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# command handlers: each returns a dict (emitted as JSON) or a
# (header, rows) pair (emitted as CSV)


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


def _source(p: Params, force_massless: bool = False) -> line_elements.GravitySource:
    common = dict(c=p.c, **p.given("G", "Lambda", "lambda_unit"))
    if force_massless:
        return line_elements.GravitySource(mass_M=0.0, **common)
    r0 = p.get("r0")
    mass = p.get("mass")
    if r0 is None and mass is None:
        raise ConfigError("need either r0 or mass")
    if r0 is not None:
        return line_elements.source_from_r0(r0, **common)
    return line_elements.GravitySource(mass_M=mass, **common)


def _metric_point(p: Params) -> line_elements.MetricPoint:
    return line_elements.MetricPoint(
        R=p.get("R", 0.0), **p.given("theta", "dt", "dR", "dtheta", "dphi")
    )


def _cmd_metric(p: Params) -> dict | tuple:
    c = p.c
    form = p.get("form")

    if form == "minkowski":
        ds2 = line_elements.minkowski_interval(
            p.get("dt", 0.0), p.get("dx", 0.0), p.get("dy", 0.0), p.get("dz", 0.0), c
        )
        return {"ds2": ds2}

    if form == "linear":
        lam = line_elements.LambdaFactor(v=p.get("v", required=True), c=c, **p.given("d", "mode"))
        ds2 = line_elements.linear_interval(lam, p.get("dt", 0.0), p.get("dr", 0.0), c)
        return {"lambda": lam.value(), "ds2": ds2}

    if form == "rw":
        ds2 = line_elements.robertson_walker_interval(
            p.get("a", required=True), _metric_point(p), c
        )
        return {"ds2": ds2}

    if form == "approx":
        src = _source(p)
        ds2 = line_elements.newtonian_first_approx(
            src, p.get("r", required=True), p.get("dt", 0.0), p.get("dr", 0.0), c
        )
        return {"ds2": ds2, "field_strength": src.schwarzschild_r0 / p.get("r")}

    # Schwarzschild family: schwarzschild | modified | desitter
    src = _source(p, force_massless=(form == "desitter"))
    if form == "schwarzschild":
        lam_of = line_elements.schwarzschild_lambda
    else:
        lam_of = line_elements.modified_schwarzschild_lambda

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
    return {"roots": line_elements.horizon_roots(_source(p))}


def _cmd_alter(p: Params) -> dict:
    effect = p.get("effect")
    if effect == "total-doppler":
        nu_s = p.get("nu_s", required=True)
        received = alterations.total_doppler(nu_s, p.get("v", required=True), p.c)
        return {"nu_received": received, "ratio": received / nu_s}
    gamma = p.get("gamma")
    if gamma is None:
        v = p.get("v")
        if v is None:
            raise ConfigError("need either gamma or v")
        gamma = alterations.gamma_special(v, p.c)
    if effect == "doppler":
        nu_m = alterations.transverse_doppler(p.get("nu_s", required=True), gamma)
        return {"gamma": gamma, "nu_m": nu_m}
    if effect == "decay":
        tau_m = alterations.decay_lifetime(p.get("tau_s", required=True), gamma)
        return {"gamma": gamma, "tau_m": tau_m}
    mass_m = alterations.mass_alteration(p.get("mass_s", required=True), gamma)
    return {"gamma": gamma, "mass_m": mass_m}


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


def _cmd_transition(p: Params) -> dict | tuple:
    c = p.c
    mode = p.get("mode")
    k = p.get("k", DEFAULT_TRANSITION_K)
    if mode == "H":
        x_min = p.get("x_min", -5.0 * k)
        x_max = p.get("x_max", 5.0 * k)
        n = p.get("n", 101)
        grid = sorted(set(_parse_sweep(f"{x_min}:{x_max}:{n}") + [0.0, 2.0 * k]))
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
    if mode == "interval":
        return vars(transition.partial_interval(
            p.get("lam", required=True), k, p.get("dt", 0.0), p.get("dR", 0.0), c
        ))
    # photons: one lambda as JSON, or a fan over [lambda_min, lambda_max] as CSV
    lam = p.get("lam")
    if lam is not None:
        plus, minus = transition.photon_families(lam, k, c)
        return {"lambda": lam, "speed_plus": plus, "speed_minus": minus}
    lam_min = p.get("lambda_min", 1e-3 * k)
    lam_max = p.get("lambda_max", 2.0 * k)
    n = p.get("n", 101)
    rows = []
    for lam_val in _parse_sweep(f"{lam_min}:{lam_max}:{n}"):
        plus, minus = transition.photon_families(lam_val, k, c)
        rows.append((lam_val, plus, minus))
    return ("lambda_dimensionless", "speed_plus_m_per_s", "speed_minus_m_per_s"), rows


def _cmd_sim(p: Params) -> dict | tuple:
    c = p.c
    mode = p.get("mode")
    if mode == "roundtrip":
        t1, omega = p.require("t1", "omega")
        rec = radar.record_from_rapidity(omega, c, t1)
        return {**vars(rec), "geometric_mean_ok": radar.check_geometric_mean(rec, _tolerance())}
    if mode == "counts":
        spec = clocks.LightClockSpec(
            round_trip_length_L=p.get("L", required=True), light_speed_c=c
        )
        trace = medium.count_trace(spec, *p.require("omega", "t1"), p.get("n_pulses", 3))
        rows = [
            (i + 1, row.tau1, row.tau2, row.tau3, row.t1, row.t2, row.t3)
            for i, row in enumerate(trace)
        ]
        header = ("pulse_index", "tau1_ticks", "tau2_ticks", "tau3_ticks", "t1_s", "t2_s", "t3_s")
        return header, rows
    if mode == "equilinear":
        t1, t2, t3 = p.require("t1", "t2", "t3")
        scenario = medium.PropagationScenario(
            velocity_profile=lambda _t: c, t1=t1, a=t1, b=t3, c=c
        )
        return vars(medium.equilinear_check(scenario, t1, t2, t3))
    # offset
    u, omega, dt_emit = p.require("u", "omega", "dt_emit")
    separation, classical = medium.parallel_photon_offset(u, omega, c, dt_emit)
    return {
        "separation": separation,
        "classical": classical,
        "ratio": separation / classical,
    }


def _cmd_hubble(p: Params) -> dict:
    model, t = p.require("model", "t")
    if model == "linear":
        rate = p.get("rate", 1.0)
        scale = lambda tt: rate * tt
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

# subcommand: (help, parameters, handler, positional (dest, choices) or
# None); every subcommand also takes --config, --out, --c and --natural-units
_COMMANDS: dict[str, tuple[str, str, Any, Any]] = {
    "radar": ("Einstein measures of a radar record", "t1 t2 t3", _cmd_radar, None),
    "compose": ("Einstein velocity composition", "v1 v2", _cmd_compose, None),
    "lorentz": ("x-aligned boost of an event", "t x y z v3", _cmd_lorentz, None),
    "triangle": ("solve a hyperbolic velocity triangle", "omega1 omega2 omega3",
                 _cmd_triangle, None),
    "metric": ("evaluate a line element",
               "dt dx dy dz dr dR dtheta dphi theta v d a R r r0 mass G Lambda"
               " mode lambda_unit sweep_R", _cmd_metric,
               ("form", "minkowski linear schwarzschild modified desitter rw approx")),
    "radar-distance": ("radial pulse coordinate flight time", "r0 mass G R1 R2",
                       _cmd_radar_distance, None),
    "horizon": ("horizon radii of the modified factor", "r0 mass G Lambda lambda_unit",
                _cmd_horizon, None),
    "alter": ("physical alteration ratios", "nu_s tau_s mass_s v gamma", _cmd_alter,
              ("effect", "doppler total-doppler decay mass")),
    "dilation": ("gravitational clock-rate comparison",
                 "rs_over_rp rr_over_rp rp Lambda Lambda1 lambda_unit", _cmd_dilation, None),
    "compare-frequency": ("two-position frequency comparison", "g1_p g1_r nu_r",
                          _cmd_compare_frequency, None),
    "transition": ("transition-zone machinery", "k lam x_min x_max lambda_min lambda_max dt dR n",
                   _cmd_transition, ("mode", "H interval photons")),
    "sim": ("medium-propagation simulator", "omega t1 t2 t3 L u dt_emit n_pulses", _cmd_sim,
            ("mode", "roundtrip counts equilinear offset")),
    "hubble": ("expansion rate and deceleration parameter", "model t rate exponent rho G",
               _cmd_hubble, None),
}

# every config field: the parameters of all subcommands
_DECLARED = {"out", "c"}.union(*(names.split() for _, names, _, _ in _COMMANDS.values()))

_HELP = {"sweep_R": "radial sweep start:stop:count emitting CSV"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightclock",
        description="Deterministic light-clock kinematics engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names, handler, positional) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        if positional is not None:
            sp.add_argument(positional[0], choices=positional[1].split())
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--c", type=float, help="light speed in m/s")
        sp.add_argument(
            "--natural-units", action="store_true", help="set c = 1 unless --c is given"
        )
        for name in names.split():
            kind = _OTHER.get(name, float)
            choices = kind if isinstance(kind, tuple) else None
            sp.add_argument(
                f"--{name.replace('_', '-')}",
                dest=name,
                type=None if choices else kind,
                choices=choices,
                help=_HELP.get(name),
            )
        sp.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = Params(args)
        result = args.func(params)
        if isinstance(result, dict):
            emit_json(result, params.get("out"))
        else:
            emit_plot_data(*result, params.get("out"))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The bit ledger: one SHA-256 per public kernel over every bit it returns on a
seeded corpus, one per CLI call of ``test_cli_rows.GOOD`` over its stdout, and
one per numpy bridge profile over a seeded grid and one over a grid of
several evaluation blocks.

Each kernel is called on ``PER_KERNEL`` inputs drawn from its documented
domain by a ``random.Random`` seeded with the kernel's name, then on one base
call with each float argument in turn set to each of ``EDGES``.  Its entry
``<kernel> nonfinite`` holds the same base call with each float argument in
turn set to each of ``NONFINITE``, where it has one.  An outcome is
every float of the result as ``float.hex`` (a record field by field), or what
the call raised (see ``outcome``).  ``tests/fixtures/ledger.json``
holds the hashes and the platform and Python they were made on.

    python tests/ledger.py --check          # name each entry that moved; exit 1 if any
    python tests/ledger.py --update NAME..  # rewrite the named entries only
    python tests/ledger.py --write          # rewrite the whole ledger

Without numpy, ``--check`` skips the numpy entries.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import platform
import random
import sys
import warnings
from pathlib import Path

import lightclock as lc
from lightclock import cli

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "ledger.json"
PER_KERNEL = 256
# the finite edges each float argument of a base call meets
EDGES = (0.0, -0.0, 5e-324, 1e-300, -1.0, -0.5, 0.9999999999999999, 1.0, 1e300, -1e300, 2.0)
NONFINITE = (math.inf, -math.inf, math.nan)
NUMPY_POINTS = 4096


def _bits(x, out: list[str]) -> None:
    """Append the bits of x: a float as float.hex, a record or Dual field by field."""
    if isinstance(x, float):
        out.append(x.hex())
    elif x is None or x is lc.UNBOUNDED or isinstance(x, (bool, int, str)):
        out.append(repr(x))
    elif isinstance(x, (tuple, list)):
        out.append("(")
        for y in x:
            _bits(y, out)
        out.append(")")
    else:  # a record: its class and its fields in order
        out.append(type(x).__name__)
        for y in vars(x).values():
            _bits(y, out)


def outcome(fn, args) -> str:
    """What fn(*args) returns, bit for bit, or the type and message of the
    ValueError it raises.  A bare ZeroDivisionError or OverflowError is kept
    by type alone: its words are the interpreter's or libc's, not the kernel's."""
    try:
        result = fn(*args)
    except ArithmeticError as exc:
        return type(exc).__name__
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    out: list[str] = []
    _bits(result, out)
    return " ".join(out)


# -- the corpus: for each kernel, a draw of one valid argument tuple ------------
# A draw takes u = rng.uniform and the draw's index i, which picks a branch in
# turn where a kernel has several.


def _source(u, i):
    r0 = u(0.5, 2.0)
    return lc.source_from_r0(r0, c=1.0, Lambda=(0.0, u(1e-4, 1e-2))[i % 2], lambda_unit="m^-2")


def _scenario(u, i):
    a = u(0.5, 2.0)
    b = a * u(1.5, 6.0)
    amp, p = u(0.01, 0.5), u(-1.5, 2.0)
    profile = (lambda t: amp, lambda t: amp * t ** p, lambda t: amp * math.log(t) + amp)[i % 3]
    return lc.PropagationScenario(profile, a, a, b, u(0.3, 3.0))


def _record(u, off=1.0, span=20.0):
    """(t1, t2, t3) of a receding reflector, t2 off the geometric mean by the factor off."""
    t1 = u(0.5, 5.0)
    t3 = t1 * u(1.0, span)
    return t1, min(math.sqrt(t1 * t3) * off, t3), t3


def _diagram(u):
    """A clock and two successive pulses (emission, reflection, return) on it."""
    a1 = u(0.0, 10.0)
    a3 = a1 + u(0.5, 10.0)
    b1 = a3 + u(0.0, 10.0)
    b3 = b1 + u(0.5, 10.0)
    return (_clock(u), (a1, 0.5 * (a1 + a3), a3),
            (b1, 0.5 * (b1 + b3), b3), 1e-9)


def _triangle(u, i):
    """(omega1, omega2, omega3, c) in turn general, collinear and degenerate."""
    c = u(0.5, 3.0)
    while i % 3 == 0:  # the hyperbolic cosine law with phi in (pi/2, pi), theta acute
        w2, w3, cp = u(0.2, 1.5), u(0.2, 1.5), u(-0.95, -0.05)
        w1 = math.acosh(math.cosh(w2) * math.cosh(w3) + math.sinh(w2) * math.sinh(w3) * cp)
        if math.cosh(w1) * math.cosh(w3) - math.cosh(w2) >= 0.05 * math.sinh(w1) * math.sinh(w3):
            return w1 * c, w2 * c, w3 * c, c
    w1, w2 = u(0.0, 2.0) * c, u(0.0, 2.0) * c
    if i % 3 == 1:
        return w1, w2, w1 + w2, c
    return (w1, 0.0, w1, c) if i % 2 else (w1, w1, 0.0, c)


def _positions(u, i, lam):
    """(r_s, r_P, r_R, Lambda_P, Lambda_R): r_R infinite in turn where Lambda is 0."""
    rs = u(0.0, 2.0)
    far = (rs * u(10.0, 100.0) + 1.0, math.inf)[i % 2]
    return rs, rs * u(1.01, 10.0) + 0.1, far, u(0.0, lam), u(0.0, lam / 100.0)


def _point(u, R=None):
    R = u(1.0, 10.0) if R is None else R
    return lc.MetricPoint(R, u(0.1, 3.0), u(-1, 1), u(-1, 1), u(-0.1, 0.1), u(-0.1, 0.1))


def _radius(u, i, src):
    """A radius in turn inside, on and outside the source's Schwarzschild radius."""
    return src.schwarzschild_r0 * (u(0.1, 0.99), 1.0, u(1.01, 10.0))[i % 3]


def _scale(u, i):
    p, rate = u(0.2, 3.0), u(0.1, 1.0)
    return (lambda t: t ** p, lambda t: (t * rate).exp(), lambda t: t * rate)[i % 3]


def _lam_region(u, i, k):
    """A lambda in turn interior, transition and exterior, and their boundaries."""
    return (u(-1.0, 0.0), u(0.0, 2.0) * k, u(2.0, 6.0) * k, 0.0, 2.0 * k)[i % 5]


def _subluminal(u, n=1):
    """n speeds below a drawn c, then c."""
    c = u(0.5, 3.0)
    return (*(u(-0.99, 0.99) * c for _ in range(n)), c)


def _scaled(u, lo, hi):
    """(x, k): a width k and an x in [lo·k, hi·k]."""
    k = u(1e-3, 1.0)
    return u(lo, hi) * k, k


def _clock(u):
    return lc.LightClockSpec(u(0.1, 10.0), u(0.5, 3.0))


def _counts(u):
    """Two counter readings, the second not before the first."""
    a = u(0.0, 99.0)
    return a, a + u(0.0, 99.0)


def _outside(u, i):
    """A source and a radius outside its Schwarzschild radius."""
    src = _source(u, i)
    return src, src.schwarzschild_r0 * u(1.01, 100.0)


def _profile_span(u, i, n):
    """A scenario, its start a and n ascending times in [a, b]."""
    sc = _scenario(u, i)
    return (sc, sc.a, *sorted(u(sc.a, sc.b) for _ in range(n)))


KERNELS = {
    # infinitesimals
    "Dual": (lc.Dual, lambda u, i: (u(-5, 5), u(-5, 5))),
    "derivative": (lc.derivative, lambda u, i: (
        (lambda d: (d * d).sin() + d.exp(), lambda d: d.sqrt() / (1.0 + d), abs)[i % 3],
        u(0.1, 3.0))),
    "dual_arith": (lc.dual_arith, lambda u, i: (
        lc.Dual(u(-5, 5), u(-5, 5)), lc.Dual(u(0.5, 5), u(-5, 5)),
        ("add", "sub", "mul", "div")[i % 4])),
    "infinitely_close": (lc.infinitely_close, lambda u, i: (
        u(-1e-2, 1e-2), u(-1e-2, 1e-2), u(1e-4, 1e-2))),
    "standard_part": (lc.standard_part, lambda u, i: ((
        u(-5, 5), lc.Dual(u(-5, 5), u(-5, 5)),
        lc.Dual(lc.Dual(u(-5, 5), 1.0), lc.Dual(1.0, 0.0)))[i % 3],)),
    # clocks
    "LightClockSpec": (lc.LightClockSpec, lambda u, i: (u(0.1, 10.0), u(0.5, 3.0))),
    "CountPair": (lc.CountPair, lambda u, i: _counts(u)),
    "time_from_counts": (lc.time_from_counts, lambda u, i: (_clock(u), lc.CountPair(*_counts(u)))),
    "distance_from_counts": (lc.distance_from_counts, lambda u, i: (
        _clock(u), lc.CountPair(*_counts(u)))),
    "counts_for_length": (lc.counts_for_length, lambda u, i: (
        lc.LightClockSpec(u(0.1, 10.0)), u(0.0, 1e3))),
    "einstein_from_count_diagram": (lc.einstein_from_count_diagram, lambda u, i: _diagram(u)),
    # radar
    "RadarRecord": (lc.RadarRecord, lambda u, i: _record(u)),
    "Rapidity": (lc.Rapidity, lambda u, i: (u(0.0, 3.0), u(0.5, 3.0))),
    "einstein_measures": (lc.einstein_measures, lambda u, i: (  # t1 = t3 in turn
        lc.RadarRecord(*_record(u, span=(1.0, 20.0)[i % 4 > 0])), u(0.5, 3.0))),
    "check_geometric_mean": (lc.check_geometric_mean, lambda u, i: (
        lc.RadarRecord(*_record(u, (1.0, 1.01)[i % 2])), 1e-12)),
    "rapidity_from_vE": (lc.rapidity_from_vE, lambda u, i: _subluminal(u)),
    "record_from_rapidity": (lc.record_from_rapidity, lambda u, i: (
        u(0.0, 3.0), u(0.5, 3.0), u(0.5, 5.0))),
    # velocity_space
    "beta_gamma": (lc.beta_gamma, lambda u, i: _subluminal(u)),
    "compose_einstein": (lc.compose_einstein, lambda u, i: _subluminal(u, 2)),
    "solve_triangle": (lc.solve_triangle, _triangle),
    "triangle_to_einstein": (lc.triangle_to_einstein, lambda u, i: (
        lc.solve_triangle(*_triangle(u, 0)),)),
    "lorentz_transform": (lc.lorentz_transform, lambda u, i: (
        lc.Event4(u(0.5, 5.0), u(-3, 3), u(-3, 3), u(-3, 3)), *_subluminal(u))),
    "interval": (lc.interval, lambda u, i: (
        lc.Event4(u(0, 5), u(-3, 3), u(-3, 3), u(-3, 3)), u(0.5, 3.0))),
    # line_elements
    "source_from_r0": (lc.source_from_r0, lambda u, i: (
        u(0.0, 1e4), u(1.0, 3e8), u(0.0, 1e-3), lc.LAMBDA_UNITS[i % 3])),
    "source_from_mass": (lc.source_from_mass, lambda u, i: (
        u(0.0, 1e30), u(1e-12, 1e-9), u(1.0, 3e8), u(0.0, 1e-3), lc.LAMBDA_UNITS[i % 3])),
    "schwarzschild_lambda": (lc.schwarzschild_lambda, _outside),
    "potential_velocity": (lc.potential_velocity, lambda u, i: (_source(u, i), u(0.5, 100.0))),
    "modified_schwarzschild_lambda": (lc.modified_schwarzschild_lambda, lambda u, i: (
        _source(u, i), u(0.5, 100.0))),
    "null_radial_speed": (lc.null_radial_speed, lambda u, i: (u(-1.0, 1.0), u(0.5, 3.0))),
    "horizon_roots": (lc.horizon_roots, lambda u, i: (lc.source_from_r0(  # r0 = 0, Lambda = 0 in turn
        (0.0, u(0.01, 2.0))[i % 4 > 0], 1.0, (0.0, u(0.0, 1.0))[i % 3 > 0], "m^-2"),)),
    "cosmological_constant_for_horizon": (lc.cosmological_constant_for_horizon, lambda u, i: (
        u(0.0, 2.0), u(0.5, 10.0))),
    "minkowski_interval": (lc.minkowski_interval, lambda u, i: (
        u(-2, 2), u(-2, 2), u(-1, 1), u(-1, 1), u(0.5, 3.0))),
    "linear_interval": (lc.linear_interval, lambda u, i: (
        lc.LambdaFactor(u(0.0, 0.9), u(-0.05, 0.05), 1.0, ("real", "complex")[i % 2]),
        u(-2, 2), u(-2, 2), 1.0)),
    "radial_interval": (lc.radial_interval, lambda u, i: (
        lc.LambdaFactor(u(0.0, 0.9), 0.0, 1.0, ("real", "complex")[i % 2]), _point(u), 1.0)),
    "robertson_walker_interval": (lc.robertson_walker_interval, lambda u, i: (
        u(11.0, 100.0), _point(u), 1.0)),
    "newtonian_first_approx": (lc.newtonian_first_approx, lambda u, i: (
        _source(u, 0), u(1.0, 100.0), u(-2, 2), u(-2, 2), 1.0)),
    "radar_coordinate_time": (lc.radar_coordinate_time, lambda u, i: (
        lambda src, R1: (src, R1, R1 * u(1.0, 5.0), 1.0))(_source(u, 0), u(2.5, 10.0))),
    "infinitesimal_transform": (lc.infinitesimal_transform, lambda u, i: (
        u(1e-3, 1.0), u(-2, 2), u(-2, 2))),
    "hubble_deceleration": (lc.hubble_deceleration, lambda u, i: (
        _scale(u, i), u(0.5, 5.0), (None, u(1e-27, 1e-25))[i % 2], lc.GRAVITATIONAL_CONSTANT)),
    # alterations
    "alteration_report": (lc.alteration_report, lambda u, i: (u(1e-3, 1.0),)),
    "gamma_special": (lc.gamma_special, lambda u, i: _subluminal(u)),
    "gamma_gravitational": (lc.gamma_gravitational, _outside),
    "transverse_doppler": (lc.transverse_doppler, lambda u, i: (u(1e6, 1e10), u(1e-3, 1.0))),
    "total_doppler": (lc.total_doppler, lambda u, i: (
        lambda c: (u(1e6, 1e10), u(0.0, 0.99) * c, c))(u(0.5, 3.0))),
    "decay_lifetime": (lc.decay_lifetime, lambda u, i: (u(1e-6, 10.0), u(1e-3, 1.0))),
    "mass_alteration": (lc.mass_alteration, lambda u, i: (u(1e-3, 10.0), u(1e-3, 1.0))),
    "separated_operator_check": (lc.separated_operator_check, lambda u, i: (
        (math.exp, lambda t: 1.0 + t * t)[i % 2], u(0.1, 1.0), u(0.5, 3.0))),
    "GravCompareInput": (lc.GravCompareInput, lambda u, i: _positions(u, i, 0.0)),
    "gravitational_clock_compare": (lc.gravitational_clock_compare, lambda u, i: (
        lc.GravCompareInput(*_positions(u, 0, (0.0, 1e-4)[i % 2])),)),
    "frequency_compare": (lc.frequency_compare, lambda u, i: (
        u(1e-3, 1.0), u(1e-3, 1.0), u(1e6, 1e10))),
    "altered_light_speed": (lc.altered_light_speed, lambda u, i: (u(1e-3, 1.0), u(0.5, 3e8))),
    "rate_of_change_compare": (lc.rate_of_change_compare, lambda u, i: (
        u(1e-3, 1.0), u(1e-3, 1.0), u(-5, 5))),
    # transition
    "middle_branch": (lc.middle_branch, lambda u, i: _scaled(u, 0.0, 2.0)),
    "transition_profile": (lc.transition_profile, lambda u, i: _scaled(u, -3.0, 3.0)),
    "transition_profile_prime": (lc.transition_profile_prime, lambda u, i: _scaled(u, -3.0, 3.0)),
    "damping_factor": (lc.damping_factor, lambda u, i: (
        lambda src: (_radius(u, i, src), src))(_source(u, 0))),
    "black_hole_interval": (lc.black_hole_interval, lambda u, i: (
        u(-1.0, 0.0), u(-2, 2), u(-2, 2), u(0.1, 1.0), u(0.1, 3.0), u(-0.1, 0.1), u(-0.1, 0.1),
        u(0.5, 3.0))),
    "transformed_radial_interval": (lc.transformed_radial_interval, lambda u, i: (
        lambda src: (src, _point(u, _radius(u, i, src))))(_source(u, 0))),
    "partial_interval": (lc.partial_interval, lambda u, i: (lambda k: (
        _lam_region(u, i, k), k, u(0.1, 2.0), u(0.1, 2.0), u(0.5, 3.0)))(u(1e-3, 1.0))),
    "photon_families": (lc.photon_families, lambda u, i: (*_scaled(u, 0.0, 2.0), u(0.5, 3.0))),
    # medium
    "distance_profile": (lc.distance_profile, lambda u, i: (
        lambda sc: (sc, u(sc.t1, sc.b)))(_scenario(u, i))),
    "medium_velocity": (lc.medium_velocity, lambda u, i: _profile_span(u, i, 1)),
    "equilinear_check": (lc.equilinear_check, lambda u, i: _profile_span(u, i, 2)),
    "roundtrip": (lc.roundtrip, lambda u, i: (_scenario(u, 0), u(0.0, 3.0), u(0.5, 5.0))),
    "parallel_photon_offset": (lc.parallel_photon_offset, lambda u, i: (
        u(0.0, 3.0), u(0.0, 3.0), u(0.5, 3.0), u(0.1, 2.0))),
    "count_trace": (lc.count_trace, lambda u, i: (_clock(u), u(0.0, 2.0), u(0.5, 5.0), 1 + i % 6)),
}


def _edged(base: tuple, edges: tuple) -> list[tuple]:
    """base with each float argument in turn set to each of edges."""
    return [base[:j] + (edge,) + base[j + 1:]
            for j, arg in enumerate(base) if type(arg) is float for edge in edges]


def calls(name: str) -> list[tuple]:
    """The argument tuples the ledger gives kernel ``name``: PER_KERNEL seeded
    draws, then the first draw with each float argument set to each edge."""
    rng = random.Random(f"ledger:{name}")
    draw = KERNELS[name][1]
    drawn = [draw(rng.uniform, i) for i in range(PER_KERNEL)]
    return drawn + _edged(drawn[0], EDGES)


def nonfinite_calls(name: str) -> list[tuple]:
    """The first draw of ``calls(name)`` with each float argument set to each
    of NONFINITE; empty where the draw has no float argument."""
    return _edged(KERNELS[name][1](random.Random(f"ledger:{name}").uniform, 0), NONFINITE)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def kernel_entries() -> dict[str, str]:
    entries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (fn, _) in KERNELS.items():
            entries[name] = _digest(outcome(fn, args) for args in calls(name))
            nonfinite = nonfinite_calls(name)
            if nonfinite:
                entries[f"{name} nonfinite"] = _digest(outcome(fn, args) for args in nonfinite)
    return entries


# -- the CLI: one entry per row of test_cli_rows.GOOD -----------------------------


def good_calls() -> dict[str, list[str]]:
    """Each argv of ``test_cli_rows.GOOD``, read from its source so that no
    test harness is imported, keyed ``cli <command>[ <mode>]``."""
    tree = ast.parse((HERE / "test_cli_rows.py").read_text(encoding="utf-8"))
    good = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "GOOD")
    argvs = {}
    for (command, mode), flags in good.items():
        words = [command] if mode is None else [command, mode]
        dest = cli._COMMANDS[command][1]  # the mode's flag, where conftest.row_argv gives one
        head = [command, dest, mode] if mode and dest.startswith("--") else words
        argvs[" ".join(["cli", *words])] = [*head, *flags.split()]
    return argvs


def cli_entries() -> dict[str, str]:
    entries = {}
    for key, argv in good_calls().items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        entries[key] = _digest([str(code), out.getvalue()])
    return entries


# -- numpy: the bridge profiles on a seeded grid ----------------------------------


def numpy_entries() -> dict[str, str]:
    import numpy as np

    from lightclock import transition

    rng = random.Random("ledger:numpy")
    k = rng.uniform(1e-3, 1.0)
    x = np.array([rng.uniform(-3.0, 3.0) * k for _ in range(NUMPY_POINTS)] + [0.0, k, 2.0 * k])
    # 3B + 7 points in blocks of B, the 7 edges at both ends of each block
    block = transition._BLOCK
    edges = [0.0, -0.0, 5e-324, k, 2.0 * k, math.nextafter(2.0 * k, math.inf), math.nan]
    y = np.array([rng.uniform(-3.0, 3.0) * k for _ in range(3 * block + len(edges))])
    for start in range(0, y.size, block):
        end = min(start + block, y.size)
        y[start:start + len(edges)] = edges
        y[end - len(edges):end] = edges[::-1]
    return {f"{fn.__name__} {name}": _digest(map(float.hex, fn(grid, k).tolist()))
            for name, grid in (("numpy", x), ("blocks numpy", y))
            for fn in (lc.transition_profile, lc.transition_profile_prime)}


def entries(with_numpy: bool = True) -> dict[str, str]:
    return {**kernel_entries(), **cli_entries(), **(numpy_entries() if with_numpy else {})}


def made_on() -> dict[str, str]:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version()}


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def moved(now: dict[str, str], ledger: dict) -> list[str]:
    """The names whose hash differs from the ledger's, or that only one side has."""
    kept = ledger["entries"]
    return sorted(name for name in now.keys() | kept.keys() if now.get(name) != kept.get(name))


def _save(ledger: dict) -> None:
    FIXTURE.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    with_numpy = importlib.util.find_spec("numpy") is not None
    if argv == ["--write"]:
        _save({"made_on": made_on(), "entries": entries(with_numpy=True)})
        return 0
    if argv[:1] == ["--update"] and argv[1:]:
        ledger, now = load(), entries(with_numpy)
        unknown = [name for name in argv[1:] if name not in now]
        if unknown:
            print(f"no such entry: {', '.join(unknown)}", file=sys.stderr)
            return 2
        ledger["entries"].update((name, now[name]) for name in argv[1:])
        _save(ledger)
        return 0
    if argv != ["--check"]:
        print(__doc__, file=sys.stderr)
        return 2
    ledger, now = load(), entries(with_numpy)
    if not with_numpy:
        ledger["entries"] = {k: v for k, v in ledger["entries"].items() if not k.endswith(" numpy")}
        print("numpy is not installed: the numpy entries are skipped")
    names = moved(now, ledger)
    for name in names:
        print(f"moved: {name}")
    made = ledger["made_on"]
    print(f"{len(now) - len(names)} of {len(now)} entries hold"
          f" (ledger made on {made['platform']}, Python {made['python']})")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

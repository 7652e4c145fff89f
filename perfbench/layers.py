"""The traced run: per-layer metrics and the workload's spans.

Every traced run emits the same per-layer set, whatever the workload:

* a fixed probe of each layer (start-up, CLI stages, every kernel's cost per
  call, the medium layer's profile-evaluation counts), measured with tracing
  off so the numbers are not inflated by it;
* ``<layer>.self_share`` from spans recorded while the workload itself runs,
  so the shares are the workload's own (zero for a layer it never reaches);
* ``trace.overhead_ratio``: traced over untraced time of the same in-process
  replay of the workload's operations, minus one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time
from pathlib import Path

import procs
import tracer
from env import use_checkout_package, work_dir
from workloads import PERFBENCH, Result, cli_cases, cli_loop, lib_calls

IMPORTS = {  # per-layer metric -> module named by ``python -X importtime``
    "startup.import_cli_us": "lightclock.cli",
    "startup.import_medium_us": "lightclock.medium",
    "startup.import_transition_us": "lightclock.transition",
    "startup.import_scipy_integrate_us": "scipy.integrate",
    "startup.import_numpy_us": "numpy",
}
LAYERS = ("startup",) + tracer.MODULES
PROBE_S = 0.01  # target time of one timed repetition in the kernel probe


def _fastest(fn, repeats: int = 5) -> float:
    """Fewest seconds ``fn()`` took in ``repeats`` runs: the host's slow CPU
    mode (see README.md) inflates any other statistic."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# -- fixed probes -----------------------------------------------------------------


def startup_probe(m: dict) -> None:
    m["startup.interpreter_s"] = statistics.median(
        procs.python_snippet("pass").wall_s for _ in range(5))
    found: dict[str, list[float]] = {k: [] for k in IMPORTS}
    for _ in range(3):
        res = procs.run(["-X", "importtime", "-c", "import lightclock.cli"])
        cumulative = {}
        for line in res.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for key, module in IMPORTS.items():
            found[key].append(cumulative.get(module, 0))
    for key, values in found.items():
        m[key] = statistics.median(values)


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        yield out


def cli_probe(m: dict, seed: int) -> None:
    """CLI stages replayed in-process on the cli-oneshot argvs."""
    from lightclock import cli

    cases = cli_cases(seed)
    m["cli.build_parser_us"] = _fastest(cli.build_parser) * 1e6
    parser = cli.build_parser()
    parse, params, main = [], [], []
    with _quiet():
        for case in cases:
            parse.append(_fastest(lambda: parser.parse_args(case.argv)))
            args = parser.parse_args(case.argv)
            if case.name != "error-config":  # its config is rejected while loading
                params.append(_fastest(lambda: cli.Params(args)))
            main.append(_fastest(lambda: cli.main(case.argv)))
    m["cli.parse_args_us"] = statistics.mean(parse) * 1e6
    m["cli.params_us"] = statistics.mean(params) * 1e6
    m["cli.main_us"] = statistics.mean(main) * 1e6

    rng = random.Random(seed)
    result = {f"k{i}": rng.uniform(-1e3, 1e3) for i in range(8)}
    rows = [(i + 1, *(rng.uniform(0.5, 1e6) for _ in range(6))) for i in range(10_000)]
    header = tuple(f"c{i}" for i in range(7))
    with _quiet():
        m["cli.emit_json_us"] = _fastest(lambda: cli.emit_json(result, None)) * 1e6
        m["cli.emit_plot_data_ns_per_row"] = _fastest(
            lambda: cli.emit_plot_data(header, rows, None), 3) * 1e9 / len(rows)
    with _quiet() as out:
        cli.emit_plot_data(header, rows, None)
    m["cli.bytes_out"] = len(out.getvalue().encode())


def kernel_probe(m: dict, seed: int) -> None:
    """Seconds per call of every kernel on its seeded inputs, by function."""
    import kernels

    groups: dict[tuple[str, str], list] = {}
    for call in kernels.kernel_batch(seed):
        groups.setdefault((call.layer, call.name), []).append(call)
    for (layer, name), calls in groups.items():
        def one_rep(calls=calls):
            for c in calls:
                c.fn(*c.args)
        per_rep = _fastest(one_rep, 1)
        reps = max(1, int(PROBE_S / max(per_rep, 1e-9)))
        sec = _fastest(lambda: [one_rep() for _ in range(reps)], 3) / (reps * len(calls))
        unit = "us" if name in ("horizon_roots", "hubble_deceleration") else "ns"
        m[f"{layer}.{name}_{unit}"] = sec * (1e6 if unit == "us" else 1e9)
    array = kernels.array_call(seed)
    m["transition.transition_profile_array_ns_per_point"] = (
        _fastest(lambda: array.fn(*array.args), 3) * 1e9 / len(array.args[0]))


def medium_probe(m: dict, seed: int) -> None:
    """Microseconds per medium call and the profile evaluations each makes,
    counted by the benchmark's own profile callable."""
    import kernels
    from lightclock import medium

    counter = [0]

    def counting(f):
        def profile(t):
            counter[0] += 1
            return f(t)
        return profile

    groups: dict[str, list] = {}
    for call in kernels.medium_batch(seed, wrap=counting):
        groups.setdefault(call.name, []).append(call)
    for name, calls in groups.items():
        sec = _fastest(lambda: [c.fn(*c.args) for c in calls], 3) / len(calls)
        if name == "count_trace":
            m["medium.count_trace_ns_per_row"] = sec * 1e9 / kernels.COUNT_PULSES
        else:
            m[f"medium.{name}_us"] = sec * 1e6

    def evals(fn, *args) -> int:
        counter[0] = 0
        fn(*args)
        return counter[0]

    per_integral, per_witness, per_roundtrip = [], [], []
    for call in groups["medium_velocity"]:
        sc, ts, te = call.args
        integral = evals(medium.equilinear_check, sc, ts, te, te) / 2  # two over [ts, te]
        per_integral.append(integral)
        per_witness.append(evals(medium.medium_velocity, sc, ts, te) - integral)
    for call in groups["roundtrip"]:
        per_roundtrip.append(evals(call.fn, *call.args))
    m["medium.profile_evals_per_integral"] = statistics.median(per_integral)
    m["medium.profile_evals_per_witness"] = statistics.median(per_witness)
    m["medium.profile_evals_per_roundtrip"] = statistics.median(per_roundtrip)


# -- the workload's own spans -------------------------------------------------------

BOOTSTRAP = """\
import json, os, sys
sys.path.insert(0, {perfbench!r})
import tracer
T = tracer.Tracer()
T.op, path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
with T.span("startup.import_cli"):
    import lightclock.cli
T.install()
code = lightclock.cli.main(argv)
sys.stdout.flush()
sys.stderr.flush()
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # stdout at EOF: the call is over
T.write(path)
with open(path + ".self", "w") as fh:  # the parent reads this, not the spans
    json.dump(tracer.self_times(T.spans), fh)
sys.exit(code)
"""


def trace_cli(seed: int, seconds: float, res: Result, out: Path):
    """Run the workload's processes under the bootstrap tracer.  A process's
    time not covered by its own spans (interpreter start and exit) is start-up."""
    cases = cli_cases(seed)
    bootstrap = BOOTSTRAP.format(perfbench=str(PERFBENCH))
    parent = tracer.Tracer()

    def launch(op, case):
        return procs.run(["-c", bootstrap, str(op), str(out / f"op{op}.json"), *case.argv])

    layers: dict[str, int] = {}
    total = spans = 0
    for op, case, fin in cli_loop(cases, seconds, launch):
        res.record(case.name, case.check, fin.code, fin.stdout, fin.stderr)
        parent.op = op
        parent.add("startup.process", fin.start_ns, fin.end_ns)
        own, roots, count = json.loads((out / f"op{op}.json.self").read_text())
        for layer, ns in own.items():
            layers[layer] = layers.get(layer, 0) + ns
        wall = fin.end_ns - fin.start_ns
        layers["startup"] = layers.get("startup", 0) + wall - sum(roots.values())
        total += wall
        spans += count + 1
    parent.write(out / "processes.json")
    return layers, total, spans


def trace_lib(workload: str, seed: int, res: Result, out: Path, passes: int):
    """Checked passes over the batch with every lightclock function wrapped;
    each library call is one op."""
    t = tracer.Tracer()
    t.install()
    try:
        calls, array = lib_calls(workload, seed)  # built after install: wrapped
        if array is not None:
            calls = calls + [array]
        for _ in range(passes):
            for call in calls:
                out_value = call.fn(*call.args)
                res.record(f"{call.layer}.{call.name}", call.check, out_value)
                t.op += 1
    finally:
        t.uninstall()
    t.write(out / "spans.json")
    layers, roots, count = tracer.self_times(t.spans)
    return layers, sum(roots.values()), count


def overhead_ratio(workload: str, seed: int, rounds: int = 5) -> float:
    """Traced over untraced seconds of the same in-process replay, minus one.

    The replay is the workload's operations: its CLI argvs through
    ``cli.main`` or one pass over its call batch.
    Traced and untraced replays alternate; each side's fastest is used."""
    t = tracer.Tracer()
    if workload.startswith("cli-"):
        from lightclock import cli

        cases = cli_cases(seed)

        def replay(_):
            with _quiet():
                for c in cases:
                    cli.main(c.argv)
        plain_calls = traced_calls = None
    else:
        def batch():
            calls, array = lib_calls(workload, seed)
            return calls + ([array] if array is not None else [])

        def replay(calls):
            for c in calls:
                c.fn(*c.args)
        plain_calls = batch()
        t.install()
        traced_calls = batch()  # resolved while installed: the wrappers
        t.uninstall()

    plain, traced = [], []
    replay(plain_calls)  # warm caches before either side is timed
    for _ in range(rounds):
        plain.append(_fastest(lambda: replay(plain_calls), 1))
        t.install()
        try:
            traced.append(_fastest(lambda: replay(traced_calls), 1))
        finally:
            t.uninstall()
        t.spans.clear()
    return min(traced) / min(plain) - 1.0


def run(workload: str, seed: int, seconds: float) -> Result:
    use_checkout_package()
    res = Result()
    m = res.metrics
    startup_probe(m)
    cli_probe(m, seed)
    kernel_probe(m, seed)
    medium_probe(m, seed)

    out = work_dir("trace", f"{workload}-seed{seed}")
    for stale in out.glob("*.json*"):
        os.remove(stale)
    if workload.startswith("cli-"):
        layers, total, spans = trace_cli(seed, seconds, res, out)
    else:
        layers, total, spans = trace_lib(workload, seed, res, out, passes=5)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layers.get(layer, 0) / total
    m["trace.overhead_ratio"] = overhead_ratio(workload, seed)
    res.detail.update(spans_dir=str(out), spans=spans, traced_ns=total,
                      other_layers={k: v for k, v in layers.items() if k not in LAYERS})
    return res

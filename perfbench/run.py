"""lightclock benchmark: one command for every workload and metric.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics and writes spans under
``.bench_build/perfbench/trace/``.  Every run also writes a result file with
the host metadata (``--result PATH``, default under
``.bench_build/perfbench/results/``).

Run every workload several times into one result file, then compare two::

    python3 perfbench/run.py suite --runs 10 --out new.json
    python3 perfbench/run.py compare old.json new.json

Metric names, units and bounds come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import env

SPEC_PATH = env.ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def emitted(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit that a run must emit."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(res, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(res.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": u} for n, u in units.items()},
    }


def run_one(args) -> int:
    env.require_checkout()
    spec = load_spec()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.trace:
        import layers

        res = layers.run(args.workload, args.seed, args.seconds)
    else:
        res = workloads.run(args.workload, args.seed, args.seconds)
    units = emitted(spec, bool(args.trace))
    line = result_line(res, units)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:48s} {res.metrics[name]:.6g} {unit}")
    for key, value in sorted(res.detail.items()):
        print(f"  {key:48s} {value}")
    print(f"  {'fail_ratio':48s} {res.failed / max(1, res.attempted):.6g} "
          f"({res.failed} of {res.attempted})")
    for failure in res.failures:
        print(f"  FAIL {failure}")

    path = Path(args.result) if args.result else env.work_dir("results") / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "meta": {**env.metadata(), "seeds": [args.seed], "seconds": args.seconds,
                 "trace": args.trace,
                 "samples": {args.workload: {"runs": 1, "operations": [res.attempted]}}},
        "runs": {args.workload: [{**line, "seed": args.seed, "detail": res.detail,
                                  "failures": res.failures}]},
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], load_spec())
    if argv[:1] == ["suite"]:
        import compare

        return compare.suite(argv[1:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="result file (default under .bench_build)")
    args = parser.parse_args(argv)
    try:
        return run_one(args)
    except (env.CheckoutError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

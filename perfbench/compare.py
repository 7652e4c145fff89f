"""Suite runs into one result file, and the comparison of two such files.

A result file is ``{"meta": {...}, "runs": {workload: [run, ...]}}`` where
each run is the JSON result line of one ``run.py`` invocation plus its seed
and detail.  ``meta`` records the git sha, Python/numpy/scipy versions,
``nproc``, the seeds and the per-workload sample counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env
import stats

RUN_PY = Path(__file__).resolve().parent / "run.py"


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def suite(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="run.py suite")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env.require_checkout()

    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    tmp = env.work_dir("results") / "suite-run.json"
    for seed in seeds:  # seed-major, so slow drift of the host spreads evenly
        for w in workloads:
            cmd = [sys.executable, str(RUN_PY), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(tmp)]
            res = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True)
            if res.returncode != 0:
                print(res.stdout[-2000:], res.stderr[-2000:], file=sys.stderr)
                return res.returncode
            record = json.loads(tmp.read_text())
            runs[w].extend(record["runs"][w])
            print(f"{w} seed {seed}: {res.stdout.strip().splitlines()[-1]}", flush=True)
    meta = {**env.metadata(), "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
            "samples": {w: {"runs": len(r), "operations": [x["attempted"] for x in r]}
                        for w, r in runs.items()}}
    Path(args.out).write_text(json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{'workload':12s} {'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w, r in runs.items():
        for m in metrics:
            values = _values(r, m["name"])
            print(f"{w:12s} {m['name']:20s} {statistics.median(values):12.6g} "
                  f"{spread(values):8.4f} {m.get('bound', float('nan')):6.3g}")
    return 0


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """improved, no worse, worse or unresolved, by the rules in README.md."""
    sign = 1.0 if better == "lower" else -1.0
    o_q1, o_med, o_q3 = stats.quartiles(old)
    n_med = statistics.median(new)
    worse_by = sign * (n_med - o_med) / abs(o_med)
    every_run_better = max(new) < min(old) if better == "lower" else min(new) > max(old)
    if every_run_better:
        return "improved"
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    pairs = list(zip(old, new))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if wins >= 0.9 * len(pairs) and sign * (o_med - n_med) > (o_q3 - o_q1):
        return "improved"
    return "worse" if worse_by > bound else "no worse"


def main(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    for side, data in (("old", old), ("new", new)):
        m = data["meta"]
        print(f"{side}: {m['git_sha']} python {m['python']} numpy {m['numpy']} "
              f"scipy {m['scipy']} nproc {m['nproc']} seeds {m['seeds']}")
    print(f"{'workload':12s} {'metric':12s} {'old q1/med/q3':>32s} {'new q1/med/q3':>32s} "
          f"{'new/old':>8s}  verdict")
    worst = 0
    for w in (x["name"] for x in spec["workloads"]):
        if w not in old["runs"] or w not in new["runs"]:
            continue
        for m in spec["end_to_end"]:
            a, b = _values(old["runs"][w], m["name"]), _values(new["runs"][w], m["name"])
            if not a or not b:
                continue
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            v = verdict(a, b, m["better"], m["bound"])
            worst = max(worst, v == "worse")
            print(f"{w:12s} {m['name']:12s} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>32s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>32s} "
                  f"{qb[1] / qa[1]:8.4f}  {v}")
    return 1 if worst else 0

"""The three workloads, each a closed loop with one client.

The next CLI process or library call starts only when the previous one has
returned and its output has been checked.  Throughput divides the work done
by the summed operation times, so the benchmark's own checking between
operations is not counted against the program.

Times are chosen to hold still on a noisy shared host (see README.md): a
CLI process is timed by its own user + system CPU time, which leaves out
the hypervisor's steal time; set-up by the CPU time of the import in a fresh
interpreter.  Library calls last microseconds, too short for a CPU clock,
and are timed by wall clock as the fastest of many repetitions (see
``run_lib``).  Every time is then scaled by the host's speed, measured with
a reference from ``host`` in the gaps between the operations it scales,
never beside them, so the program cannot slow its own divisor.  Raw times
are kept in the detail.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from array import array as array_
from dataclasses import dataclass, field
from pathlib import Path

import host
import procs
import stats
from cli_cases import Case, oneshot_cases
from env import use_checkout_package, work_dir
from oracle import Wrong

WORKLOADS = ("cli-oneshot", "lib-kernels", "lib-medium")
SETUP_REPEATS = 10
PERFBENCH = Path(__file__).resolve().parent
CHECK_ERRORS = (Wrong, KeyError, IndexError, TypeError, ValueError, AttributeError)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, check, *args) -> bool:
        """Count one checked operation; a wrong output is a failure."""
        self.attempted += 1
        try:
            check(*args)
        except CHECK_ERRORS as exc:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {exc}")
            return False
        return True


def _timing_metrics(res: Result, latencies: list[float], work: float, busy_s: float,
                    unit: str, factor: float) -> None:
    """Times scaled by ``factor`` into host-normalised seconds (see host.py)."""
    tail, q = stats.tail(latencies)
    res.metrics["call_p50_s"] = statistics.median(latencies) * factor
    res.metrics["call_tail_s"] = tail * factor
    res.metrics["ops_per_s"] = work / (busy_s * factor)
    res.detail.update(calls=len(latencies), tail_percentile=q, ops_unit=unit, ops=work)


# -- set-up -------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> tuple[float, dict]:
    """Set-up in fresh interpreters: one warm-up (fills the bytecode cache),
    then ``SETUP_REPEATS`` timed, each paired with the reference process run
    just before it.  CLI workloads pay ``import lightclock.cli``; library
    workloads pay the import plus the first call of each kind.

    Returns the median of the scaled samples."""
    if workload.startswith("cli-"):
        body = ("t0 = time.process_time()\nimport lightclock.cli\n"
                "print(time.process_time() - t0)")
    else:
        body = ("import kernels\nt0 = time.process_time()\n"
                f"kernels.first_call({workload!r}, {seed})\n"
                "print(time.process_time() - t0)")
    code = f"import sys, time\nsys.path.insert(0, {str(PERFBENCH)!r})\n{body}\n"
    procs.python_snippet(code)
    host.process_factor()  # warm the reference's files too
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        factor = host.process_factor()
        raw.append(float(procs.python_snippet(code).stdout))
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), {
        "setup_samples": len(raw), "setup_p50_unscaled_s": statistics.median(raw)}


# -- CLI workload --------------------------------------------------------------


def cli_cases(seed: int) -> list[Case]:
    """The cli-oneshot argv cycle, with any input files it names written."""
    cases = oneshot_cases(seed, work_dir("inputs"))
    for case in cases:
        for path, text in case.files.items():
            Path(path).write_text(text, encoding="utf-8")
    return cases


def cli_loop(cases: list[Case], seconds: float, launch, clock=time.perf_counter):
    """Yield ``(op, case, launch(op, case))`` over whole cycles of ``cases``.

    The first cycle always runs, and another starts only when the previous
    cycle's duration still fits in ``seconds``, so every run checks every
    case (the documented errors too) and weighs them equally, however fast
    the program is.
    """
    start = clock()
    op = 0
    while True:
        cycle_start = clock()
        for case in cases:
            yield op, case, launch(op, case)
            op += 1
        now = clock()
        if now - start + (now - cycle_start) > seconds:
            return


def run_cli(seed: int, seconds: float) -> Result:
    """Each process's CPU time, scaled by the reference process run in the
    gap just before it (see host.py)."""
    res = Result()

    def launch(op, case):
        factor = host.process_factor()
        return factor, procs.run(["-m", "lightclock", *case.argv])

    latencies, raw, walls, rss = [], [], [], []
    for _, case, (factor, fin) in cli_loop(cli_cases(seed), seconds, launch):
        latencies.append(fin.cpu_s * factor)
        raw.append(fin.cpu_s)
        walls.append(fin.wall_s)
        rss.append(fin.maxrss_kb)
        res.record(case.name, case.check, fin.code, fin.stdout, fin.stderr)
    _timing_metrics(res, latencies, len(latencies), sum(latencies), "calls", 1.0)
    res.metrics["peak_rss_mb"] = max(rss) / 1024.0
    res.detail.update(wall_p50_s=statistics.median(walls),
                      cpu_p50_unscaled_s=statistics.median(raw))
    return res


# -- library workloads -------------------------------------------------------------


def lib_calls(workload: str, seed: int):
    """(scalar calls, array call or None) for one pass of the workload."""
    import kernels

    if workload == "lib-kernels":
        return kernels.kernel_batch(seed), kernels.array_call(seed)
    return kernels.medium_batch(seed), None


def run_lib(workload: str, seed: int, seconds: float) -> Result:
    """Checked passes over the batch until the time is used.

    Every pass repeats every input, and each call's latency is its fastest
    over the run's passes; p50, tail and throughput are then taken over those
    per-call minima, scaled by the fastest reference sample (one per pass).
    The host's CPU alternates for seconds at a time between a fast mode and
    one about twice as slow, so any per-call median moves with the share of
    each mode in the run; the minimum does not.  The figures are therefore
    best cases: a garbage-collector pause or another occasional slow call
    does not count.
    """
    import numpy as np

    res = Result()
    speed = host.Speed()
    calls, array = lib_calls(workload, seed)
    clock = time.perf_counter
    rows: list[array_] = []
    array_s: list[float] = []
    gc.collect()
    start = clock()
    while not rows or clock() - start < seconds:
        row = array_("d", bytes(8 * len(calls)))
        for i, call in enumerate(calls):
            t0 = clock()
            out = call.fn(*call.args)
            row[i] = clock() - t0
            res.record(f"{call.layer}.{call.name}", call.check, out)
        rows.append(row)
        speed.sample()
        if array is not None:
            t0 = clock()
            out = array.fn(*array.args)
            array_s.append(clock() - t0)
            res.record("transition.transition_profile_array", array.check, out)
    typical = np.array(rows).min(axis=0)
    if workload == "lib-kernels":
        work, unit = len(calls), "scalar calls"
        res.detail["array_points_per_s"] = len(array.args[0]) / statistics.median(array_s)
    else:
        work, unit = sum(c.integrals for c in calls), "integrals"
    _timing_metrics(res, typical.tolist(), work, float(typical.sum()), unit,
                    speed.per_fastest())
    res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.detail.update(passes=len(rows), pass_ref_min_s=min(speed.samples))
    return res


def run(workload: str, seed: int, seconds: float) -> Result:
    setup_s, setup_detail = setup_seconds(workload, seed)
    if workload.startswith("cli-"):
        res = run_cli(seed, seconds)
    else:
        use_checkout_package()
        res = run_lib(workload, seed, seconds)
    res.metrics["setup_s"] = setup_s
    res.detail.update(setup_detail)
    return res

"""Fast checks of the benchmark itself (not part of the project's test suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import cli_cases  # noqa: E402
import env  # noqa: E402
import run as run_py  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_tiny_and_emits_every_end_to_end_metric(workload):
    res = workloads.run(workload, seed=5, seconds=0)
    assert res.attempted >= 1
    assert res.failed == 0, res.failures
    line = run_py.result_line(res, run_py.emitted(SPEC, trace=False))
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "lib-medium",
         "--seed", "5", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["correct"] is True


def _first(cases, name):
    return next(c for c in cases if c.name == name)


def test_corrupted_cli_outputs_are_failures():
    cases = cli_cases.oneshot_cases(7, env.work_dir("tests"))
    res = workloads.Result()
    golden = _first(cases, "golden-radar")
    want = (env.FIXTURES / "radar_reference.golden.json").read_bytes()
    assert res.record("ok", golden.check, 0, want, b"")
    assert not res.record("flipped byte", golden.check, 0, want.replace(b"0.6", b"0.7", 1), b"")
    compose = _first(cases, "compose")
    assert not res.record("wrong v3", compose.check, 0, b'{"v3": 0.123}\n', b"")
    assert not res.record("NaN", compose.check, 0, b'{"v3": NaN}\n', b"")
    error = _first(cases, "error-config")
    assert not res.record("wrong exit", error.check, 1, b"", b"config error: x")
    assert (res.attempted, res.failed) == (5, 4)
    assert run_py.result_line(res, {})["correct"] is False


@pytest.mark.parametrize("call_s", [0.2, 1.07, 3.0])
def test_default_length_run_checks_every_case(call_s):
    """Whole cycles: however long a call takes, every case (the documented
    errors too) runs, and each the same number of times."""
    cases = cli_cases.oneshot_cases(7, env.work_dir("tests"))
    now = [0.0]

    def launch(op, case):
        now[0] += call_s
        return case.name

    ran = [name for _, _, name in workloads.cli_loop(
        cases, SPEC["run_seconds"], launch, clock=lambda: now[0])]
    names = [c.name for c in cases]
    assert {"error-domain", "error-config", "golden-radar"} <= set(names)
    assert len(ran) % len(cases) == 0
    assert ran == names * (len(ran) // len(cases))
    assert now[0] <= SPEC["run_seconds"] or len(ran) == len(cases)


def test_corrupted_library_result_is_a_failure():
    env.use_checkout_package()
    import kernels

    res = workloads.Result()
    call = next(c for c in kernels.kernel_batch(3, n=1) if c.name == "compose_einstein")
    good = call.fn(*call.args)
    assert res.record("ok", call.check, good)
    assert not res.record("off by 1e-6", call.check, good + 1e-6)
    assert not res.record("nan", call.check, float("nan"))
    assert (res.attempted, res.failed) == (3, 2)


def test_bare_directory_fails_without_a_result():
    """A directory holding only BENCHMARK.json and perfbench/ has no program."""
    bare = env.work_dir("tests", "bare")
    shutil.rmtree(bare)
    shutil.copytree(PERFBENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

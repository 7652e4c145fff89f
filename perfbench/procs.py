"""Run one program process and time it: wall time from fork until stdout is
drained, and the CPU time the process used (from ``wait4``)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from env import ROOT, child_env


@dataclass
class Finished:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    start_ns: int
    end_ns: int
    cpu_s: float  # user + system CPU time of the process
    maxrss_kb: int


def run(args: list[str], env: dict[str, str] | None = None, timeout: float = 120.0) -> Finished:
    """Run ``python args...`` from the checkout root.

    Wall time runs from just before the fork until stdout is at EOF; the
    child is then reaped with ``wait4`` so its own CPU time and peak RSS are
    known.
    """
    env = child_env() if env is None else env
    start = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err_chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        end = time.perf_counter_ns()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        code=proc.returncode, stdout=out, stderr=b"".join(err_chunks),
        wall_s=(end - start) / 1e9, start_ns=start, end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss,
    )


def python_snippet(code: str) -> Finished:
    """Run ``python -c code`` and require exit 0."""
    res = run(["-c", code])
    if res.code != 0:
        raise RuntimeError(f"snippet failed ({res.code}): {res.stderr.decode()[-400:]}")
    return res

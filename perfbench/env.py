"""Where the benchmark finds the program, and what it records about the host.

The benchmark runs from the root of a source checkout: the package is
imported from ``src/`` of that checkout (never from an installed copy), the
golden fixtures come from ``tests/fixtures/``, and every file the benchmark
writes goes under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_build" / "perfbench"

REQUIRED = (
    SRC / "lightclock" / "__init__.py",
    SRC / "lightclock" / "cli.py",
    FIXTURES / "radar_reference.golden.json",
    FIXTURES / "schwarzschild_sweep.golden.csv",
    FIXTURES / "transition_profile.golden.csv",
)


class CheckoutError(Exception):
    """The directory the benchmark runs in does not hold the program."""


def require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        raise CheckoutError("not a lightclock checkout; missing " + ", ".join(missing))


def child_env() -> dict[str, str]:
    """Environment for a program process: the checkout's ``src`` first on the
    path, and no variable that would change the program's defaults.

    numpy's BLAS thread pool is held to one thread: the program never calls
    BLAS, and the pool's start-up spinning on the other core would otherwise
    be counted in the process's CPU time, which the benchmark reports."""
    env = dict(os.environ)
    env.pop("LIGHTCLOCK_TOL", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def use_checkout_package() -> None:
    """Make ``import lightclock`` in this process load the checkout's copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("LIGHTCLOCK_TOL", None)
    import lightclock

    if Path(lightclock.__file__).resolve().parent != SRC / "lightclock":
        raise CheckoutError(f"lightclock imported from {lightclock.__file__}, not {SRC}")


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def metadata() -> dict[str, object]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }

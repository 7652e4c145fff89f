"""The CLI's CSV series share one grid: n points from start to stop, evenly
spaced in the value or (``--sweep-R start:stop:count:log``) in its
logarithm, with the first and last points exactly start and stop."""

import math
import random

import numpy as np
import pytest
from conftest import run_main

from lightclock import source_from_mass

TRANSITION_K = 0.5
PHOTON_K = 1.0
SWEEP_R0 = 1e-3


def first_column(*argv):
    code, out, err = run_main(*argv)
    assert (code, err) == (0, ""), argv
    return [float(line.split(",")[0]) for line in out.splitlines()[1:]]


def draw_range(rng, lo, hi):
    """start < stop in [lo, hi], half of the draws on two decimals."""
    while True:
        start, stop = sorted(rng.uniform(lo, hi) for _ in range(2))
        if rng.random() < 0.5:
            start, stop = round(start, 2), round(stop, 2)
        if stop - start >= 0.01 and start >= lo and stop <= hi:
            return start, stop


def check_ends(xs, start, stop, n):
    assert (xs[0], xs[-1], len(xs)) == (start, stop, n)
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_every_series_ends_at_its_stop():
    rng = random.Random(20240607)
    for _ in range(500):
        n = rng.randint(2, 40)

        # transition H: the grid plus the points 0 and 2k inside the range
        start, stop = draw_range(rng, -3.0, 3.0)
        xs = first_column("transition", "H", f"--x-min={start!r}", f"--x-max={stop!r}",
                          "--n", str(n), "--k", str(TRANSITION_K))
        grid = np.linspace(start, stop, n).tolist()
        extra = {x for x in (0.0, 2.0 * TRANSITION_K) if start <= x <= stop} - set(grid)
        check_ends(xs, start, stop, n + len(extra))
        assert xs == sorted(grid + list(extra))

        # transition photons: a fan inside the zone 0 < lambda <= 2k, which
        # an overshooting last point would leave
        start, stop = draw_range(rng, 0.01, 2.0 * PHOTON_K)
        xs = first_column("transition", "photons", "--lambda-min", repr(start),
                          "--lambda-max", repr(stop), "--n", str(n), "--k", str(PHOTON_K),
                          "--c", "1")
        check_ends(xs, start, stop, n)
        assert xs == np.linspace(start, stop, n).tolist()

        # --sweep-R, evenly spaced in R and in ln R
        start, stop = draw_range(rng, 0.01, 100.0)
        sweep = ("metric", "schwarzschild", "--r0", repr(SWEEP_R0), "--c", "1", "--sweep-R")
        xs = first_column(*sweep, f"{start!r}:{stop!r}:{n}")
        check_ends(xs, start, stop, n)
        assert xs == np.linspace(start, stop, n).tolist()
        xs = first_column(*sweep, f"{start!r}:{stop!r}:{n}:log")
        check_ends(xs, start, stop, n)
        logs = np.linspace(math.log(start), math.log(stop), n).tolist()
        assert xs[1:-1] == [math.exp(x) for x in logs[1:-1]]


def test_transition_H_gets_its_stop_row():
    code, out, _ = run_main("transition", "H", "--x-min=-0.25", "--x-max", "1.47", "--n", "12",
                            "--k", "0.5")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 1 + 14
    assert lines[-1] == "1.47,0.0,0.0"


def test_earth_log_sweep_matches_the_r0_relative_grid():
    # the grid of the former scripts/schwarzschild_sweep.py: 400 points from
    # 1.000001·r0 to 1e6·r0, evenly spaced in ln R, for the Earth's mass
    n = 400
    start, stop = 0.008869814695241158, 8869.805825435335
    code, out, err = run_main("metric", "schwarzschild", "--mass", "5.972e24",
                              "--sweep-R", f"{start!r}:{stop!r}:{n}:log")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "R_m,lambda_dimensionless,null_speed_m_per_s,gamma_dimensionless"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == n
    assert (rows[0][0], rows[-1][0]) == (start, stop)

    r0 = source_from_mass(5.972e24).schwarzschild_r0
    lo, hi = math.log(1.000001), math.log(1e6)
    for i, (R, lam, _, gamma) in enumerate(rows):
        R_ref = r0 * math.exp(lo + i * (hi - lo) / (n - 1))
        assert R == pytest.approx(R_ref, rel=1e-14, abs=0.0)
        assert lam == pytest.approx(1.0 - r0 / R_ref, rel=1e-13, abs=0.0)
        assert 0.0 < lam < 1.0
        assert gamma == math.sqrt(lam)


@pytest.mark.parametrize(
    "sweep", ["0:1:3:log", "-1:1:3:log", "1:2:3:lin", "1:2:3:LOG", "1:2:3:", "1:2:3:log:log",
              "1:2:1:log", "1:inf:3:log"]
)
def test_bad_sweep_is_a_config_error_naming_it(sweep):
    code, out, err = run_main("metric", "schwarzschild", "--r0", "1e-3", "--c", "1",
                              f"--sweep-R={sweep}")
    assert (code, out) == (2, "")
    assert err.startswith("config error:")
    assert "'sweep_R'" in err

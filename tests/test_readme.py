"""Every ``lightclock`` call shown in README's ``sh`` blocks runs and exits 0,
with any ``--out`` written under a temporary directory, and prints the numbers
README states for it; README's table of public names lists each one once."""

import json
import re
import shlex
from pathlib import Path

import pytest
from conftest import run_main

import lightclock

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_calls():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("lightclock ")]


def test_the_sweep_script_calls_are_shown():
    calls = readme_calls()
    assert "lightclock horizon --mass 5.972e24" in calls
    assert ("lightclock metric schwarzschild --mass 5.972e24"
            " --sweep-R 0.008869814695241158:8869.805825435335:400:log") in calls


def test_the_ladder_script_calls_are_shown():
    calls = readme_calls()
    assert "lightclock radar --t1 60 --t2 69.2820323027551 --t3 80 --c 1" in calls
    assert ("lightclock sim counts --omega 0.6931471805599453 --t1 1 --n-pulses 2"
            " --L 1 --natural-units") in calls
    assert "lightclock radar --t1 3 --t2 6 --t3 12 --c 1" in calls


@pytest.mark.parametrize("line", readme_calls())
def test_readme_call_runs(tmp_path, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    code, _, err = run_main(*argv)
    assert (code, err) == (0, "")


# README's "The paper's numbers from the CLI", whitespace folded: each number it
# states is what its call prints
STATED = " ".join(README.read_text(encoding="utf-8").split())


@pytest.mark.parametrize(
    "line,numbers",
    [
        ("lightclock radar --t1 60 --t2 69.2820323027551 --t3 80 --c 1",
         {"t_E": 70.0, "r_E": 10.0, "v_E": 0.14285714285714285}),
        ("lightclock radar --t1 3 --t2 6 --t3 12 --c 1",
         {"t_E": 7.5, "r_E": 4.5, "v_E": 0.6, "omega": 0.6931471805599453}),
    ],
    ids=["count-diagram", "pulse-ladder"],
)
def test_the_stated_numbers_are_printed(line, numbers):
    assert line in readme_calls()
    assert all(f"`{key}` {value!r}" in STATED for key, value in numbers.items())
    code, out, err = run_main(*shlex.split(line)[1:])
    assert (code, err) == (0, "")
    printed = json.loads(out)
    assert {key: printed[key] for key in numbers} == numbers


def test_the_sweep_runs_between_the_stated_multiples_of_the_root():
    assert "log-spaced from 1.000001·r0 to 10⁶·r0" in STATED
    code, out, err = run_main("horizon", "--mass", "5.972e24")
    assert (code, err) == (0, "")
    (r0,) = json.loads(out)["roots"]
    head = "lightclock metric schwarzschild --mass 5.972e24 --sweep-R "
    sweep = next(line for line in readme_calls() if line.startswith(head))
    start, stop, _, _ = sweep[len(head):].split(":")
    assert (float(start), float(stop)) == (1.000001 * r0, 1e6 * r0)


def test_the_name_table_lists_each_public_name_once():
    table = re.search(r"^## What each public name is for\n(.*?)^## ", README.read_text(
        encoding="utf-8"), re.S | re.M).group(1)
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", table, re.M)
    assert sorted(name for name, _ in rows) == sorted(lightclock.__all__)
    # every name but dual_arith is held by a criterion, a CLI row or a formula
    assert [name for name, cells in rows if "none" in cells] == ["dual_arith"]

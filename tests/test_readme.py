"""Every ``lightclock`` call shown in README's ``sh`` blocks runs and exits 0,
with any ``--out`` written under a temporary directory."""

import re
import shlex
from pathlib import Path

import pytest

from lightclock import cli

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


@pytest.mark.parametrize("line", readme_calls())
def test_readme_call_runs(capsys, tmp_path, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    code = cli.main(argv)
    _, err = capsys.readouterr()
    assert (code, err) == (0, "")

"""Smoke tests of the example scripts, run in-process with runpy."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_pulse_ladder_demo(monkeypatch, capsys):
    run_script(monkeypatch, "pulse_ladder_demo.py", "--pulses", "3", "--v-over-c", "0.5")
    out = capsys.readouterr().out
    assert "pulses 1,2:" in out and "pulses 2,3:" in out
    assert f"v_E/c={0.5:.10f}" in out

"""The runtime imports no ``typing``: annotations are strings, and the
generic aliases come from ``collections.abc``.  A kernel module reaches
another only as ``from . import <module>``, so loading it runs no other."""

import ast
import os
from pathlib import Path

from conftest import run_python

import lightclock


def test_no_module_imports_typing():
    # -S: the interpreter's site hooks may import typing themselves; touching
    # one exported name of each submodule runs its lazily loaded body
    code = (
        "import sys, lightclock, lightclock.cli\n"
        "for names in lightclock._EXPORTS.values():\n"
        "    getattr(lightclock, names.split()[0])\n"
        "assert 'lightclock.medium' in sys.modules and lightclock.medium.roundtrip\n"
        "print(sorted(m for m in sys.modules if m == 'typing' or m.startswith('typing.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lightclock.__file__).parent.parent)}
    res = run_python("-S", "-c", code, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_no_kernel_module_imports_names_from_another():
    # ``from .<module> import <name>`` runs <module> whenever its importer loads
    src = Path(lightclock.__file__).parent
    found = {}
    for module in lightclock._EXPORTS:
        tree = ast.parse((src / f"{module}.py").read_text())
        if names := sorted(node.module for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) and node.level and node.module):
            found[module] = names
    assert found == {}

"""The runtime imports no ``typing``: annotations are strings, and the
generic aliases come from ``collections.abc``.  A kernel module reaches
another only as ``from . import <module>``, so loading it runs no other.
Loading a record class compiles its ``__new__`` alone."""

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


def test_records_compile_only_their_new_and_share_every_other_method():
    # every exported name loaded: the 22 records are decorated, and each one
    # that does not define its own __new__ (all but Dual) runs one exec
    code = (
        "import builtins, lightclock\n"
        "sources = []\n"
        "lightclock.exec = lambda source, scope: (sources.append(source), builtins.exec(source, scope))\n"
        "[getattr(lightclock, name) for name in lightclock.__all__]\n"
        "print(repr(sources))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lightclock.__file__).parent.parent)}
    res = run_python("-S", "-c", code, env=env)
    assert res.returncode == 0, res.stderr
    trees = [ast.parse(source) for source in ast.literal_eval(res.stdout)]
    assert len(trees) == 21
    for tree in trees:
        assert [(type(node), node.name) for node in tree.body] == [(ast.FunctionDef, "__new__")]
        assert sum(isinstance(node, (ast.FunctionDef, ast.Lambda)) for node in ast.walk(tree)) == 1
    classes = {value for name in lightclock.__all__
               if isinstance(value := getattr(lightclock, name), type)}
    assert len(classes) == 22
    for method in "__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__":
        assert len({getattr(cls, method) for cls in classes}) == 1, method
    # a method the class defines is kept: Dual spells itself as real + eps·ε
    Dual = lightclock.Dual
    assert len({cls.__repr__ for cls in classes - {Dual}}) == 1
    assert Dual.__repr__.__code__.co_filename == lightclock.infinitesimals.__file__

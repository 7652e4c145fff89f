"""The bit ledger (``tests/ledger.py``) holds: each public kernel, each CLI row's
good call and each numpy bridge profile gives the bits that
``tests/fixtures/ledger.json`` records, and the corpus reaches every branch it
is meant to."""

import ast
import inspect
import math
from pathlib import Path

import ledger
import pytest
from conftest import row_argv
from test_cli_rows import GOOD

import lightclock as lc

LEDGER = ledger.load()


@pytest.fixture(scope="module")
def now():
    return ledger.entries()


@pytest.mark.parametrize("name", sorted(LEDGER["entries"]))
def test_entry_holds(now, name):
    assert now.get(name) == LEDGER["entries"][name], (
        f"{name} moved from the ledger made on {LEDGER['made_on']}")


def test_every_entry_is_in_the_ledger(now):
    assert sorted(now) == sorted(LEDGER["entries"])


def test_every_public_kernel_has_an_entry():
    functions = {name for name in lc.__all__ if inspect.isfunction(getattr(lc, name))}
    assert functions <= set(ledger.KERNELS)


def test_the_cli_entries_are_the_good_calls():
    argvs = [[*row_argv(command, mode), *flags.split()] for (command, mode), flags in GOOD.items()]
    assert sorted(ledger.good_calls().values()) == sorted(argvs)


def test_the_corpus_reaches_every_branch():
    def kind(t):
        if t.phi == math.pi / 2.0:
            return "degenerate"
        return "collinear" if t.phi == math.pi and t.n == 0.0 else "general"

    drawn = slice(ledger.PER_KERNEL)
    triangles = [lc.solve_triangle(*args) for args in ledger.calls("solve_triangle")[drawn]]
    assert {kind(t) for t in triangles} == {"degenerate", "collinear", "general"}
    intervals = [lc.partial_interval(*args) for args in ledger.calls("partial_interval")[drawn]]
    regions = {p.branch for p in intervals}
    assert regions == {"interior", "transition", "exterior"}


def test_the_ledger_imports_nothing_from_perfbench():
    perfbench = Path(ledger.__file__).resolve().parent.parent / "perfbench"
    tree = ast.parse(Path(ledger.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {"perfbench", *(path.stem for path in perfbench.glob("*.py"))}
    assert not {name.split(".")[0] for name in imported} & names

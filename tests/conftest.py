"""The CLI tests' one harness: ``cli.main`` called in this process, a fresh
``python`` for the tests whose subject is the process itself, and the rows
of ``cli._COMMANDS`` as test cases; and the Hypothesis profiles."""

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import settings

from lightclock import cli

# Tier-1 draws the same examples on every run and keeps no example database,
# so one commit gets one verdict; ``--hypothesis-profile=deep`` looks further,
# from a random seed, at 3,000 examples per test and with no deadline
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", max_examples=3000, deadline=None)
settings.load_profile("tier1")


def run_main(*argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args, text=True, env=None):
    """The finished process ``python *args``, its output captured: only for a
    test of what a process shows, its bytes, exit status or imports."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, env=env)


def row_argv(command, mode=None):
    """The command and its mode: positional, or spelled ``--model <mode>``
    where the row's mode is a flag."""
    if mode is None:
        return [command]
    dest = cli._COMMANDS[command][1]
    return [command, *([dest] if dest.startswith("--") else []), mode]


# one case (command, mode, spec) per row of the table, mode None where the
# subcommand has none, with the id ``command[-mode]``
ROWS = [
    pytest.param(command, mode, spec, id=f"{command}-{mode}" if mode else command)
    for command, (_, _, rows) in cli._COMMANDS.items()
    for mode, (spec, _) in rows.items()
]

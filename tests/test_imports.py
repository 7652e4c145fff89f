"""The runtime imports no ``typing``: annotations are strings, and the
generic aliases come from ``collections.abc``."""

import os
import subprocess
import sys
from pathlib import Path

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
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"

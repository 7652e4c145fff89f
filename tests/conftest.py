"""Helpers the CLI tests share: an in-process call of ``cli.main`` and the
argv that selects a row of ``cli._COMMANDS``."""

from lightclock import cli


def run_main(capsys, *argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, run in this process."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def row_argv(command, mode=None):
    """The command and its mode: positional, or spelled ``--model <mode>``
    where the row's mode is a flag."""
    if mode is None:
        return [command]
    dest = cli._COMMANDS[command][1]
    return [command, *([dest] if dest.startswith("--") else []), mode]

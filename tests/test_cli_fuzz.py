"""Fuzz of in-process ``cli.main(argv)`` over the rows of ``cli._COMMANDS``.

Each example draws a (command, mode) row and some of its parameters, a
quarter of them given in a config file; some draws add a flag the row does
not read or both sides of one of its alternatives.  Whatever the values, a
call exits 0 with strict JSON or finite CSV on stdout, or exits 1 or 2 with
one message that names its cause, and never shows a traceback.
"""

import json
import math
import re

import pytest
from conftest import ROWS, row_argv, run_main
from hypothesis import given, settings
from hypothesis import strategies as st

from lightclock import cli

NUMBERS = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, 800.0, 1e-170, 5e-324, 1.7e308,
                     math.nan, math.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)

COUNTS = st.one_of(st.integers(-2, 40), st.integers(cli.MAX_COUNT + 1, 10**20))


def flag_value(name):
    kind = cli._OTHER.get(name, float)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:  # small counts, and counts past cli.MAX_COUNT, which are refused
        return COUNTS.map(str)
    if kind is str:
        sweep = st.tuples(NUMBERS, NUMBERS, COUNTS)
        return st.one_of(sweep.map(lambda s: f"{s[0]!r}:{s[1]!r}:{s[2]}"),
                         st.sampled_from(["", "1:2", "a:b:c", "1:2:3:4"]))
    return NUMBERS.map(repr)


def config_entry(name, text):
    """The config form of a flag's text: a number with its unit tag, or the text."""
    kind, unit = cli._OTHER.get(name, float), cli._UNITS.get(name)
    if kind is int:
        return int(text)
    if kind is not float:
        return text
    if unit is None:
        return float(text)
    return {"value": float(text), "unit": unit if isinstance(unit, str) else unit[1]}


def pairs(spec):
    return [[cli._names(side) for side in token.split("|")] for token in spec.split()
            if "|" in token]


@st.composite
def calls(draw, command, mode, spec):
    names = cli._names(spec)
    for a, b in pairs(spec):  # one side of each alternative, as a valid call gives
        dropped = draw(st.sampled_from([a, b]))
        names = [n for n in names if n not in dropped]
    given = [n for n in names if draw(st.sampled_from([True] * 7 + [False]))]
    extra = draw(st.sampled_from(["none", "none", "foreign", "both"]))
    foreign = [n for n in cli._flags(cli._COMMANDS[command][2]) if n not in cli._names(spec)]
    if extra == "foreign" and foreign:
        given.append(draw(st.sampled_from(foreign)))
    elif extra == "both" and pairs(spec):
        a, b = draw(st.sampled_from(pairs(spec)))
        given += [n for n in (draw(st.sampled_from(a)), draw(st.sampled_from(b)))
                  if n not in given]
    else:
        extra = "none"
    argv, config = row_argv(command, mode), {}
    for i, name in enumerate(given):
        text = draw(flag_value(name))
        # some values come from a config; a foreign parameter stays a flag
        if not (extra == "foreign" and i == len(given) - 1) and draw(st.integers(0, 3)) == 0:
            config[name] = config_entry(name, text)
        else:
            argv.append(f"--{name.replace('_', '-')}={text}")
    argv += draw(st.sampled_from([[], ["--natural-units"], ["--c=1"], ["--c=2.5e-3"]]))
    return argv, given, extra, config


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def check_output(out):
    if out.startswith("{"):
        json.loads(out, parse_constant=_strict)
        return
    header, *rows = out.splitlines()
    columns = header.split(",")
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            if not (column.startswith("gamma") and cell == "nan"):
                assert math.isfinite(float(cell)), (column, cell)


def names_a_parameter(message):
    """Any parameter in quotes, or one whose name is longer than a letter."""
    return any(f"'{name}'" in message
               or len(name) > 1 and re.search(rf"(?<!\w){name}(?!\w)", message)
               for name in cli._DECLARED)


SPECS = [row.values for row in ROWS]

# each example is a whole CLI call, so the fuzz draws fewer than the profile's
# count: 12 per row under tier1 (derandomized, as the profile is) and 400
# under deep, from deep's seed
EXAMPLES = 400 if settings.get_current_profile_name().startswith("deep") else 12


# an id spells a row without its optional marks, so that ids do not move with them
@pytest.mark.parametrize("command,mode,spec", SPECS,
                         ids=[f"{c}-{m}-{re.sub(r'[][]', '', s)}" for c, m, s in SPECS])
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_main_exits_cleanly(command, mode, spec, tmp_path_factory, data):
    argv, given_names, extra, config = data.draw(calls(command, mode, spec))
    if config:
        path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_main(*argv)
    if extra == "foreign":  # the flag the row does not read is the first error found
        assert code == 2 and f"does not read '{given_names[-1]}'" in err, err
    if extra == "both":
        assert code == 2, err
    assert "Traceback" not in err
    *warnings, message = err.splitlines() or [""]
    assert all(line.startswith("warning: ") for line in warnings)
    if code == 0:
        assert message == "" or message.startswith("warning: ")
        check_output(out)
        return
    assert code in (1, 2)
    assert out == ""
    if code == 1:
        # the row, the cause and every parameter given
        label = f"{command} {mode}" if mode else command
        assert message.startswith(f"domain error: {label}: ")
        assert re.search(r" \(given .*c=\S+\)$", message)
        for name in given_names:
            assert f" {name}=" in message
    else:
        assert message.startswith("config error: ")
        assert names_a_parameter(message), message

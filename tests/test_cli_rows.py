"""The CLI's per-mode rows: each (command, mode) reads exactly the parameters
its row in ``cli._COMMANDS`` declares, and every failure names its cause."""

import json
import math
import re
import sys

import pytest
from conftest import ROWS, row_argv, run_main

from lightclock import cli


def flag_argv(name):
    """The flag of ``name`` and a valid value: the first choice of a choice,
    else 7; --natural-units takes none."""
    if name == "natural_units":
        return ["--natural-units"]
    kind = cli._OTHER.get(name, float)
    return ["--" + name.replace("_", "-"), kind[0] if isinstance(kind, tuple) else "7"]


class TestRows:
    def test_settable_surface(self):
        # (command, mode, parameter) combinations a call may set, --out and
        # --c aside; 264 when each subcommand declared one list for all modes
        assert len(ROWS) == 29
        assert sum(len(cli._names(row.values[2])) for row in ROWS) == 134

    def test_one_handler_per_row(self):
        handlers = {id(handler) for _, _, rows in cli._COMMANDS.values()
                    for _, handler in rows.values()}
        assert len(handlers) == len(ROWS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_no_row_reads_its_mode(self, command):
        # a handler reads parameters only through its row, and no row
        # declares the mode, positional or a flag, so no handler can branch on it
        _, dest, rows = cli._COMMANDS[command]
        assert dest is None or dest.lstrip("-") not in cli._flags(rows)

    def test_parser_takes_the_union_of_the_rows(self):
        # the reader knows the flag of every declared name and of the four
        # common flags, and no other; a row refuses a known flag it does not read
        assert set(cli._FLAGS.values()) == cli._DECLARED | set(cli._COMMON)
        assert all(flag == "--" + name.replace("_", "-") for flag, name in cli._FLAGS.items())
        for command, mode, spec in (row.values for row in ROWS):
            for flag, name in cli._FLAGS.items():
                argv = [*row_argv(command, mode), *flag_argv(name)]
                if name in cli._names(spec) or name in cli._COMMON:
                    assert name in vars(cli.build_parser().parse_args(argv)), argv
                else:
                    with pytest.raises(cli.ConfigError, match=f"does not read '{name}'"):
                        cli.build_parser().parse_args(argv)

    def test_row_ids_are_unique_and_spell_the_call(self):
        # a row's id is its command and mode as a call gives them, so a row
        # whose id collides with another's fails here, not silently
        ids = [row.id for row in ROWS]
        assert len(set(ids)) == len(ids)
        for row in ROWS:
            assert row.id == "-".join(w for w in row_argv(*row.values[:2]) if w[0] != "-")

    def test_reading_an_undeclared_name_is_a_programming_error(self):
        args = cli.build_parser().parse_args(["compose", "--v1", "0.1", "--v2", "0.2"])
        with pytest.raises(AssertionError, match="'k'"):
            cli.Params(args).get("k")

    def test_params_takes_the_row_the_reader_resolved(self, monkeypatch):
        # the reader looks the call's row up once; Params reads neither the
        # table nor the mode's value
        argv = ["metric", "schwarzschild", "--r0", "1", "--R", "2", "--c", "1"]
        args = cli.build_parser().parse_args(argv)
        _, handler = cli._COMMANDS["metric"][2]["schwarzschild"]
        monkeypatch.setattr(cli, "_COMMANDS", {})
        assert not hasattr(args, "form")
        params = cli.Params(args)
        assert (params.label, params.handler) == ("metric schwarzschild", handler)
        assert params.handler(params)["lambda"] == 0.5

    def test_help_lists_each_modes_parameters(self):
        for command in ("metric", "hubble"):
            code, out, err = run_main(command, "--help")
            assert (code, err) == (0, "")
            for mode, (spec, _) in cli._COMMANDS[command][2].items():
                assert f"  {mode:14}{spec}\n" in out


class TestUnreadAndBoth:
    @pytest.mark.parametrize(
        "argv,names",
        [
            (("metric", "minkowski", "--dt", "1", "--dr", "1", "--c", "1"), ["dr"]),
            (("metric", "schwarzschild", "--r0", "1", "--R", "2", "--dt", "1", "--dr", "1",
              "--c", "1"), ["dr"]),
            (("alter", "doppler", "--nu-s", "1", "--gamma", "0.5", "--v", "0.9"),
             ["gamma", "v"]),
            (("metric", "schwarzschild", "--r0", "1", "--R", "2", "--Lambda", "5", "--c", "1"),
             ["Lambda"]),
            (("hubble", "--model", "linear", "--t", "1", "--exponent", "2"), ["exponent"]),
            (("transition", "photons", "--lam", "0.001", "--lambda-min", "5", "--k", "0.001",
              "--c", "1"), ["lam", "lambda_min"]),
            (("metric", "desitter", "--Lambda", "1", "--R", "2", "--G", "1", "--c", "1"), ["G"]),
            (("metric", "schwarzschild", "--mass", "1", "--sweep-R", "2:3:2", "--dt", "1"),
             ["dt", "sweep_R"]),
            (("transition", "photons", "--lam", "0.001", "--n", "5"), ["lam", "n"]),
            (("hubble", "--model", "powerlaw", "--t", "1", "--exponent", "2", "--rate", "1"),
             ["rate"]),
            (("sim", "offset", "--u", "1", "--omega", "1", "--dt-emit", "1", "--t1", "2",
              "--L", "3"), ["t1", "L"]),
        ],
    )
    def test_is_two_and_names_the_flags(self, argv, names):
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        for name in names:
            assert repr(name) in err

    def test_alternatives_are_merged_with_the_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r0": {"value": 1.0, "unit": "m"}}))
        code, out, err = run_main(
            "radar-distance", "--config", str(cfg), "--mass", "1", "--R1", "2",
            "--R2", "3",
        )
        assert (code, out) == (2, "")
        assert "'r0'" in err and "'mass'" in err

    def test_another_modes_config_field_is_ignored(self, tmp_path):
        # dr belongs to metric linear; a config may be shared between modes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dr": {"value": 5.0, "unit": "m"},
                                   "dt": {"value": 2.0, "unit": "s"}}))
        code, out, _ = run_main("metric", "minkowski", "--config", str(cfg), "--c", "1")
        assert code == 0
        assert json.loads(out) == {"ds2": 4.0}


class TestFailuresNameTheirCause:
    @pytest.mark.parametrize(
        "argv,named",
        [
            (("sim", "roundtrip", "--omega", "1000", "--t1", "1", "--c", "1"),
             ["omega", "c"]),
            (("sim", "offset", "--u", "1", "--omega", "800", "--dt-emit", "1", "--c", "1"),
             ["omega", "c"]),
            (("sim", "counts", "--omega", "800", "--t1", "1", "--L", "1", "--c", "1"),
             ["omega", "c"]),
            (("transition", "H", "--k", "1e-170", "--n", "3"), ["k"]),
            (("triangle", "--omega1", "800", "--omega2", "800", "--omega3", "900", "--c", "1"),
             ["triangle:", "omega1=800.0", "omega3=900.0", "c=1.0"]),
            (("hubble", "--model", "exponential", "--rate", "1e-320", "--t", "1"),
             ["hubble exponential:", "rate=1e-320", "t=1.0"]),
            (("metric", "rw", "--a", "1e-200", "--R", "1e-300", "--dR", "1e200", "--c", "1"),
             ["metric rw:", "'ds2'", "a=1e-200", "dR=1e+200"]),
            (("transition", "photons", "--k", "1e300", "--n", "3"),
             ["transition photons:", "'speed_plus_m_per_s'", "k=1e+300"]),
            (("alter", "total-doppler", "--nu-s", "0", "--v", "0.5", "--c", "1"),
             ["alter total-doppler:", "frequency must be positive", "nu_s=0.0"]),
            # squares past the float range are inf, not an OverflowError
            (("lorentz", "--t", "1", "--x", "1", "--v3", "0.5", "--c", "1", "--y", "1e200",
              "--z", "1e200"), ["lorentz:", "'interval_before'", "y=1e+200"]),
            (("metric", "rw", "--a", "1e-300", "--R", "1", "--c", "1"),
             ["metric rw:", "curvature singularity", "a=1e-300"]),
            # a medium velocity is unsigned in every sim row, and a frequency is positive
            (("sim", "counts", "--omega", "-1", "--t1", "1", "--n-pulses", "2", "--L", "1",
              "--natural-units"), ["sim counts:", "medium velocity must be non-negative",
                                   "omega=-1.0"]),
            (("sim", "offset", "--u", "1", "--omega", "-1", "--dt-emit", "1", "--c", "1"),
             ["sim offset:", "medium velocity must be non-negative", "omega=-1.0"]),
            (("compare-frequency", "--g1-p", "0.9", "--g1-r", "0.8", "--nu-r", "-1"),
             ["compare-frequency:", "frequency must be positive", "nu_r=-1.0"]),
        ],
    )
    def test_domain_error_names_its_cause(self, argv, named):
        code, out, err = run_main(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error:")
        for text in named:
            assert text in err
        for bare in ("math range error\n", "float division by zero\n", "not JSON compliant"):
            assert bare not in err

    @pytest.mark.parametrize(
        "argv,names",
        [
            (("transition", "H", "--x-min", "1", "--x-max", "-1"), ["x_min", "x_max"]),
            (("transition", "H", "--n", "1"), ["n"]),
            (("transition", "photons", "--n", "1"), ["n"]),
            (("transition", "H", "--x-min=-1e308", "--x-max", "1e308"), ["n"]),
        ],
    )
    def test_sweep_config_error_names_the_parameters(self, argv, names):
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        for name in names:
            assert repr(name) in err

    @pytest.mark.parametrize(
        "content,message",
        [(None, "cannot read config {}: "), ("[1, 2]", "config {} must be a JSON object\n")],
        ids=["missing", "a JSON list"],
    )
    def test_config_that_is_no_object_is_two(self, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_main("compose", "--v1", "0.1", "--v2", "0.2", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("config error: " + message.format(cfg))

    def test_config_nested_too_deep_is_two(self, tmp_path):
        # json.load raises RecursionError, not ValueError, on this
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_main("compose", "--v1", "0.1", "--v2", "0.2",
                                  "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config {cfg} is not valid JSON")
        assert err.count("\n") == 1

    def test_config_that_is_not_utf8_is_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"t1": 1}')
        code, out, err = run_main("radar", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config {cfg} is not valid JSON")

    def test_warning_is_one_line(self):
        code, out, err = run_main(
            "metric", "approx", "--r0", "1", "--r", "1e-300", "--dt", "1", "--c", "1"
        )
        assert code == 0
        assert json.loads(out)["field_strength"] == pytest.approx(1e300)
        assert err == (
            "warning: 2GM/(rc^2) = 1e+300 exceeds 0.1; first approximation is unreliable\n"
        )


# a call that exits 0 for each row, giving one side of each alternative and
# every optional name that does not make another one required (dilation's rp
# with a Λ)
GOOD = {
    ("radar", None): "--t1 1 --t2 2 --t3 4 --tol 1e-12 --c 1",
    ("compose", None): "--v1 0.3 --v2 0.4 --c 1",
    ("lorentz", None): "--t 1 --x 0.5 --y 1 --z 2 --v3 0.3 --c 1",
    ("triangle", None): "--omega1 0.5 --omega2 0.5 --omega3 1.0 --c 1",
    ("metric", "minkowski"): "--dt 1 --dx 0.5 --dy 0.1 --dz 0.1 --c 1",
    ("metric", "linear"): "--v 0.3 --d 0.1 --mode real --dt 1 --dr 0.5 --c 1",
    ("metric", "schwarzschild"):
        "--mass 0.5 --G 1 --R 2 --theta 1 --dt 1 --dR 0.5 --dtheta 0.1 --dphi 0.1 --c 1",
    ("metric", "modified"): "--mass 1 --G 0.5 --Lambda 0.01 --lambda-unit m^-2 --R 2 --theta 1"
                            " --dt 1 --dR 0.5 --dtheta 0.1 --dphi 0.1 --c 1",
    ("metric", "desitter"): "--Lambda 0.01 --lambda-unit m^-2 --sweep-R 1:2:3 --c 1",
    ("metric", "rw"): "--a 10 --R 1 --theta 1 --dt 1 --dR 0.5 --dtheta 0.1 --dphi 0.1 --c 1",
    ("metric", "approx"): "--mass 0.005 --G 1 --r 1 --dt 1 --dr 0.5 --c 1",
    ("radar-distance", None): "--mass 0.5 --G 1 --R1 2 --R2 3 --c 1",
    ("horizon", None): "--mass 0.5 --G 1 --Lambda 0.1 --lambda-unit m^-2 --c 1",
    ("alter", "doppler"): "--nu-s 1e9 --v 0.5 --c 1",
    ("alter", "total-doppler"): "--nu-s 1e9 --v 0.5 --c 1",
    ("alter", "decay"): "--tau-s 1 --gamma 0.5",
    ("alter", "mass"): "--mass-s 1 --v 0.5 --c 1",
    ("dilation", None): "--rs-over-rp 0.5 --rr-over-rp 4 --rp 2 --lambda-unit m^-2",
    ("compare-frequency", None): "--g1-p 0.9 --g1-r 0.8 --nu-r 1e9",
    ("transition", "H"): "--k 1e-3 --x-min -0.01 --x-max 0.01 --n 11",
    ("transition", "interval"): "--k 0.1 --lam 0.5 --dt 1 --dR 0.1 --c 1",
    ("transition", "photons"): "--k 1e-3 --lambda-min 1e-4 --lambda-max 2e-3 --n 5 --c 1",
    ("sim", "roundtrip"): "--t1 1 --omega 0.5 --tol 1e-12 --c 1",
    ("sim", "counts"): "--L 1 --omega 0.6931471805599453 --t1 1 --n-pulses 3 --c 1",
    ("sim", "equilinear"): "--t1 1 --t2 2 --t3 4 --c 1",
    ("sim", "offset"): "--u 0.5 --omega 0.5 --dt-emit 1 --c 1",
    ("hubble", "linear"): "--t 2 --rho 1e-26 --G 6.6743e-11",
    ("hubble", "exponential"): "--rate 0.7 --t 3 --rho 1e-26 --G 6.6743e-11",
    ("hubble", "powerlaw"): "--exponent 0.5 --t 3 --rho 1e-26 --G 6.6743e-11",
}


def call(command, mode, given):
    """The argv of a row's call with the flags ``given`` (name: text)."""
    flags = [x for name, text in given.items() for x in (f"--{name.replace('_', '-')}", text)]
    return [*row_argv(command, mode), *flags]


class TestMarks:
    """Each unmarked name of a row is required and each ``[name]`` optional."""

    def test_every_row_has_a_good_call(self):
        assert set(GOOD) == {tuple(row.values[:2]) for row in ROWS}

    @pytest.mark.parametrize("command,mode,spec", [row.values for row in ROWS])
    def test_marks_tell_the_truth(self, command, mode, spec):
        words = GOOD[command, mode].split()
        given = {flag[2:].replace("-", "_"): text for flag, text in zip(words[::2], words[1::2])}
        assert run_main(*call(command, mode, given))[0] == 0
        for token in spec.split():
            sides = token.split("|")
            side = next((s for s in sides if set(cli._names(s)) & set(given)), None)
            if side is None:  # an optional name the call leaves out
                continue
            drops = [[name] for name in cli._names(side)]
            if len(sides) > 1:  # the side that was given, all of it
                drops.append(cli._names(side))
            for drop in drops:
                code, _, err = run_main(
                    *call(command, mode, {n: t for n, t in given.items() if n not in drop})
                )
                required = [n for n in drop if n in side.split(",")]  # not "[n]"
                if not required:
                    assert code != 2, (drop, err)
                    continue
                assert code == 2, (drop, err)
                # a missing name is quoted; a missing side is "need either a or b"
                assert re.search(rf"(?<!\w){required[0]}(?!\w)", err), (drop, err)


class TestNegativeExponentForm:
    """A float flag takes a value that starts with one "-" as its value, not
    as a flag: a negative number in exponent form, and -inf or -nan."""

    @pytest.mark.parametrize("command,mode,spec", ROWS)
    @pytest.mark.parametrize("text", ["-1e-3", "-1E5", "-2.5e+10"])
    def test_first_float_flag(self, command, mode, spec, text):
        name = next(n for n in cli._names(spec) if cli._OTHER.get(n, float) is float)
        argv = call(command, mode, {name: text})
        assert getattr(cli.build_parser().parse_args(argv), name) == float(text)
        _, _, err = run_main(*argv)
        assert "needs a value" not in err, err

    @pytest.mark.parametrize("text", ["-inf", "-nan"])
    def test_non_finite_is_two_naming_the_flag(self, text):
        code, out, err = run_main("compose", "--v1", text, "--v2", "0.1", "--c", "1")
        assert (code, out) == (2, "")
        assert err == f"config error: parameter 'v1' must be finite, got {float(text)!r}\n"


def horizon_closed_forms(r0, Lambda):
    """The horizons of a source whose a = r0·√Λ is small: r0(1 + a²/3), to
    O(a⁴) relatively, and (√3 − a/2)/√Λ, to O(a²)."""
    a = r0 * math.sqrt(Lambda)
    return r0 * (1.0 + a * a / 3.0), (math.sqrt(3.0) - a / 2.0) / math.sqrt(Lambda), a


class TestScaleTraps:
    @pytest.mark.parametrize(
        "argv",
        [
            # an electron with the observed Λ
            ("--mass", "9.109e-31", "--Lambda", "1.1e-52", "--lambda-unit", "m^-2"),
            ("--r0", "1", "--Lambda", "1e-100", "--lambda-unit", "m^-2", "--c", "1"),
            # (3/√Λ)³ underflows to 0
            ("--r0", "3.19e-142", "--Lambda", "1.6e273", "--lambda-unit", "m^-2"),
            # r³ overflows near the outer horizon
            ("--r0", "1", "--Lambda", "1e-300", "--lambda-unit", "m^-2"),
            # a = r0·√Λ underflows to 0, so the inner horizon is r0 itself
            ("--mass", "1e-300", "--Lambda", "1e-52", "--lambda-unit", "s^-2", "--c", "1"),
        ],
    )
    def test_horizons_at_any_scale(self, argv):
        code, out, err = run_main("horizon", *argv)
        assert (code, err) == (0, "")
        params = cli.Params(cli.build_parser().parse_args(["horizon", *argv]))
        src = cli._source(params, "Lambda", "lambda_unit")
        inner, outer, a = horizon_closed_forms(src.schwarzschild_r0, src.lambda_per_m2)
        assert json.loads(out)["roots"] == [
            pytest.approx(inner, rel=1e-14), pytest.approx(outer, rel=max(a * a, 1e-14))
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("metric", "modified", "--mass", "800", "--G", "13869239967844.592", "--R", "2"),
            ("metric", "desitter", "--Lambda", "1", "--R", "2"),
            ("dilation", "--rs-over-rp", ".5", "--rr-over-rp", "2", "--rp", "1", "--Lambda", "1"),
            ("compose", "--v1", "1e-301", "--v2", "1e-301"),
            ("lorentz", "--t", "1", "--x", "1", "--v3", "1e-301"),
        ],
    )
    def test_a_light_speed_whose_square_is_zero_is_two(self, argv):
        code, out, err = run_main(*argv, "--c", "1e-300")
        assert (code, out) == (2, "")
        assert err.startswith("config error: parameter 'c'")

    def test_a_radius_whose_mass_would_overflow_is_a_source(self):
        # r0·c²/(2G) overflows, but a source holds r0 itself
        code, out, err = run_main(
            "metric", "schwarzschild", "--r0", "1e295", "--R", "2e295"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["lambda"] == 0.5

    @pytest.mark.parametrize("model,name", [("exponential", "rate"), ("powerlaw", "exponent")])
    def test_the_model_rule_requires_what_the_model_reads(self, model, name):
        code, out, err = run_main("hubble", "--model", model, "--t", "1")
        assert (code, out) == (2, "")
        assert f"missing required parameter {name!r}" in err


class TestFlagMode:
    """hubble's rows are chosen by --model, a flag with choices."""

    def test_left_out_is_two(self):
        code, out, err = run_main("hubble", "--t", "2")
        assert (code, out, err) == (2, "", "config error: missing required parameter 'model'\n")

    def test_a_config_cannot_carry_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "linear"}')
        for mode in ([], ["--model", "linear"]):
            code, out, err = run_main("hubble", *mode, "--t", "2", "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err.startswith("config error:") and "'model'" in err

    def test_an_unknown_model_is_two(self):
        code, out, err = run_main("hubble", "--model", "cubic", "--t", "2")
        assert (code, out) == (2, "")
        assert err == ("config error: --model must be one of linear, exponential, powerlaw,"
                       " got 'cubic'\n")


def abbreviation(spec):
    """The flag of the row's first name that is longer than its first
    letter, less its last letter, where that is not a flag the row reads."""
    names = cli._names(spec) + ["out", "c"]
    return next(flag[:-1] for name in names if len(flag := "--" + name.replace("_", "-")) > 3
                and cli._FLAGS.get(flag[:-1]) not in names)


class TestReaderRefusals:
    """Each spelling that the table does not declare is refused on every
    row: exit 2, stdout empty, and one config error line naming the flag."""

    def refused(self, argv, named):
        code, out, err = run_main(*argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert named in err, err

    @pytest.mark.parametrize("command,mode,spec", ROWS)
    def test_an_abbreviation(self, command, mode, spec):
        # a prefix that is itself a declared name is that name, which the row does not read
        prefix = abbreviation(spec)
        name = cli._FLAGS.get(prefix)
        named = f"unknown argument '{prefix}'" if name is None else f"does not read '{name}'"
        self.refused([*row_argv(command, mode), prefix, "1"], named)

    @pytest.mark.parametrize("command,mode,spec", ROWS)
    def test_a_flag_given_twice(self, command, mode, spec):
        flag = flag_argv(cli._names(spec)[0])
        self.refused([*row_argv(command, mode), *flag, *flag],
                     f"config error: {flag[0]} is given twice\n")

    @pytest.mark.parametrize("command,mode,spec", [row for row in ROWS if "_" in row.values[2]])
    def test_the_underscore_spelling(self, command, mode, spec):
        name = next(n for n in cli._names(spec) if "_" in n)
        _, text = flag_argv(name)
        self.refused([*row_argv(command, mode), f"--{name}", text],
                     f"unknown argument '--{name}'")

    @pytest.mark.parametrize("command,mode,spec", ROWS)
    @pytest.mark.parametrize("after", [[], ["--c", "1"]], ids=["last", "before-a-flag"])
    def test_a_flag_without_its_value(self, command, mode, spec, after):
        flag, _ = flag_argv(cli._names(spec)[0])
        self.refused([*row_argv(command, mode), flag, *after],
                     f"config error: {flag} needs a value\n")

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["compose", "--v1", "0.1", "--v2", "0.2", "extra"], "unknown argument 'extra'"),
            (["metric", "linear", "rw", "--v", "0.1"], "unknown argument 'rw'"),
            (["hubble", "linear", "--t", "2"], "unknown argument 'linear'"),
            (["compose", "--model", "linear", "--v1", "0.1", "--v2", "0.2"],
             "unknown argument '--model'"),
            (["hubble", "--model", "linear", "--model", "linear", "--t", "2"],
             "--model is given twice"),
            (["compose", "--v1", "0.1", "--v2", "0.2", "--natural-units=1"],
             "--natural-units takes no value"),
            (["compose", "--v1", "0.1", "--v2", "0.2", "--natural_units"],
             "unknown argument '--natural_units'"),
            (["transition", "H", "--n", "2.5"], "--n must be an integer, got '2.5'"),
            (["metric", "--r0", "1", "bogus"], "form must be one of"),
            (["metric", "--r0", "1"], "missing required parameter 'form'"),
        ],
    )
    def test_other_spellings(self, argv, named):
        self.refused(argv, named)

    @pytest.mark.parametrize(
        "argv,err",
        [
            # a prefix of --exponent is not --exponent
            (["hubble", "--model", "powerlaw", "--expo", "0.5", "--t", "3"],
             "config error: unknown argument '--expo'; see lightclock hubble --help\n"),
            # the second --v1 does not replace the first
            (["compose", "--v1", "0.5", "--v2", "0.5", "--c", "1", "--v1", "0.3"],
             "config error: --v1 is given twice\n"),
        ],
    )
    def test_a_prefix_and_a_repeat_are_refused(self, argv, err):
        assert run_main(*argv) == (2, "", err)

    @pytest.mark.parametrize("command,mode,spec", ROWS)
    def test_equals_form_reads_as_two_words(self, command, mode, spec):
        words = GOOD[command, mode].split()
        joined = [f"{flag}={text}" for flag, text in zip(words[::2], words[1::2])]
        two_words = run_main(*row_argv(command, mode), *words)
        assert two_words[0] == 0
        assert run_main(*row_argv(command, mode), *joined) == two_words

    @pytest.mark.parametrize("argv", [["-h"], ["compose", "--v1", "0.1", "-h"],
                                      ["hubble", "--t", "1", "--help"]])
    def test_help_anywhere_is_zero(self, argv):
        code, out, err = run_main(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: lightclock")


class TestNumpyIsOptional:
    def test_scalars_need_no_numpy(self, monkeypatch):
        from lightclock import transition

        monkeypatch.setitem(sys.modules, "numpy", None)
        assert transition.transition_profile(-1.0, 1.0) == -0.5
        assert transition.transition_profile_prime(-1.0, 1.0) == -0.25

    @pytest.mark.parametrize("name", ["transition_profile", "transition_profile_prime"])
    def test_array_input_names_the_extra(self, monkeypatch, name):
        from lightclock import transition

        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match=r"lightclock\[array\]"):
            getattr(transition, name)([-1.0, 0.5], 1.0)

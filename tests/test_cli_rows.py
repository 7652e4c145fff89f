"""The CLI's per-mode rows: each (command, mode) reads exactly the parameters
its row in ``cli._COMMANDS`` declares, and every failure names its cause."""

import json
import sys

import pytest

from lightclock import cli


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


ROWS = [
    (command, mode, spec, handler)
    for command, (_, _, rows) in cli._COMMANDS.items()
    for mode, (spec, handler) in rows.items()
]


class TestRows:
    def test_settable_surface(self):
        # (command, mode, parameter) combinations a call may set, --out and
        # --c aside; 264 when each subcommand declared one list for all modes
        assert len(ROWS) == 27
        assert sum(len(cli._names(spec)) for _, _, spec, _ in ROWS) == 127

    def test_one_handler_per_row(self):
        assert len({id(handler) for *_, handler in ROWS}) == len(ROWS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_no_row_reads_its_mode(self, command):
        # a handler reads parameters only through its row, and no row
        # declares the positional mode, so no handler can branch on it
        _, dest, rows = cli._COMMANDS[command]
        assert dest is None or dest not in cli._flags(rows)

    def test_parser_takes_the_union_of_the_rows(self):
        sub = cli.build_parser()._subparsers._group_actions[0].choices
        for command, (_, dest, rows) in cli._COMMANDS.items():
            dests = {a.dest for a in sub[command]._actions} - {"help", "config", "out", "c",
                                                               "natural_units", dest}
            assert dests == set(cli._flags(rows))

    def test_reading_an_undeclared_name_is_a_programming_error(self):
        args = cli.build_parser().parse_args(["compose", "--v1", "0.1", "--v2", "0.2"])
        with pytest.raises(AssertionError, match="'k'"):
            cli.Params(args).get("k")

    def test_help_lists_each_modes_parameters(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["metric", "--help"])
        out = capsys.readouterr().out
        for mode, (spec, _) in cli._COMMANDS["metric"][2].items():
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
    def test_is_two_and_names_the_flags(self, capsys, argv, names):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        for name in names:
            assert repr(name) in err

    def test_alternatives_are_merged_with_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r0": {"value": 1.0, "unit": "m"}}))
        code, out, err = run_main(
            capsys, "radar-distance", "--config", str(cfg), "--mass", "1", "--R1", "2",
            "--R2", "3",
        )
        assert (code, out) == (2, "")
        assert "'r0'" in err and "'mass'" in err

    def test_another_modes_config_field_is_ignored(self, capsys, tmp_path):
        # dr belongs to metric linear; a config may be shared between modes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dr": {"value": 5.0, "unit": "m"},
                                   "dt": {"value": 2.0, "unit": "s"}}))
        code, out, _ = run_main(capsys, "metric", "minkowski", "--config", str(cfg), "--c", "1")
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
             ["hubble:", "rate=1e-320", "t=1.0"]),
            (("metric", "rw", "--a", "1e-200", "--R", "1e-300", "--dR", "1e200", "--c", "1"),
             ["metric rw:", "'ds2'", "a=1e-200", "dR=1e+200"]),
            (("transition", "photons", "--k", "1e300", "--n", "3"),
             ["transition photons:", "'speed_plus_m_per_s'", "k=1e+300"]),
        ],
    )
    def test_domain_error_names_its_cause(self, capsys, argv, named):
        code, out, err = run_main(capsys, *argv)
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
    def test_sweep_config_error_names_the_parameters(self, capsys, argv, names):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        for name in names:
            assert repr(name) in err

    def test_config_that_is_not_utf8_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"t1": 1}')
        code, out, err = run_main(capsys, "radar", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config {cfg} is not valid JSON")

    def test_warning_is_one_line(self, capsys):
        code, out, err = run_main(
            capsys, "metric", "approx", "--r0", "1", "--r", "1e-300", "--dt", "1", "--c", "1"
        )
        assert code == 0
        assert json.loads(out)["field_strength"] == pytest.approx(1e300)
        assert err == (
            "warning: 2GM/(rc^2) = 1e+300 exceeds 0.1; first approximation is unreliable\n"
        )


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

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lightclock", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli_bytes(*args):
    return subprocess.run(
        [sys.executable, "-m", "lightclock", *args], capture_output=True
    )


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (("radar", "--config", str(FIXTURES / "radar_reference.json")),
             "radar_reference.golden.json"),
            (("metric", "schwarzschild", "--config", str(FIXTURES / "schwarzschild_sweep.json")),
             "schwarzschild_sweep.golden.csv"),
            (("transition", "H", "--config", str(FIXTURES / "transition_profile.json")),
             "transition_profile.golden.csv"),
        ],
    )
    def test_byte_identical_across_runs(self, argv, golden):
        first = run_cli_bytes(*argv)
        second = run_cli_bytes(*argv)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout == (FIXTURES / golden).read_bytes()


class TestExitCodes:
    def test_success(self):
        assert run_cli("compose", "--v1", "0.5", "--v2", "0.5", "--c", "1").returncode == 0

    def test_domain_error_is_one(self):
        res = run_cli("radar", "--t1", "1", "--t2", "3", "--t3", "2", "--c", "1")
        assert res.returncode == 1
        assert "domain error" in res.stderr

    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"t1": {"value": 1.0, "unit": "m"}}')
        res = run_cli("radar", "--config", str(bad))
        assert res.returncode == 2
        assert "t1" in res.stderr

    def test_missing_parameter_names_field(self):
        res = run_cli("compose", "--v1", "0.5", "--c", "1")
        assert res.returncode == 2
        assert "v2" in res.stderr

    def test_unknown_flag_is_two(self):
        assert run_cli("radar", "--bogus", "1").returncode == 2


class TestOutputRoundTrip:
    def test_json_reparses_to_exact_float(self):
        res = run_cli("compose", "--v1", "0.3", "--v2", "0.4", "--c", "1")
        payload = json.loads(res.stdout)
        expected = (0.3 + 0.4) / (1.0 + 0.3 * 0.4)
        assert payload["v3"] == expected

    def test_csv_reparses_to_exact_float(self):
        res = run_cli(
            "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:4:3",
            "--natural-units",
        )
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "R_m,lambda_dimensionless,null_speed_m_per_s,gamma_dimensionless"
        row = lines[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[1]) == 1.0 - 1.0 / 2.0
        assert float(row[3]) == math.sqrt(0.5)

    def test_lf_line_endings(self):
        res = run_cli_bytes(
            "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:4:3",
            "--natural-units",
        )
        assert b"\r" not in res.stdout


class TestFlagsWinOverConfig:
    def test_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "v1": {"value": 0.1, "unit": "m/s"},
            "v2": {"value": 0.1, "unit": "m/s"},
            "c": {"value": 1.0, "unit": "m/s"},
        }))
        res = run_cli("compose", "--config", str(cfg), "--v1", "0.5", "--v2", "0.5")
        assert json.loads(res.stdout)["v3"] == 0.8


class TestTransitionGrid:
    def test_junctions_present_exactly(self):
        res = run_cli("transition", "H", "--k", "1", "--x-min", "-5", "--x-max", "5", "--n", "7")
        xs = [line.split(",")[0] for line in res.stdout.strip().split("\n")[1:]]
        assert "0.0" in xs
        assert "2.0" in xs


class TestToleranceEnv:
    def test_geometric_mean_tolerance_override(self, tmp_path):
        import os

        env = dict(os.environ, LIGHTCLOCK_TOL="1e-3")
        loose = run_cli(
            "radar", "--t1", "1", "--t2", "2.0001", "--t3", "4", "--c", "1", env=env
        )
        assert json.loads(loose.stdout)["geometric_mean_ok"] is True
        strict = run_cli("radar", "--t1", "1", "--t2", "2.0001", "--t3", "4", "--c", "1")
        assert json.loads(strict.stdout)["geometric_mean_ok"] is False


class TestNaturalUnits:
    def test_default_c_is_si(self):
        res = run_cli("alter", "total-doppler", "--nu-s", "1.0", "--v", "149896229")
        ratio = json.loads(res.stdout)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)

    def test_natural_units_flag(self):
        res = run_cli("alter", "total-doppler", "--nu-s", "1.0", "--v", "0.5", "--natural-units")
        ratio = json.loads(res.stdout)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)

    def test_explicit_c_beats_natural_units(self):
        res = run_cli(
            "alter", "total-doppler", "--nu-s", "1.0", "--v", "1.0",
            "--natural-units", "--c", "2.0",
        )
        ratio = json.loads(res.stdout)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)


class TestSubcommandSurface:
    def test_lorentz(self):
        res = run_cli("lorentz", "--t", "0", "--x", "1", "--v3", "0.6", "--c", "1")
        payload = json.loads(res.stdout)
        assert payload["t"] == -0.75
        assert payload["x"] == 1.25

    def test_triangle(self):
        res = run_cli("triangle", "--omega1", "0.5", "--omega2", "0.5", "--omega3", "1.0", "--c", "1")
        payload = json.loads(res.stdout)
        assert payload["theta"] == pytest.approx(0.0, abs=1e-9)
        assert payload["phi"] == pytest.approx(math.pi, rel=1e-9)

    def test_dilation_reference(self):
        res = run_cli("dilation", "--rs-over-rp", "0.99999", "--rr-over-rp", "100000")
        assert json.loads(res.stdout)["ratio"] == pytest.approx(316.2262, abs=1e-3)

    def test_compare_frequency(self):
        res = run_cli("compare-frequency", "--g1-p", "0.25", "--g1-r", "1.0", "--nu-r", "1e15")
        assert json.loads(res.stdout)["nu_p"] == 2e15

    def test_horizon(self):
        res = run_cli(
            "horizon", "--r0", "1", "--Lambda", "3e-6", "--lambda-unit", "m^-2",
            "--natural-units",
        )
        roots = json.loads(res.stdout)["roots"]
        assert len(roots) == 2

    def test_metric_rw(self):
        res = run_cli(
            "metric", "rw", "--a", "1odd", "--natural-units",
        )
        assert res.returncode == 2  # bad float is an argparse error

    def test_metric_rw_valid(self):
        res = run_cli(
            "metric", "rw", "--a", "1", "--R", "0.70710678118654752",
            "--dR", "1", "--natural-units",
        )
        assert json.loads(res.stdout)["ds2"] == pytest.approx(-2.0, rel=1e-12)

    def test_transition_photon_fan_csv(self):
        res = run_cli("transition", "photons", "--k", "0.2", "--n", "5", "--natural-units")
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "lambda_dimensionless,speed_plus_m_per_s,speed_minus_m_per_s"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(0.2, rel=1e-12)

    def test_alter_doppler_from_velocity(self):
        res = run_cli("alter", "doppler", "--nu-s", "1e15", "--v", "0.6", "--natural-units")
        payload = json.loads(res.stdout)
        assert payload["gamma"] == 0.8
        assert payload["nu_m"] == 8e14

    def test_hubble_exponential(self):
        res = run_cli("hubble", "--model", "exponential", "--rate", "0.5", "--t", "2")
        payload = json.loads(res.stdout)
        assert payload["H"] == pytest.approx(0.5, rel=1e-12)
        assert payload["q"] == pytest.approx(-1.0, abs=1e-8)

    def test_metric_modified_single_point(self):
        res = run_cli(
            "metric", "modified", "--r0", "1", "--Lambda", "3e-6",
            "--lambda-unit", "m^-2", "--R", "2", "--natural-units",
        )
        payload = json.loads(res.stdout)
        assert payload["lambda"] == pytest.approx(0.5 - 1e-6 * 4, rel=1e-12)

    def test_metric_desitter(self):
        res = run_cli(
            "metric", "desitter", "--Lambda", "3e-6", "--lambda-unit", "m^-2",
            "--R", "100", "--natural-units",
        )
        payload = json.loads(res.stdout)
        assert payload["lambda"] == pytest.approx(1.0 - 1e-6 * 1e4, rel=1e-12)

    def test_radar_distance(self):
        res = run_cli(
            "radar-distance", "--r0", "1", "--R1", "2", "--R2", "4", "--natural-units"
        )
        payload = json.loads(res.stdout)
        assert payload["delta_t"] == pytest.approx(2 + math.log(3), rel=1e-12)

    def test_sim_roundtrip(self):
        res = run_cli(
            "sim", "roundtrip", "--omega", str(math.log(2)), "--t1", "1",
            "--natural-units",
        )
        payload = json.loads(res.stdout)
        assert payload["t3"] == pytest.approx(4.0, rel=1e-12)
        assert payload["geometric_mean_ok"] is True

    def test_sim_equilinear(self):
        res = run_cli(
            "sim", "equilinear", "--t1", "1", "--t2", "2", "--t3", "3",
            "--natural-units",
        )
        assert json.loads(res.stdout)["residual"] < 1e-12

    def test_sim_offset(self):
        res = run_cli(
            "sim", "offset", "--u", "1", "--omega", str(math.log(2)),
            "--dt-emit", "1", "--natural-units",
        )
        assert json.loads(res.stdout)["ratio"] == pytest.approx(2.0, rel=1e-12)

    def test_sim_counts_csv(self):
        res = run_cli(
            "sim", "counts", "--omega", str(math.log(2)), "--t1", "1",
            "--n-pulses", "2", "--L", "1", "--natural-units",
        )
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("pulse_index,tau1_ticks")

    def test_transition_photons(self):
        res = run_cli(
            "transition", "photons", "--k", "0.2", "--lam", "0.3", "--natural-units"
        )
        payload = json.loads(res.stdout)
        assert payload["speed_plus"] == pytest.approx(0.1, rel=1e-12)

    def test_transition_interval_branch(self):
        res = run_cli(
            "transition", "interval", "--lam", "-1", "--k", "0.1", "--dt", "1",
            "--dR", "0", "--natural-units",
        )
        payload = json.loads(res.stdout)
        assert payload["branch"] == "interior"
        assert payload["value"] == pytest.approx(-1.1, rel=1e-12)

    def test_alter_decay(self):
        res = run_cli("alter", "decay", "--tau-s", "2.2e-6", "--gamma", "0.8")
        assert json.loads(res.stdout)["tau_m"] == 2.75e-6

    def test_hubble(self):
        res = run_cli("hubble", "--model", "powerlaw", "--exponent", "0.6666666666666666", "--t", "2")
        payload = json.loads(res.stdout)
        assert payload["q"] == pytest.approx(0.5, abs=1e-8)

    def test_metric_minkowski(self):
        res = run_cli(
            "metric", "minkowski", "--dt", "2", "--dx", "1", "--natural-units"
        )
        assert json.loads(res.stdout)["ds2"] == 3.0

    def test_metric_linear(self):
        res = run_cli(
            "metric", "linear", "--v", "0.6", "--dt", "1", "--dr", "0",
            "--natural-units",
        )
        payload = json.loads(res.stdout)
        assert payload["lambda"] == pytest.approx(0.64, rel=1e-15)
        assert payload["ds2"] == pytest.approx(0.64, rel=1e-15)

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        res = run_cli(
            "compose", "--v1", "0.5", "--v2", "0.5", "--c", "1", "--out", str(out)
        )
        assert res.returncode == 0
        assert json.loads(out.read_text())["v3"] == 0.8


# The lightclock modules whose body has run: a submodule that is not yet used
# sits in sys.modules as a lazy placeholder, not as a plain module.
RAN = ("sorted(n for n, m in sys.modules.items()"
       " if n.startswith('lightclock.') and type(m) is types.ModuleType)")


def python_json(code):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestStartupImports:
    """The CLI runs without numpy or scipy: numpy serves only array input to
    the transition profiles, and scipy only the tests' oracles.  Neither
    ``import lightclock`` nor the CLI runs a submodule before a call uses it."""

    def test_import_cli(self):
        res = subprocess.run(
            [sys.executable, "-c",
             "import lightclock.cli, sys; "
             "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (0, "[]\n")

    def test_compose_call(self):
        # -X importtime lists every module the process imports on stderr
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "lightclock", "compose",
             "--v1", "0.5", "--v2", "0.5", "--c", "1"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"v3": 0.8}
        modules = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()]
        assert "lightclock.cli" in modules
        assert not [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]

    @pytest.mark.parametrize("module", ["lightclock", "lightclock.cli"])
    def test_import_runs_no_kernel_module(self, module):
        ran = python_json(f"import json, sys, types, {module}; print(json.dumps({RAN}))")
        assert ran == (["lightclock.cli"] if module == "lightclock.cli" else [])

    def test_compose_runs_only_velocity_space(self):
        ran = python_json(
            "import json, sys, types; from lightclock import cli; "
            "cli.main(['compose', '--v1', '0.5', '--v2', '0.5', '--c', '1']); "
            f"print(json.dumps({RAN}))"
        )
        assert ran == ["lightclock.cli", "lightclock.velocity_space"]

    def test_exports_resolve_to_their_modules(self):
        missing = python_json(
            "import importlib, json, lightclock; print(json.dumps(["
            "name for module, names in lightclock._EXPORTS.items() for name in names.split()"
            " if getattr(lightclock, name)"
            " is not getattr(importlib.import_module('lightclock.' + module), name)]))"
        )
        assert missing == []

    def test_star_import_and_submodule_attributes(self):
        names = python_json(
            "import json, lightclock; ns = {}; exec('from lightclock import *', ns); "
            "assert lightclock.velocity_space.compose_einstein(0.5, 0.5, 1.0) == 0.8; "
            "print(json.dumps(sorted(set(ns) - {'__builtins__'})))"
        )
        import lightclock

        assert names == sorted(lightclock.__all__)
        assert {"SPEED_OF_LIGHT", "LAMBDA_UNITS", "Dual", "roundtrip"} <= set(names)

    def test_lambda_units_declared_once(self):
        import lightclock
        from lightclock import alterations, cli, line_elements

        assert line_elements.LAMBDA_UNITS is lightclock.LAMBDA_UNITS
        assert alterations.LAMBDA_UNITS is lightclock.LAMBDA_UNITS
        assert cli._OTHER["lambda_unit"] is lightclock.LAMBDA_UNITS


# ---------------------------------------------------------------------------
# in-process: cli.main(argv) under capsys, no subprocess

from lightclock import cli


def _table_params():
    for command, (_, names, _, positional) in cli._COMMANDS.items():
        mode = [positional[1].split()[0]] if positional else []
        for name in names.split() + ["out", "c"]:
            yield command, mode, name


TABLE_PARAMS = list(_table_params())


def _flag_value(name):
    """A valid flag text for the parameter and the value it parses to."""
    kind = cli._OTHER.get(name, float)
    if isinstance(kind, tuple):
        return kind[-1], kind[-1]
    if kind is int:
        return "7", 7
    if kind is str:
        return "1:2:3", "1:2:3"
    return "1.5", 1.5


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParameterTable:
    def test_every_subcommand_is_in_the_table(self):
        assert len(cli._COMMANDS) == 13

    @pytest.mark.parametrize("command,mode,name", TABLE_PARAMS)
    def test_flag_parses(self, command, mode, name):
        text, value = _flag_value(name)
        flag = "--" + name.replace("_", "-")
        args = cli.build_parser().parse_args([command, *mode, flag, text])
        assert getattr(args, name) == value

    @pytest.mark.parametrize("command,mode,name", TABLE_PARAMS)
    def test_wrong_unit_tag_names_parameter(self, capsys, tmp_path, command, mode, name):
        cfg = write_config(tmp_path, {name: {"value": 1.0, "unit": "furlong"}})
        code, out, err = run_main(capsys, command, *mode, "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")
        assert repr(name) in err


class TestConfigAndOutputDefects:
    @pytest.mark.parametrize(
        "argv,payload,name",
        [
            (("transition", "H"), {"k": "abc"}, "k"),
            (("transition", "H"), {"k": True}, "k"),
            (("transition", "H"), {"n": 4.5}, "n"),
            (("radar",), {"t1": {"value": True, "unit": "s"}}, "t1"),
            (("radar",), {"t1": {"value": "1", "unit": "s"}}, "t1"),
            (("metric", "schwarzschild"), {"sweep_R": 5}, "sweep_R"),
            (("metric", "linear"), {"mode": "imaginary"}, "mode"),
            (("compose",), {"c": {"value": 0.0, "unit": "m/s"}}, "c"),
            (("compose",), {"v1": {"value": math.nan, "unit": "m/s"}}, "v1"),
            (("compose",), {"c": {"value": math.inf, "unit": "m/s"}}, "c"),
            (("transition", "H"), {"k": math.nan}, "k"),
            (("transition", "H"), {"x_max": -math.inf}, "x_max"),
        ],
    )
    def test_wrong_config_type_is_two(self, capsys, tmp_path, argv, payload, name):
        code, out, err = run_main(capsys, *argv, "--config", write_config(tmp_path, payload))
        assert (code, out) == (2, "")
        assert repr(name) in err

    @pytest.mark.parametrize("tol", ["abc", "-1", "nan"])
    def test_bad_tolerance_env_is_two(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("LIGHTCLOCK_TOL", tol)
        code, out, err = run_main(capsys, "radar", "--t1", "1", "--t2", "2", "--t3", "4", "--c", "1")
        assert (code, out) == (2, "")
        assert "LIGHTCLOCK_TOL" in err

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_bad_light_speed_is_two(self, capsys, c):
        code, out, err = run_main(capsys, "compose", "--v1", "0.1", "--v2", "0.1", "--c", c)
        assert (code, out) == (2, "")
        assert "'c'" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("compose", "--v1", "nan", "--v2", "0.1", "--c", "1"), "v1"),
            (("compose", "--v1", "0.1", "--v2=-inf", "--c", "1"), "v2"),
            (("radar", "--t1", "1", "--t2", "2", "--t3", "inf", "--c", "1"), "t3"),
            (("transition", "H", "--k", "NaN"), "k"),
            (("sim", "counts", "--omega", "1", "--t1", "1", "--L", "inf"), "L"),
        ],
    )
    def test_non_finite_flag_is_two(self, capsys, argv, name):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert repr(name) in err

    def test_non_finite_sweep_is_two(self, capsys):
        code, out, err = run_main(
            capsys, "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:inf:3",
            "--natural-units",
        )
        assert (code, out) == (2, "")
        assert "sweep" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("metric", "minkowski", "--dt", "1e200"),
            ("sim", "roundtrip", "--omega", "1000", "--t1", "1", "--c", "1"),
            ("sim", "counts", "--omega", "1", "--t1", "1", "--L", "1", "--n-pulses", "2000",
             "--natural-units"),
        ],
    )
    def test_overflow_is_one(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error:")

    def test_unknown_config_field_is_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "t_1": {"value": 1.0, "unit": "s"}, "t1": {"value": 1.0, "unit": "s"},
            "t2": {"value": 2.0, "unit": "s"}, "t3": {"value": 4.0, "unit": "s"},
        })
        code, out, err = run_main(capsys, "radar", "--config", cfg, "--c", "1")
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert "'t_1'" in err

    def test_other_subcommands_config_fields_are_ignored(self, capsys, tmp_path):
        # k belongs to transition; a config may be shared between subcommands
        cfg = write_config(tmp_path, {
            "k": 0.5, "t1": {"value": 1.0, "unit": "s"},
            "t2": {"value": 2.0, "unit": "s"}, "t3": {"value": 4.0, "unit": "s"},
        })
        code, out, _ = run_main(capsys, "radar", "--config", cfg, "--c", "1")
        assert code == 0
        assert json.loads(out)["t_E"] == 2.5

    def test_non_finite_sweep_row_is_one(self, capsys):
        code, out, err = run_main(
            capsys, "metric", "modified", "--r0", "1", "--Lambda", "1e300",
            "--lambda-unit", "m^-2", "--sweep-R", "1e5:1e6:2", "--natural-units",
        )
        assert (code, out) == (1, "")
        assert err.startswith("domain error:")
        assert "R = 100000.0" in err

    def test_csv_keeps_nan_gamma_past_horizon(self, capsys):
        code, out, _ = run_main(
            capsys, "metric", "desitter", "--Lambda", "3", "--lambda-unit", "m^-2",
            "--sweep-R", "0.5:1.5:3", "--natural-units",
        )
        assert code == 0
        assert out.splitlines()[-1] == "1.5,-1.25,1.25,nan"

    def test_plain_and_tagged_dimensionless_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"k": {"value": 0.5, "unit": "1"}, "n": 3})
        code, out, _ = run_main(capsys, "transition", "H", "--config", cfg)
        assert code == 0
        assert out.splitlines()[1].startswith("-2.5,")

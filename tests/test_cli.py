import contextlib
import json
import math
import os
from pathlib import Path

import pytest
from conftest import row_argv, run_main, run_python

from lightclock import LightClockSpec, cli, count_trace, einstein_from_count_diagram

FIXTURES = Path(__file__).parent / "fixtures"


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
        first = run_python("-m", "lightclock", *argv, text=False)
        second = run_python("-m", "lightclock", *argv, text=False)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout == (FIXTURES / golden).read_bytes()


class TestExitCodes:
    """The exit status of ``python -m lightclock``."""

    def test_success(self):
        res = run_python("-m", "lightclock", "compose", "--v1", "0.5", "--v2", "0.5", "--c", "1")
        assert res.returncode == 0

    def test_domain_error_is_one(self):
        res = run_python("-m", "lightclock", "radar", "--t1", "1", "--t2", "3", "--t3", "2",
                         "--c", "1")
        assert res.returncode == 1
        assert "domain error" in res.stderr

    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"t1": {"value": 1.0, "unit": "m"}}')
        res = run_python("-m", "lightclock", "radar", "--config", str(bad))
        assert res.returncode == 2
        assert "t1" in res.stderr

    def test_missing_parameter_names_field(self):
        res = run_python("-m", "lightclock", "compose", "--v1", "0.5", "--c", "1")
        assert res.returncode == 2
        assert "v2" in res.stderr

    def test_unknown_flag_is_two(self):
        assert run_python("-m", "lightclock", "radar", "--bogus", "1").returncode == 2


class TestOutputRoundTrip:
    def test_json_reparses_to_exact_float(self):
        _, out, _ = run_main("compose", "--v1", "0.3", "--v2", "0.4", "--c", "1")
        payload = json.loads(out)
        expected = (0.3 + 0.4) / (1.0 + 0.3 * 0.4)
        assert payload["v3"] == expected

    def test_csv_reparses_to_exact_float(self):
        _, out, _ = run_main(
            "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:4:3",
            "--natural-units",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "R_m,lambda_dimensionless,null_speed_m_per_s,gamma_dimensionless"
        row = lines[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[1]) == 1.0 - 1.0 / 2.0
        assert float(row[3]) == math.sqrt(0.5)

    def test_lf_line_endings(self):
        # the bytes on a process's stdout, where a text stream may translate "\n"
        res = run_python(
            "-m", "lightclock", "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:4:3",
            "--natural-units", text=False,
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
        _, out, _ = run_main("compose", "--config", str(cfg), "--v1", "0.5", "--v2", "0.5")
        assert json.loads(out)["v3"] == 0.8


class TestTransitionGrid:
    def test_junctions_present_exactly(self):
        _, out, _ = run_main("transition", "H", "--k", "1", "--x-min", "-5", "--x-max", "5",
                             "--n", "7")
        xs = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert "0.0" in xs
        assert "2.0" in xs


class TestTolerance:
    """The geometric-mean tolerance is the row parameter ``tol``, a flag or a
    config field."""

    def test_geometric_mean_tolerance_override(self, tmp_path):
        argv = ("radar", "--t1", "1", "--t2", "2.0001", "--t3", "4", "--c", "1")
        for loose in (("--tol", "1e-3"), ("--config", write_config(tmp_path, {"tol": 1e-3}))):
            code, out, _ = run_main(*argv, *loose)
            assert code == 0
            assert json.loads(out)["geometric_mean_ok"] is True
        code, out, _ = run_main(*argv)
        assert code == 0
        assert json.loads(out)["geometric_mean_ok"] is False


class TestNaturalUnits:
    def test_default_c_is_si(self):
        _, out, _ = run_main("alter", "total-doppler", "--nu-s", "1.0", "--v", "149896229")
        ratio = json.loads(out)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)

    def test_natural_units_flag(self):
        _, out, _ = run_main("alter", "total-doppler", "--nu-s", "1.0", "--v", "0.5",
                             "--natural-units")
        ratio = json.loads(out)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)

    def test_explicit_c_beats_natural_units(self):
        _, out, _ = run_main(
            "alter", "total-doppler", "--nu-s", "1.0", "--v", "1.0",
            "--natural-units", "--c", "2.0",
        )
        ratio = json.loads(out)["ratio"]
        assert ratio == pytest.approx(math.sqrt((1 - 0.5) / (1 + 0.5)), rel=1e-12)


class TestSubcommandSurface:
    def test_lorentz(self):
        _, out, _ = run_main("lorentz", "--t", "0", "--x", "1", "--v3", "0.6", "--c", "1")
        payload = json.loads(out)
        assert payload["t"] == -0.75
        assert payload["x"] == 1.25

    def test_triangle(self):
        _, out, _ = run_main("triangle", "--omega1", "0.5", "--omega2", "0.5", "--omega3", "1.0",
                             "--c", "1")
        payload = json.loads(out)
        assert payload["theta"] == pytest.approx(0.0, abs=1e-9)
        assert payload["phi"] == pytest.approx(math.pi, rel=1e-9)

    def test_dilation_reference(self):
        _, out, _ = run_main("dilation", "--rs-over-rp", "0.99999", "--rr-over-rp", "100000")
        assert json.loads(out)["ratio"] == pytest.approx(316.2262, abs=1e-3)

    def test_compare_frequency(self):
        _, out, _ = run_main("compare-frequency", "--g1-p", "0.25", "--g1-r", "1.0",
                             "--nu-r", "1e15")
        assert json.loads(out)["nu_p"] == 2e15

    def test_horizon(self):
        _, out, _ = run_main(
            "horizon", "--r0", "1", "--Lambda", "3e-6", "--lambda-unit", "m^-2",
            "--natural-units",
        )
        roots = json.loads(out)["roots"]
        assert len(roots) == 2

    def test_metric_rw(self):
        code, _, err = run_main(
            "metric", "rw", "--a", "1odd", "--natural-units",
        )
        assert code == 2  # a bad float is a config error naming its flag
        assert err == "config error: --a must be a number, got '1odd'\n"

    def test_metric_rw_valid(self):
        _, out, _ = run_main(
            "metric", "rw", "--a", "1", "--R", "0.70710678118654752",
            "--dR", "1", "--natural-units",
        )
        assert json.loads(out)["ds2"] == pytest.approx(-2.0, rel=1e-12)

    def test_transition_photon_fan_csv(self):
        _, out, _ = run_main("transition", "photons", "--k", "0.2", "--n", "5", "--natural-units")
        lines = out.strip().split("\n")
        assert lines[0] == "lambda_dimensionless,speed_plus_m_per_s,speed_minus_m_per_s"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(0.2, rel=1e-12)

    def test_alter_doppler_from_velocity(self):
        _, out, _ = run_main("alter", "doppler", "--nu-s", "1e15", "--v", "0.6",
                             "--natural-units")
        payload = json.loads(out)
        assert payload["gamma"] == 0.8
        assert payload["nu_m"] == 8e14

    def test_hubble_exponential(self):
        _, out, _ = run_main("hubble", "--model", "exponential", "--rate", "0.5", "--t", "2")
        payload = json.loads(out)
        assert payload["H"] == pytest.approx(0.5, rel=1e-12)
        assert payload["q"] == pytest.approx(-1.0, abs=1e-8)

    def test_metric_modified_single_point(self):
        _, out, _ = run_main(
            "metric", "modified", "--r0", "1", "--Lambda", "3e-6",
            "--lambda-unit", "m^-2", "--R", "2", "--natural-units",
        )
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(0.5 - 1e-6 * 4, rel=1e-12)

    def test_metric_desitter(self):
        _, out, _ = run_main(
            "metric", "desitter", "--Lambda", "3e-6", "--lambda-unit", "m^-2",
            "--R", "100", "--natural-units",
        )
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(1.0 - 1e-6 * 1e4, rel=1e-12)

    def test_radar_distance(self):
        _, out, _ = run_main(
            "radar-distance", "--r0", "1", "--R1", "2", "--R2", "4", "--natural-units"
        )
        payload = json.loads(out)
        assert payload["delta_t"] == pytest.approx(2 + math.log(3), rel=1e-12)

    def test_sim_roundtrip(self):
        _, out, _ = run_main(
            "sim", "roundtrip", "--omega", str(math.log(2)), "--t1", "1",
            "--natural-units",
        )
        payload = json.loads(out)
        assert payload["t3"] == pytest.approx(4.0, rel=1e-12)
        assert payload["geometric_mean_ok"] is True

    def test_sim_equilinear(self):
        _, out, _ = run_main(
            "sim", "equilinear", "--t1", "1", "--t2", "2", "--t3", "3",
            "--natural-units",
        )
        assert json.loads(out)["residual"] < 1e-12

    def test_sim_offset(self):
        _, out, _ = run_main(
            "sim", "offset", "--u", "1", "--omega", str(math.log(2)),
            "--dt-emit", "1", "--natural-units",
        )
        assert json.loads(out)["ratio"] == pytest.approx(2.0, rel=1e-12)

    def test_sim_counts_csv(self):
        _, out, _ = run_main(
            "sim", "counts", "--omega", str(math.log(2)), "--t1", "1",
            "--n-pulses", "2", "--L", "1", "--natural-units",
        )
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("pulse_index,tau1_ticks")

    def test_transition_photons(self):
        _, out, _ = run_main(
            "transition", "photons", "--k", "0.2", "--lam", "0.3", "--natural-units"
        )
        payload = json.loads(out)
        assert payload["speed_plus"] == pytest.approx(0.1, rel=1e-12)

    def test_transition_interval_branch(self):
        _, out, _ = run_main(
            "transition", "interval", "--lam", "-1", "--k", "0.1", "--dt", "1",
            "--dR", "0", "--natural-units",
        )
        payload = json.loads(out)
        assert payload["branch"] == "interior"
        assert payload["value"] == pytest.approx(-1.1, rel=1e-12)

    def test_alter_decay(self):
        _, out, _ = run_main("alter", "decay", "--tau-s", "2.2e-6", "--gamma", "0.8")
        assert json.loads(out)["tau_m"] == 2.75e-6

    def test_hubble(self):
        _, out, _ = run_main("hubble", "--model", "powerlaw", "--exponent", "0.6666666666666666",
                             "--t", "2")
        payload = json.loads(out)
        assert payload["q"] == pytest.approx(0.5, abs=1e-8)

    def test_metric_minkowski(self):
        _, out, _ = run_main(
            "metric", "minkowski", "--dt", "2", "--dx", "1", "--natural-units"
        )
        assert json.loads(out)["ds2"] == 3.0

    def test_metric_linear(self):
        _, out, _ = run_main(
            "metric", "linear", "--v", "0.6", "--dt", "1", "--dr", "0",
            "--natural-units",
        )
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(0.64, rel=1e-15)
        assert payload["ds2"] == pytest.approx(0.64, rel=1e-15)

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        code, _, _ = run_main(
            "compose", "--v1", "0.5", "--v2", "0.5", "--c", "1", "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["v3"] == 0.8


class TestCountDiagramThroughRadar:
    """The count diagram of two pulses is the radar record whose emission and
    return times are the pulses' emission gap and return gap, so README's
    `radar` calls print the diagram's measures."""

    @staticmethod
    def radar(t1, t2, t3):
        code, out, err = run_main("radar", "--t1", t1, "--t2", t2, "--t3", t3, "--c", "1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        return payload, (payload["t_E"], payload["r_E"], payload["v_E"])

    def test_criterion_2(self):
        # emission gap 80 - 20, return gap 140 - 60
        _, measures = self.radar("60", "69.2820323027551", "80")
        m = einstein_from_count_diagram(LightClockSpec(1.0, 1.0), (20, 40, 60), (80, 110, 140))
        assert measures == (m.t_E_counts, m.r_E_counts, m.v_E) == (70.0, 10.0, 1.0 / 7.0)

    def test_pulse_ladder(self):
        omega = 0.6931471805599453
        code, out, err = run_main("sim", "counts", "--omega", repr(omega), "--t1", "1",
                                  "--n-pulses", "2", "--L", "1", "--natural-units")
        assert (code, err) == (0, "")
        a, b = ([float(x) for x in line.split(",")] for line in out.splitlines()[1:])
        assert (b[1] - a[1], b[3] - a[3]) == (3.0, 12.0)  # the tau1 and tau3 gaps
        payload, measures = self.radar("3", "6", "12")
        spec = LightClockSpec(1.0, 1.0)
        rows = count_trace(spec, omega, 1.0, 2)
        m = einstein_from_count_diagram(spec, *((r.tau1, r.tau2, r.tau3) for r in rows))
        assert measures == (m.t_E_counts, m.r_E_counts, m.v_E) == (7.5, 4.5, 0.6)
        assert payload["omega"] == omega


# The lightclock modules whose body has run: a submodule that is not yet used
# sits in sys.modules as a lazy placeholder, not as a plain module.
RAN = ("sorted(n for n, m in sys.modules.items()"
       " if n.startswith('lightclock.') and type(m) is types.ModuleType)")


def python_json(code):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# argvs that print the argv reader's help or one of its refusals, whose bytes
# must not depend on what the reader read before
READER_ARGVS = [
    ["--help"], [], ["foo"], ["radar", "--help"], ["metric", "--help"],
    ["metric", "bogus", "--r0", "1"], ["compose", "--v1", "0.1", "--v2", "0.2", "--bad", "1"],
]


@pytest.fixture(scope="module")
def compose_importtime():
    """One compose call in a process; -X importtime lists on stderr every
    module the process imports."""
    return run_python("-X", "importtime", "-m", "lightclock", "compose",
                      "--v1", "0.5", "--v2", "0.5", "--c", "1")


class TestStartupImports:
    """The CLI runs without numpy or scipy: numpy serves only array input to
    the transition profiles, and scipy only the tests' oracles.  Neither
    ``import lightclock`` nor the CLI runs a submodule before a call uses it."""

    def test_import_cli(self):
        res = run_python(
            "-c",
            "import lightclock.cli, sys; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))",
        )
        assert (res.returncode, res.stdout) == (0, "[]\n")

    def test_compose_call(self, compose_importtime):
        res = compose_importtime
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"v3": 0.8}
        modules = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()]
        assert "lightclock.cli" in modules
        assert not [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]

    def test_no_module_loads_dataclasses(self):
        # the records are plain frozen classes: neither a compose call nor
        # every kernel module loads dataclasses, or inspect, which it imports
        src = str(Path(__file__).parent.parent / "src")
        check = "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        res = run_python(
            "-S", "-c",
            "import sys; from lightclock import cli; "
            "cli.main(['compose', '--v1', '0.1', '--v2', '0.2', '--c', '1']); "
            f"{check}; import lightclock; [getattr(lightclock, n) for n in lightclock.__all__]; "
            f"{check}",
            env={**os.environ, "PYTHONPATH": src},
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-2:] == ["[]", "[]"]

    def test_a_call_loads_neither_argparse_nor_gettext(self, compose_importtime):
        # the table reads the argv itself
        res = compose_importtime
        assert res.returncode == 0
        modules = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()]
        assert "lightclock.cli" in modules
        assert not {"argparse", "gettext"} & set(modules)

    @pytest.mark.parametrize("argv", READER_ARGVS, ids=lambda argv: " ".join(argv) or "bare")
    def test_output_does_not_depend_on_the_subparsers_built(self, monkeypatch, argv):
        # main builds a fresh reader per call; one that has read every other
        # argv first prints the same, and main returns the exit code itself
        fresh = run_main(*argv)
        reader = cli.build_parser()
        for other in READER_ARGVS:
            with contextlib.suppress(cli.ConfigError):
                reader.parse_args(other)
        monkeypatch.setattr(cli, "build_parser", lambda: reader)
        assert run_main(*argv) == fresh
        code, out, err = fresh
        if "--help" in argv:
            assert (code, err) == (0, "")
            assert out.startswith("usage: lightclock")
        else:
            assert (code, out) == (2, "")
            assert err.startswith("config error: ") and err.count("\n") == 1

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

    def test_radar_runs_only_radar(self):
        ran = python_json(
            "import json, sys, types; from lightclock import cli; "
            "cli.main(['radar', '--t1', '1', '--t2', '2', '--t3', '4', '--c', '1']); "
            f"print(json.dumps({RAN}))"
        )
        assert ran == ["lightclock.cli", "lightclock.radar"]

    @pytest.mark.parametrize(
        ("argv", "modules"),
        [
            (["metric", "modified", "--r0", "1", "--R", "2", "--Lambda", "1e-3", "--c", "1"],
             ["lightclock.cli", "lightclock.line_elements"]),
            (["alter", "doppler", "--nu-s", "1", "--gamma", "0.5"],
             ["lightclock.alterations", "lightclock.cli"]),
            (["alter", "doppler", "--nu-s", "1", "--v", "0.5", "--c", "1"],
             ["lightclock.alterations", "lightclock.cli", "lightclock.velocity_space"]),
            (["transition", "H"], ["lightclock.cli", "lightclock.transition"]),
            (["sim", "equilinear", "--t1", "1", "--t2", "2", "--t3", "4", "--c", "1"],
             ["lightclock.cli", "lightclock.medium"]),
            (["dilation", "--rs-over-rp", "0.1", "--rr-over-rp", "2"],
             ["lightclock.alterations", "lightclock.cli", "lightclock.line_elements"]),
        ],
        ids=["metric-modified", "alter-doppler", "alter-doppler-v", "transition-H",
             "sim-equilinear", "dilation"],
    )
    def test_a_call_runs_only_the_modules_it_uses(self, argv, modules):
        # line_elements reaches infinitesimals, alterations line_elements and
        # velocity_space, transition line_elements, and medium radar and
        # clocks only where a kernel uses them
        ran = python_json(
            f"import json, sys, types; from lightclock import cli; cli.main({argv!r}); "
            f"print(json.dumps({RAN}))"
        )
        assert ran == modules

    def test_medium_witness_runs_no_line_elements(self):
        # the witness bisects with the package's root finder, not line_elements',
        # and a witness reads no radar record or clock
        ran = python_json(
            "import json, sys, types; from lightclock import medium; "
            "sc = medium.PropagationScenario(lambda t: t, t1=1.0, a=1.0, b=2.0, c=1.0); "
            "medium.medium_velocity(sc, 1.0, 2.0); "
            f"print(json.dumps({RAN}))"
        )
        assert ran == ["lightclock.medium"]

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
        from lightclock import line_elements

        assert line_elements.LAMBDA_UNITS is lightclock.LAMBDA_UNITS
        assert cli._OTHER["lambda_unit"] is lightclock.LAMBDA_UNITS


# each subcommand's parameters in the order they had when one list served all
# its modes (the other subcommands' rows list them in that order), hubble's
# flag mode among them: the first case of each (command, parameter) keeps its
# place, and so its test id, and a parameter added since comes last
_ORDER_BEFORE_ROWS = {
    "radar": "t1 t2 t3",
    "metric": "dt dx dy dz dr dR dtheta dphi theta v d a R r r0 mass G Lambda mode"
              " lambda_unit sweep_R",
    "alter": "nu_s tau_s mass_s v gamma",
    "transition": "k lam x_min x_max lambda_min lambda_max dt dR n",
    "sim": "omega t1 t2 t3 L u dt_emit n_pulses",
    "hubble": "model t rate exponent rho G",
}


def _table_params():
    """Every (command, [mode], parameter) of the table's rows, and each flag
    mode as a parameter of its command: first each (command, parameter) once,
    with the first mode that reads it, then the pairs of the other modes, then
    the pairs of parameters added since.  The mode sits in a list, so a case's
    id counts cases (mode0, mode1, ...) and does not spell the mode."""
    rest, added = [], []
    for command, (_, dest, rows) in cli._COMMANDS.items():
        specs = {mode: cli._names(spec) + ["out", "c"] for mode, (spec, _) in rows.items()}
        order = _ORDER_BEFORE_ROWS.get(command, " ".join(cli._flags(rows))).split()
        order += ["out", "c"]
        for name in order:
            if dest == f"--{name}":  # the flag mode: a call gives it as a flag
                yield command, [None], name
                continue
            mode = next(mode for mode, names in specs.items() if name in names)
            yield command, [mode], name
            specs[mode].remove(name)
        for mode, names in specs.items():
            for name in names:
                (rest if name in order else added).append((command, [mode], name))
    yield from rest + added


TABLE_PARAMS = list(_table_params())


def _flag_value(command, name):
    """A valid flag text for the parameter and the value it parses to."""
    _, dest, rows = cli._COMMANDS[command]
    kind = tuple(rows) if dest == f"--{name}" else cli._OTHER.get(name, float)
    if isinstance(kind, tuple):
        return kind[-1], kind[-1]
    if kind is int:
        return "7", 7
    if kind is str:
        return "1:2:3", "1:2:3"
    return "1.5", 1.5


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParameterTable:
    def test_every_subcommand_is_in_the_table(self):
        assert len(cli._COMMANDS) == 13

    @pytest.mark.parametrize("command,mode,name", TABLE_PARAMS)
    def test_flag_parses(self, command, mode, name):
        text, value = _flag_value(command, name)
        flag = "--" + name.replace("_", "-")
        args = cli.build_parser().parse_args([*row_argv(command, *mode), flag, text])
        if flag == cli._COMMANDS[command][1]:  # the flag mode: it names the row
            assert args.row[0] == f"{command} {value}"
        else:
            assert getattr(args, name) == value

    @pytest.mark.parametrize("command,mode,name", TABLE_PARAMS)
    def test_wrong_unit_tag_names_parameter(self, tmp_path, command, mode, name):
        cfg = write_config(tmp_path, {name: {"value": 1.0, "unit": "furlong"}})
        code, out, err = run_main(*row_argv(command, *mode), "--config", cfg)
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
    def test_wrong_config_type_is_two(self, tmp_path, argv, payload, name):
        code, out, err = run_main(*argv, "--config", write_config(tmp_path, payload))
        assert (code, out) == (2, "")
        assert repr(name) in err

    @pytest.mark.parametrize("tol", ["abc", "nan"])
    def test_bad_tolerance_is_two(self, tmp_path, tol):
        argv = ["radar", "--t1", "1", "--t2", "2", "--t3", "4", "--c", "1"]
        code, out, err = run_main(*argv, "--tol", tol)
        assert (code, out) == (2, "")
        assert "tol" in err
        cfg = write_config(tmp_path, {"tol": tol if tol == "abc" else float(tol)})
        code, out, err = run_main(*argv, "--config", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert "'tol'" in err

    @pytest.mark.parametrize("label,flags", [("radar", "--t1 1 --t2 2 --t3 4"),
                                             ("sim roundtrip", "--t1 1 --omega 0.5")],
                             ids=["radar", "sim-roundtrip"])
    def test_negative_tolerance_is_one(self, label, flags):
        code, out, err = run_main(*label.split(), *flags.split(), "--tol", "-1")
        assert (code, out) == (1, "")
        assert err.startswith(f"domain error: {label}: tol must be non-negative, got -1.0")

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_bad_light_speed_is_two(self, c):
        code, out, err = run_main("compose", "--v1", "0.1", "--v2", "0.1", "--c", c)
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
    def test_non_finite_flag_is_two(self, argv, name):
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert repr(name) in err

    def test_non_finite_sweep_is_two(self):
        code, out, err = run_main(
            "metric", "schwarzschild", "--r0", "1", "--sweep-R", "2:inf:3",
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
    def test_overflow_is_one(self, argv):
        code, out, err = run_main(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error:")

    def test_unknown_config_field_is_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "t_1": {"value": 1.0, "unit": "s"}, "t1": {"value": 1.0, "unit": "s"},
            "t2": {"value": 2.0, "unit": "s"}, "t3": {"value": 4.0, "unit": "s"},
        })
        code, out, err = run_main("radar", "--config", cfg, "--c", "1")
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert "'t_1'" in err

    def test_an_untagged_float_is_two(self, tmp_path):
        cfg = write_config(tmp_path, {"t1": 1.0, "t2": {"value": 2.0, "unit": "s"},
                                      "t3": {"value": 4.0, "unit": "s"}})
        code, out, err = run_main("radar", "--config", cfg, "--c", "1")
        assert (code, out) == (2, "")
        assert err == ("config error: config field 't1' must carry a unit tag "
                       '({"value": ..., "unit": "s"})\n')

    def test_other_subcommands_config_fields_are_ignored(self, tmp_path):
        # k belongs to transition; a config may be shared between subcommands
        cfg = write_config(tmp_path, {
            "k": 0.5, "t1": {"value": 1.0, "unit": "s"},
            "t2": {"value": 2.0, "unit": "s"}, "t3": {"value": 4.0, "unit": "s"},
        })
        code, out, _ = run_main("radar", "--config", cfg, "--c", "1")
        assert code == 0
        assert json.loads(out)["t_E"] == 2.5

    def test_non_finite_sweep_row_is_one(self):
        code, out, err = run_main(
            "metric", "modified", "--r0", "1", "--Lambda", "1e300",
            "--lambda-unit", "m^-2", "--sweep-R", "1e5:1e6:2", "--natural-units",
        )
        assert (code, out) == (1, "")
        assert err.startswith("domain error:")
        assert "R = 100000.0" in err

    MODIFIED = ("metric", "modified", "--r0", "1", "--Lambda", "1e300", "--lambda-unit", "m^-2",
                "--c", "1")

    def test_a_non_finite_json_output_names_its_key(self):
        code, out, err = run_main(*self.MODIFIED, "--R", "1e10")
        assert (code, out) == (1, "")
        assert err.startswith(
            "domain error: metric modified: output 'lambda' is not finite: -inf (given ")

    def test_a_non_finite_csv_cell_names_its_column_and_row(self):
        code, out, err = run_main(*self.MODIFIED, "--sweep-R", "1:1e10:3")
        assert (code, out) == (1, "")
        assert err.startswith("domain error: metric modified: output 'lambda_dimensionless'"
                              " is not finite: -inf at R = 5000000000.5 (given ")

    LAMBDA_TAGS = [
        (("metric", "modified", "--c", "1"),
         {"r0": {"value": 1.0, "unit": "m"}, "R": {"value": 2.0, "unit": "m"},
          "Lambda": {"value": 0.01, "unit": "m^-2"}},
         {"lambda_unit": "cm^-2"},
         ("config field 'Lambda' gives 'm^-2'", "config field 'lambda_unit' gives 'cm^-2'")),
        (("dilation", "--rs-over-rp", "0.5", "--rr-over-rp", "4", "--rp", "2", "--c", "1"),
         {"Lambda": {"value": 1e-3, "unit": "m^-2"}},
         {"Lambda1": {"value": 1e-3, "unit": "cm^-2"}},
         ("config field 'Lambda' gives 'm^-2'", "config field 'Lambda1' gives 'cm^-2'")),
    ]

    @pytest.mark.parametrize("first", [0, 1], ids=["tag first", "tag last"])
    @pytest.mark.parametrize(("argv", "tagged", "other", "clash"), LAMBDA_TAGS,
                             ids=["metric lambda_unit", "dilation Lambda1"])
    def test_lambda_units_that_disagree_are_a_config_error_in_either_key_order(
            self, tmp_path, first, argv, tagged, other, clash):
        # each tag sets lambda_unit, so whichever key comes last, a second
        # unit for Lambda is refused rather than reinterpreting the first
        payload = {**tagged, **other} if first == 0 else {**other, **tagged}
        code, out, err = run_main(*argv, "--config", write_config(tmp_path, payload))
        assert (code, out) == (2, "")
        assert err.startswith("config error: the units of Lambda disagree: ")
        assert all(side in err for side in clash)

    def test_a_lambda_tag_that_disagrees_with_the_flag_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"Lambda": {"value": 0.01, "unit": "m^-2"}})
        code, out, err = run_main("metric", "modified", "--r0", "1", "--R", "2", "--c", "1",
                                  "--lambda-unit", "cm^-2", "--config", cfg)
        assert (code, out) == (2, "")
        assert err == ("config error: the units of Lambda disagree: config field 'Lambda' gives"
                       " 'm^-2', --lambda-unit gives 'cm^-2'\n")

    def test_agreeing_lambda_units_set_lambda_unit(self, tmp_path):
        argv = ("dilation", "--rs-over-rp", "0.5", "--rr-over-rp", "4", "--rp", "2", "--c", "1")
        flags = run_main(*argv, "--Lambda", "1e-3", "--Lambda1", "2e-3", "--lambda-unit", "m^-2")
        cfg = write_config(tmp_path, {"Lambda1": {"value": 2e-3, "unit": "m^-2"},
                                      "lambda_unit": "m^-2",
                                      "Lambda": {"value": 1e-3, "unit": "m^-2"}})
        assert flags == run_main(*argv, "--config", cfg) == run_main(
            *argv, "--config", cfg, "--lambda-unit", "m^-2")
        assert flags[:2] == (0, '{\n  "ratio": 1.2919433606233763\n}\n')
        # a lambda_unit field with no tag beside it is overridden by the flag, as any field is
        cfg = write_config(tmp_path, {"lambda_unit": "cm^-2"})
        assert run_main(*argv, "--config", cfg, "--Lambda", "1e-3", "--Lambda1", "2e-3",
                        "--lambda-unit", "m^-2") == flags

    def test_csv_keeps_nan_gamma_past_horizon(self):
        code, out, _ = run_main(
            "metric", "desitter", "--Lambda", "3", "--lambda-unit", "m^-2",
            "--sweep-R", "0.5:1.5:3", "--natural-units",
        )
        assert code == 0
        assert out.splitlines()[-1] == "1.5,-1.25,1.25,nan"

    def test_wide_transition_profile_is_finite(self):
        code, out, _ = run_main("transition", "H", "--k", "1e200", "--n", "3")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_numpy_scalars_print_as_floats(self, capsys):
        import numpy as np

        cli.emit_plot_data(("a", "b"), [(np.float64(0.1), np.float32(0.1))], None)
        assert capsys.readouterr().out == "a,b\n0.1,0.1\n"

    def test_plain_and_tagged_dimensionless_config(self, tmp_path):
        cfg = write_config(tmp_path, {"k": {"value": 0.5, "unit": "1"}, "n": 3})
        code, out, _ = run_main("transition", "H", "--config", cfg)
        assert code == 0
        assert out.splitlines()[1].startswith("-2.5,")


class TestInProcessOutput:
    """A call's exit code, its empty stderr and its whole stdout, every key
    and value, where TestSubcommandSurface reads one field of the same call."""

    def test_radar_distance(self):
        code, out, err = run_main("radar-distance", "--r0", "1", "--R1", "2", "--R2", "4",
                                  "--c", "1")
        assert (code, err) == (0, "")
        delta_t = ((4.0 - 2.0) + 1.0 * math.log((4.0 - 1.0) / (2.0 - 1.0))) / 1.0
        assert json.loads(out) == {"delta_t": delta_t, "c_delta_t": delta_t}

    def test_sim_equilinear(self):
        code, out, err = run_main("sim", "equilinear", "--t1", "1", "--t2", "2",
                                  "--t3", "4", "--c", "1")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert list(result) == ["residual", "w1", "w2", "w3"]
        for key, want in (("w1", math.log(2.0)), ("w2", math.log(2.0)), ("w3", math.log(4.0))):
            assert result[key] == pytest.approx(want, rel=1e-15)
        assert result["residual"] <= 1e-15

    def test_sim_equilinear_empty_interval(self):
        # w1 spans [2, 2]; w2 and w3 are the same integral over [2, 4]
        code, out, err = run_main("sim", "equilinear", "--t1", "2", "--t2", "2",
                                  "--t3", "4", "--c", "1")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert (result["w1"], result["residual"]) == (0.0, 0.0)
        assert result["w2"] == result["w3"] == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize(
        ("argv", "key", "value"),
        [
            ("metric schwarzschild --r0 1 --R 1e200 --dt 1 --c 1", "ds2", 1.0),
            ("metric rw --a 1e300 --R 1e160 --dt 1 --c 1", "ds2", 1.0),
            ("lorentz --t 1e200 --x 1e200 --v3 0.5 --c 1", "interval_before", 0.0),
            ("lorentz --t 1e200 --x 1e200 --v3 0.5 --c 1", "interval_after", 0.0),
            ("metric minkowski --dt 1e200 --dx 1e200 --c 1", "ds2", 0.0),
        ],
    )
    def test_an_interval_whose_squares_overflow(self, argv, key, value):
        # R² past the float range with no angular motion, and an event on the
        # light cone, whose rounded squares would give inf − inf
        code, out, err = run_main(*argv.split())
        assert (code, err) == (0, "")
        assert json.loads(out)[key] == value


class TestEachValueReadOnce:
    """A flag's text and a config's JSON value go through one conversion, and
    a flag merged over the config leaves the config's value, and its Λ tag,
    unread."""

    def test_a_flag_over_a_tagged_lambda_drops_its_tag(self, tmp_path):
        argv = ("metric", "modified", "--r0", "1", "--R", "2", "--c", "1", "--Lambda", "0.01")
        cfg = write_config(tmp_path, {"Lambda": {"value": 1.0, "unit": "cm^-2"}})
        alone = run_main(*argv)
        assert run_main(*argv, "--config", cfg) == alone
        assert json.loads(alone[1])["lambda"] == 0.4866666666666667

    # the output, and the (given ...) of a domain error
    @pytest.mark.parametrize(("nu_s", "stream", "shown"),
                             [("2", 1, '"gamma": 1.0'), ("-2", 2, " gamma=1.0 ")],
                             ids=["output", "given"])
    def test_a_json_integer_reads_as_a_float(self, tmp_path, nu_s, stream, shown):
        cfg = write_config(tmp_path, {"gamma": 1})
        flag = run_main("alter", "doppler", "--nu-s", nu_s, "--gamma", "1")
        assert run_main("alter", "doppler", "--nu-s", nu_s, "--config", cfg) == flag
        assert shown in flag[stream]

    def test_a_json_integer_past_the_float_range_is_two_naming_it(self, tmp_path):
        cfg = write_config(tmp_path, {"k": 10**400})
        code, out, err = run_main("transition", "H", "--config", cfg)
        assert (code, out) == (2, "")
        assert err == "config error: config field 'k' is too large for a float\n"

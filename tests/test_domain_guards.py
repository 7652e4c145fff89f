"""Inputs refused where they enter: a source whose Schwarzschild radius
overflows, and a ``hubble`` model given a parameter it cannot use."""

import json

import pytest
from conftest import run_main

from lightclock import source_from_mass


class TestOverflowingSchwarzschildRadius:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: source_from_mass(1e300, G=1e300, c=1.0),
            # the mass and G are finite, but c² is small enough for 2GM/c² to overflow
            lambda: source_from_mass(1.0, G=1.0, c=1e-160),
        ],
    )
    def test_refused_when_built(self, build):
        with pytest.raises(ValueError, match=r"Schwarzschild radius .* mass .* G = "):
            build()

    @pytest.mark.parametrize(
        "argv,given",
        [
            (("--mass", "1e300", "--G", "1e300"), "mass=1e+300 G=1e+300"),
            (("--mass", "1e300", "--G", "1e10"), "mass=1e+300 G=10000000000.0"),
        ],
    )
    def test_cli_names_the_cause(self, argv, given):
        code, out, err = run_main("metric", "schwarzschild", *argv, "--R", "2", "--c", "1")
        assert (code, out) == (1, "")
        assert err.startswith("domain error: metric schwarzschild: the Schwarzschild radius")
        assert "is not finite" in err and given in err
        assert "r0=inf" not in err


class TestHubbleLinear:
    def test_scale_is_t(self):
        # a = rate·t gives H = 1/t whatever the rate, so the model reads none;
        # a'' = 0 exactly, so q is 0.0 (not -0.0)
        code, out, err = run_main("hubble", "--model", "linear", "--t", "2")
        assert (code, err) == (0, "")
        assert out == '{\n  "H": 0.5,\n  "q": 0.0\n}\n'

    def test_rate_is_a_config_error(self, tmp_path):
        code, out, err = run_main("hubble", "--model", "linear", "--t", "2", "--rate", "5")
        assert (code, out) == (2, "")
        assert err == "config error: hubble linear does not read 'rate'; it reads t rho G\n"
        # the exponential model reads rate, so a config's rate is ignored, as
        # any field of another mode is: a config may be shared
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rate": {"value": 5.0, "unit": "1/s"}}')
        code, out, err = run_main("hubble", "--model", "linear", "--t", "2",
                                  "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out == '{\n  "H": 0.5,\n  "q": 0.0\n}\n'


class TestConfigBeforeKernel:
    """A handler reads every parameter before it runs a kernel, so a config
    error exits 2 and names its parameter even when another value given is
    out of a kernel's domain."""

    @pytest.mark.parametrize(
        "argv,tol,named",
        [
            ("metric schwarzschild --mass 2.45e300 --G 1e300 --sweep-R 14.86:39.49:26:lin", None,
             "'sweep_R'"),
            ("metric schwarzschild --mass 1e300 --G 1e300 --c 1", None, "R or sweep_R"),
            ("metric approx --mass 1e300 --G 1e300 --c 1", None, "'r'"),
            ("radar-distance --mass 1e300 --G 1e300 --c 1", None, "'R1'"),
            ("sim counts --L -1 --c 1", None, "'omega'"),
            ("alter doppler --v 2 --c 1", None, "'nu_s'"),
            ("radar --t1 -1 --t2 1 --t3 2 --c 1", "x", "'tol'"),
            ("sim roundtrip --t1 1 --omega -1 --c 1", "x", "'tol'"),
        ],
    )
    def test_exits_two_naming_the_parameter(self, tmp_path, argv, tol, named):
        config = []
        if tol is not None:  # a tolerance that is not a number, from a config
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"tol": tol}))
            config = ["--config", str(cfg)]
        code, out, err = run_main(*argv.split(), *config)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and named in err

"""Inputs refused where they enter: a source whose Schwarzschild radius
overflows, and a ``hubble`` model given a parameter it cannot use."""

import pytest

from lightclock import GravitySource, cli, source_from_r0


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestOverflowingSchwarzschildRadius:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: GravitySource(mass_M=1e300, G=1e300, c=1.0),
            # r0 = 1 is finite, but the mass r0·c²/(2G) it implies is not
            lambda: source_from_r0(1.0, c=1.0, G=1e-320),
        ],
    )
    def test_refused_when_built(self, build):
        with pytest.raises(ValueError, match=r"Schwarzschild radius .* mass .* G = "):
            build()

    @pytest.mark.parametrize(
        "argv,given",
        [
            (("--mass", "1e300", "--G", "1e300"), "mass=1e+300 G=1e+300"),
            (("--r0", "1", "--G", "1e-320"), "r0=1.0 G=1e-320"),
        ],
    )
    def test_cli_names_the_cause(self, capsys, argv, given):
        code, out, err = run_main(capsys, "metric", "schwarzschild", *argv, "--R", "2", "--c", "1")
        assert (code, out) == (1, "")
        assert err.startswith("domain error: metric schwarzschild: the Schwarzschild radius")
        assert "is not finite" in err and given in err
        assert "r0=inf" not in err


class TestHubbleLinear:
    def test_scale_is_t(self, capsys):
        # a = rate·t gives H = 1/t whatever the rate, so the model reads none
        code, out, err = run_main(capsys, "hubble", "--model", "linear", "--t", "2")
        assert (code, err) == (0, "")
        assert out == '{\n  "H": 0.5,\n  "q": -2.6755486715046572e-11\n}\n'

    def test_rate_is_a_config_error(self, capsys, tmp_path):
        code, out, err = run_main(capsys, "hubble", "--model", "linear", "--t", "2", "--rate", "5")
        assert (code, out) == (2, "")
        assert err == "config error: hubble --model linear does not read 'rate'\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rate": {"value": 5.0, "unit": "1/s"}}')
        code, out, err = run_main(capsys, "hubble", "--model", "linear", "--t", "2",
                                  "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "'rate'" in err

"""Inputs refused where they enter: a source whose Schwarzschild radius
overflows, a radius of 0, a kernel's argument outside its domain, a count
past the CLI's limit, and a ``hubble`` model given a parameter it cannot use."""

import json
import math

import pytest
from conftest import run_main

from lightclock import (
    GravCompareInput,
    LambdaFactor,
    LightClockSpec,
    MetricPoint,
    PropagationScenario,
    RadarRecord,
    beta_gamma,
    compose_einstein,
    cosmological_constant_for_horizon,
    count_trace,
    counts_for_length,
    damping_factor,
    decay_lifetime,
    einstein_measures,
    frequency_compare,
    gamma_gravitational,
    gamma_special,
    gravitational_clock_compare,
    horizon_roots,
    infinitely_close,
    linear_interval,
    mass_alteration,
    medium_velocity,
    middle_branch,
    modified_schwarzschild_lambda,
    newtonian_first_approx,
    parallel_photon_offset,
    partial_interval,
    photon_families,
    potential_velocity,
    radar_coordinate_time,
    rapidity_from_vE,
    rate_of_change_compare,
    record_from_rapidity,
    robertson_walker_interval,
    schwarzschild_lambda,
    separated_operator_check,
    solve_triangle,
    source_from_mass,
    source_from_r0,
    total_doppler,
    transformed_radial_interval,
    transition_profile,
    transition_profile_prime,
    transverse_doppler,
)


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


class TestZeroRadius:
    """A radius of 0 is refused by name, not by a bare division by zero."""

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_first_approximation_refuses_it(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            newtonian_first_approx(source_from_r0(1.0, 1.0), r, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("radii", [(0.0, 2.0), (2.0, 0.0), (0.0, 0.0)])
    def test_clock_comparison_refuses_it(self, radii):
        with pytest.raises(ValueError, match="both radii must lie above 0"):
            GravCompareInput(0.0, *radii)

    @pytest.mark.parametrize(
        "argv,named",
        [
            (("metric", "approx", "--r", "0", "--r0", "1", "--c", "1"), ": r must be positive"),
            (("dilation", "--rs-over-rp", "0.5", "--rr-over-rp", "4", "--rp", "0"),
             ": both radii must lie above 0"),
        ],
    )
    def test_cli_is_one_naming_the_radius(self, argv, named):
        code, out, err = run_main(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error: ") and named in err
        assert "division by zero" not in err


SCENARIO = PropagationScenario(lambda t: 1.0, t1=1.0, a=1.0, b=2.0, c=1.0)
SRC = source_from_r0(1.0, 1.0)


class TestKernelDomains:
    """A kernel refuses an argument outside its domain with a ValueError
    that states the domain."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: counts_for_length(LightClockSpec(1.0), -1.0), "length must be non-negative"),
            (lambda: horizon_roots(source_from_r0(1.0, 1.0, Lambda=-1e-3)),
             "horizon scan requires Lambda >= 0"),
            (lambda: linear_interval(LambdaFactor(v=1.0, c=1.0), 1.0, 1.0, 1.0),
             "singular surface: lambda vanishes"),
            (lambda: potential_velocity(source_from_r0(1.0, 1.0), 0.0), "R must be positive"),
            (lambda: cosmological_constant_for_horizon(1.0, -1.0), "R must be positive"),
            (lambda: damping_factor(0.0, source_from_r0(1.0, 1.0)), "R must be positive"),
            (lambda: middle_branch(1.0, 0.0), "k must be positive"),
            (lambda: transition_profile(1.0, -1.0), "k must be positive"),
            (lambda: medium_velocity(SCENARIO, 1.5, 1.5), r"need a <= t_start < t_end <= b"),
            (lambda: medium_velocity(SCENARIO, 1.0, 3.0), r"need a <= t_start < t_end <= b"),
            (lambda: gravitational_clock_compare(GravCompareInput(0.5, 1.0, math.inf, 0.0, 1e-3)),
             "infinite radius needs Lambda = 0 on that side"),
            (lambda: gravitational_clock_compare(GravCompareInput(0.5, 1.0, 2.0, 3.0)),
             "comparison factors must be positive outside r_s"),
            (lambda: separated_operator_check(lambda t: -1.0, 0.5, 1.0),
             "test function must be positive near the probe point"),
            (lambda: count_trace(LightClockSpec(1.0), 0.1, math.nan, 3),
             "invalid medium time: t1 must be positive"),
            (lambda: count_trace(LightClockSpec(1.0), 0.1, math.inf, 3),
             "invalid medium time: t1 must be finite, got inf"),
            (lambda: count_trace(LightClockSpec(1.0), math.nan, 1.0, 3), "omega is not finite: nan"),
            # a NaN fails every comparison, so each guard is written in the form it cannot pass
            (lambda: middle_branch(0.1, math.nan), "k must be positive"),
            (lambda: transition_profile(0.5, math.nan), "k must be positive"),
            (lambda: transition_profile_prime(0.5, math.nan), "k must be positive"),
            (lambda: partial_interval(0.5, math.nan, 1.0, 1.0, 1.0), "k must be positive"),
            (lambda: photon_families(0.5, math.nan, 1.0), "k must be positive"),
            (lambda: potential_velocity(SRC, math.nan), "R must be positive"),
            (lambda: modified_schwarzschild_lambda(SRC, math.nan), "R must be positive"),
            (lambda: cosmological_constant_for_horizon(1.0, math.nan), "R must be positive"),
            (lambda: damping_factor(math.nan, SRC), "R must be positive"),
            (lambda: transformed_radial_interval(SRC, MetricPoint(math.nan)),
             "R must be positive"),
            (lambda: transverse_doppler(math.nan, 0.5), "frequency must be positive"),
            (lambda: total_doppler(math.nan, 0.5, 1.0), "frequency must be positive"),
            (lambda: frequency_compare(0.9, 0.8, math.nan), "frequency must be positive"),
            (lambda: decay_lifetime(math.nan, 0.5), "lifetime must be positive"),
            (lambda: mass_alteration(math.nan, 0.5), "mass must be positive"),
            (lambda: parallel_photon_offset(1, 0.1, 1, math.nan), "emission gap must be positive"),
            (lambda: infinitely_close(1.0, 1.0, math.nan), "tolerance must be positive"),
            (lambda: schwarzschild_lambda(SRC, math.nan),
             "R=nan is at or inside the Schwarzschild radius r0=1.0; "
             "use the transition module for the interior"),
            (lambda: gamma_gravitational(SRC, math.nan),
             "R must lie outside the Schwarzschild radius"),
            (lambda: radar_coordinate_time(SRC, 2.0, math.nan, 1.0),
             "both radii must lie outside the Schwarzschild radius"),
            (lambda: counts_for_length(LightClockSpec(1.0), math.nan),
             "length must be non-negative"),
            # a medium velocity is unsigned wherever e^{omega/c} is computed
            (lambda: count_trace(LightClockSpec(1.0, 1.0), -1.0, 1.0, 2),
             "medium velocity must be non-negative"),
            (lambda: parallel_photon_offset(1, -1, 1, 1), "medium velocity must be non-negative"),
            (lambda: frequency_compare(0.9, 0.8, -1.0), "frequency must be positive"),
            # and c is refused where e^{omega/c} is computed, ahead of any use of it
            (lambda: parallel_photon_offset(1.0, 1.0, -1.0, 1.0), "c must be positive"),
            (lambda: parallel_photon_offset(1.0, 1.0, 0.0, 1.0), "c must be positive"),
            (lambda: record_from_rapidity(1.0, -1.0, 1.0), "c must be positive"),
            (lambda: parallel_photon_offset(1.0, 1.0, math.nan, 1.0), "c must be positive"),
            # and by the radar kernels that divide by c
            (lambda: einstein_measures(RadarRecord(1, 2, 4), -1.0), "c must be positive"),
            (lambda: einstein_measures(RadarRecord(1, 2, 4), 0.0), "c must be positive"),
            (lambda: einstein_measures(RadarRecord(1, 2, 4), math.nan), "c must be positive"),
            (lambda: rapidity_from_vE(0.5, math.nan), "c must be positive"),
            (lambda: rapidity_from_vE(0.5, -1.0), "c must be positive"),
            # a NaN speed or c is never below c, so it is refused as superluminal
            (lambda: beta_gamma(0.5, math.nan), "superluminal"),
            (lambda: gamma_special(math.nan, 1.0), "superluminal"),
            (lambda: compose_einstein(math.nan, 0.5, 1.0), "superluminal"),
            (lambda: compose_einstein(0.5, 0.5, math.nan), "superluminal"),
            (lambda: rapidity_from_vE(math.nan, 1.0), "superluminal Einstein velocity"),
            # an infinite c, which would give K = NaN, is refused by the positive guard
            (lambda: einstein_measures(RadarRecord(1, 2, 4), math.inf), "c must be finite, got inf"),
            # a NaN speed is refused by the non-negative guard, an infinite c by the positive one
            (lambda: solve_triangle(math.nan, 1.0, 1.0, 1.0), "medium velocities must be non-negative"),
            (lambda: rapidity_from_vE(0.5, math.inf), "c must be finite, got inf"),
            # c is refused by name before a kernel divides by it or by its square
            (lambda: solve_triangle(1.0, 1.0, 1.0, 0.0), "c must be positive"),
            (lambda: solve_triangle(1.0, 1.0, 1.0, -1.0), "c must be positive"),
            (lambda: radar_coordinate_time(SRC, 2.0, 3.0, 0.0), "c must be positive"),
            (lambda: radar_coordinate_time(SRC, 2.0, 3.0, -1.0), "c must be positive"),
            (lambda: robertson_walker_interval(1.0, MetricPoint(0.5, dt=1.0), 0.0),
             "c must be positive"),
            (lambda: robertson_walker_interval(1.0, MetricPoint(0.5, dt=1.0), -1.0),
             "c must be positive"),
            (lambda: source_from_r0(1.0, -0.0), "c must have a square that is not 0, got -0.0"),
            (lambda: source_from_mass(1.0, c=1e-300),
             "c must have a square that is not 0, got 1e-300"),
            # a span whose t_end/t_start overflows has no finite ln(t_end/t_start)
            (lambda: medium_velocity(PropagationScenario(lambda t: math.log(t) + 700.0, 1e-300,
                                                         1e-300, 1e300, 1.0), 1e-300, 1e300),
             r"t_end/t_start overflows: t_start = 1e-300, t_end = 1e\+300"),
            # a NaN t1 is refused by the positive guard, ahead of the ordering check
            (lambda: RadarRecord(math.nan, 1.0, 2.0), "invalid medium time: t1 must be positive"),
            # a range guard takes finite numbers only: +inf is refused by name
            (lambda: potential_velocity(SRC, math.inf), "R must be finite, got inf"),
            (lambda: counts_for_length(LightClockSpec(1.0), math.inf),
             "length must be finite, got inf"),
            (lambda: record_from_rapidity(1.0, math.inf, 1.0), "c must be finite, got inf"),
            (lambda: count_trace(LightClockSpec(1.0, math.inf), 0.1, 1.0, 2),
             "light_speed_c must be finite, got inf"),
            # a clock's tick L/c must neither underflow to 0 nor overflow
            (lambda: LightClockSpec(5e-324),
             "tick L/c must be positive and finite, got L = 5e-324, c = 299792458.0"),
            (lambda: LightClockSpec(1.0, 5e-324),
             "tick L/c must be positive and finite, got L = 1.0, c = 5e-324"),
            (lambda: LightClockSpec(1e-300, 1e300),
             r"tick L/c must be positive and finite, got L = 1e-300, c = 1e\+300"),
            (lambda: count_trace(LightClockSpec(5e-324), 0.1, 1.0, 2),
             "tick L/c must be positive and finite, got L = 5e-324, c = 299792458.0"),
            (lambda: counts_for_length(LightClockSpec(5e-324), 1.0),
             "tick L/c must be positive and finite, got L = 5e-324, c = 299792458.0"),
            # a finite length over a finite L can still overflow the count
            (lambda: counts_for_length(LightClockSpec(1e-300, 1.0), 1e10),
             "length/L overflows: length = 10000000000.0, L = 1e-300"),
            # c is a positive guard's in photon_families too, and R's square must not underflow
            (lambda: photon_families(0.5, 1.0, math.inf), "c must be finite, got inf"),
            (lambda: photon_families(0.5, 1.0, -1.0), "c must be positive"),
            (lambda: cosmological_constant_for_horizon(1.0, 5e-324),
             "R must have a square that is not 0, got 5e-324"),
            (lambda: cosmological_constant_for_horizon(1.0, 1e-300),
             "R must have a square that is not 0, got 1e-300"),
        ],
        ids=["counts_for_length", "horizon_roots", "linear_interval", "potential_velocity",
             "cosmological_constant_for_horizon", "damping_factor", "middle_branch",
             "transition_profile", "medium_velocity-empty", "medium_velocity-past-b",
             "GravCompareInput.g1", "gravitational_clock_compare", "separated_operator_check",
             "count_trace-t1-nan", "count_trace-t1-inf", "count_trace-omega-nan",
             "middle_branch-k-nan", "transition_profile-k-nan", "transition_profile_prime-k-nan",
             "partial_interval-k-nan", "photon_families-k-nan", "potential_velocity-R-nan",
             "modified_schwarzschild_lambda-R-nan", "cosmological_constant_for_horizon-R-nan",
             "damping_factor-R-nan", "transformed_radial_interval-R-nan",
             "transverse_doppler-nu-nan", "total_doppler-nu-nan", "frequency_compare-nu-nan",
             "decay_lifetime-tau-nan", "mass_alteration-M-nan", "parallel_photon_offset-gap-nan",
             "infinitely_close-tol-nan", "schwarzschild_lambda-R-nan",
             "gamma_gravitational-R-nan", "radar_coordinate_time-R2-nan",
             "counts_for_length-nan", "count_trace-omega-negative",
             "parallel_photon_offset-omega-negative", "frequency_compare-nu-negative",
             "parallel_photon_offset-c-negative", "parallel_photon_offset-c-zero",
             "record_from_rapidity-c-negative", "parallel_photon_offset-c-nan",
             "einstein_measures-c-negative", "einstein_measures-c-zero", "einstein_measures-c-nan",
             "rapidity_from_vE-c-nan", "rapidity_from_vE-c-negative", "beta_gamma-c-nan",
             "gamma_special-v-nan", "compose_einstein-v1-nan", "compose_einstein-c-nan",
             "rapidity_from_vE-vE-nan", "einstein_measures-c-inf", "solve_triangle-omega1-nan",
             "rapidity_from_vE-c-inf", "solve_triangle-c-zero", "solve_triangle-c-negative",
             "radar_coordinate_time-c-zero", "radar_coordinate_time-c-negative",
             "robertson_walker_interval-c-zero", "robertson_walker_interval-c-negative",
             "source_from_r0-c-squared-zero", "source_from_mass-c-squared-zero",
             "medium_velocity-span-overflows", "RadarRecord-t1-nan", "potential_velocity-R-inf",
             "counts_for_length-inf", "record_from_rapidity-c-inf", "count_trace-c-inf",
             "LightClockSpec-tick-zero", "LightClockSpec-tick-inf",
             "LightClockSpec-tick-underflows", "count_trace-tick-zero",
             "counts_for_length-tick-zero", "counts_for_length-overflows",
             "photon_families-c-inf", "photon_families-c-negative",
             "cosmological_constant_for_horizon-R-squared-zero",
             "cosmological_constant_for_horizon-R-squared-underflows"],
    )
    def test_refused_naming_the_domain(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_cli_names_a_tick_that_underflows(self):
        code, out, err = run_main("sim", "counts", "--omega", "1", "--t1", "1", "--L", "1e-300",
                                  "--c", "1e300")
        assert (code, out) == (1, "")
        assert err.startswith("domain error: sim counts: tick L/c must be positive and finite, "
                              "got L = 1e-300, c = 1e+300")

    def test_a_rate_of_change_may_be_negative(self):
        # the frequency law refuses nu_R <= 0; the rate law that shares its form does not
        assert rate_of_change_compare(0.9, 0.8, -2.0) == -2.1213203435596424


class TestCountLimit:
    """A count allocates its rows, so a CLI count past 1,000,000 exits 2
    naming its parameter instead of exhausting memory, as does one below
    its least."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            ("transition H --n 1000001", "n"),
            ("transition H --n 100000000000000000000", "n"),
            ("transition photons --n 1000001", "n"),
            ("metric schwarzschild --r0 1 --sweep-R 2:3:1000001", "sweep_R"),
            ("metric desitter --sweep-R 1:2:1000001:log", "sweep_R"),
            ("sim counts --omega 1 --t1 1 --L 1 --n-pulses 1000001 --natural-units", "n_pulses"),
            # a pulse ladder needs one pulse, as a sweep needs two points
            ("sim counts --omega 1 --t1 1 --L 1 --n-pulses 0 --natural-units", "n_pulses"),
            ("sim counts --omega 1 --t1 1 --L 1 --n-pulses -5 --natural-units", "n_pulses"),
        ],
    )
    def test_is_two_naming_the_count(self, argv, name):
        code, out, err = run_main(*argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and f"{name!r}" in err and "1000000" in err

    def test_a_config_count_is_held_to_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000001}))
        code, out, err = run_main("transition", "H", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "config error: 'n' must count from 2 to 1000000 points, got 1000001\n"

    def test_the_limit_itself_is_allowed(self):
        # a million pulses pass the limit, and the trace stops at its first overflow
        code, out, err = run_main("sim", "counts", "--omega", "1", "--t1", "1", "--L", "1",
                                  "--n-pulses", "1000000", "--natural-units")
        assert (code, out) == (1, "")
        assert "pulse 355 overflows" in err


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

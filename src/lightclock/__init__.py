"""Deterministic light-clock kinematics engine.

Radar (Einstein) measures, hyperbolic velocity-space relations and the
Lorentz transformation, potential-velocity line elements of the
Schwarzschild/Robertson-Walker family, physical-alteration ratios, the
hypersmooth transition-zone transformation, and a medium-propagation
integrator.

Submodules load on first use: ``import lightclock`` registers each one in
``sys.modules`` without running it, and a name below is looked up in its
module when it is first read.
"""

import importlib.util
import sys

__version__ = "0.1.0"

SPEED_OF_LIGHT = 299792458.0  # m/s
GRAVITATIONAL_CONSTANT = 6.6743e-11  # m^3 kg^-1 s^-2

#: supported unit tags for the cosmological constant
LAMBDA_UNITS = ("s^-2", "m^-2", "cm^-2")


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n points as numpy.linspace computes them: start + i·step, then stop."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


# the names each submodule exports at package level
_EXPORTS = {
    "infinitesimals": "Dual derivative dual_arith infinitely_close standard_part",
    "clocks": "CountDiagramMeasures CountPair EinsteinMeasures LightClockSpec"
              " counts_for_length distance_from_counts einstein_from_count_diagram"
              " time_from_counts",
    "radar": "RadarRecord Rapidity check_geometric_mean einstein_measures"
             " rapidity_from_vE record_from_rapidity",
    "velocity_space": "BetaGamma Event4 TriangleEinstein VelocityTriangle beta_gamma"
                      " compose_einstein interval lorentz_transform solve_triangle"
                      " triangle_to_einstein",
    "line_elements": "ExpansionRates GravitySource LambdaFactor MetricPoint"
                     " cosmological_constant_for_horizon horizon_roots hubble_deceleration"
                     " infinitesimal_transform linear_interval minkowski_interval"
                     " modified_schwarzschild_lambda newtonian_first_approx null_radial_speed"
                     " potential_velocity radar_coordinate_time radial_interval"
                     " robertson_walker_interval schwarzschild_lambda source_from_r0",
    "alterations": "AlterationReport GravCompareInput alteration_report altered_light_speed"
                   " decay_lifetime frequency_compare gamma_gravitational gamma_special"
                   " gravitational_clock_compare mass_alteration rate_of_change_compare"
                   " separated_operator_check total_doppler transverse_doppler",
    "transition": "UNBOUNDED PartialInterval black_hole_interval damping_factor"
                  " middle_branch partial_interval photon_families"
                  " transformed_radial_interval transition_profile transition_profile_prime",
    "medium": "EquilinearResult MediumVelocity PropagationScenario PulseCounts count_trace"
              " distance_profile equilinear_check medium_velocity parallel_photon_offset"
              " roundtrip",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_OWNER, "SPEED_OF_LIGHT", "GRAVITATIONAL_CONSTANT", "LAMBDA_UNITS"]


def _lazy_submodule(name: str):
    """``lightclock.<name>``, registered but not run: its body runs on the
    first attribute access (importlib.util.LazyLoader).  Registering it keeps
    every submodule in ``sys.modules`` after ``import lightclock``, where
    tools such as perfbench's tracer look for them."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _lazy_submodule(_module)


def __getattr__(name: str):
    """A package-level name, read from its submodule on first use and kept."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value

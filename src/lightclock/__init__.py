"""Deterministic light-clock kinematics engine.

Radar (Einstein) measures, hyperbolic velocity-space relations and the
Lorentz transformation, potential-velocity line elements of the
Schwarzschild/Robertson-Walker family, physical-alteration ratios, the
hypersmooth transition-zone transformation, and a medium-propagation
integrator.
"""

from .infinitesimals import (
    Dual,
    derivative,
    dual_arith,
    infinitely_close,
    standard_part,
)
from .clocks import (
    CountDiagramMeasures,
    CountPair,
    EinsteinMeasures,
    LightClockSpec,
    counts_for_length,
    distance_from_counts,
    einstein_from_count_diagram,
    time_from_counts,
)
from .radar import (
    RadarRecord,
    Rapidity,
    check_geometric_mean,
    einstein_measures,
    rapidity_from_vE,
    record_from_rapidity,
)
from .velocity_space import (
    BetaGamma,
    Event4,
    TriangleEinstein,
    VelocityTriangle,
    beta_gamma,
    compose_einstein,
    interval,
    lorentz_transform,
    solve_triangle,
    triangle_to_einstein,
)
from .line_elements import (
    ExpansionRates,
    GravitySource,
    LambdaFactor,
    MetricPoint,
    cosmological_constant_for_horizon,
    horizon_roots,
    hubble_deceleration,
    infinitesimal_transform,
    linear_interval,
    minkowski_interval,
    modified_schwarzschild_lambda,
    newtonian_first_approx,
    null_radial_speed,
    potential_velocity,
    radar_coordinate_time,
    radial_interval,
    robertson_walker_interval,
    schwarzschild_lambda,
    source_from_r0,
)
from .alterations import (
    AlterationReport,
    GravCompareInput,
    alteration_report,
    altered_light_speed,
    decay_lifetime,
    frequency_compare,
    gamma_gravitational,
    gamma_special,
    gravitational_clock_compare,
    mass_alteration,
    rate_of_change_compare,
    separated_operator_check,
    total_doppler,
    transverse_doppler,
)
from .transition import (
    UNBOUNDED,
    PartialInterval,
    black_hole_interval,
    damping_factor,
    middle_branch,
    partial_interval,
    photon_families,
    transformed_radial_interval,
    transition_profile,
    transition_profile_prime,
)
from .medium import (
    EquilinearResult,
    MediumVelocity,
    PropagationScenario,
    PulseCounts,
    count_trace,
    distance_profile,
    equilinear_check,
    medium_velocity,
    parallel_photon_offset,
    roundtrip,
)

__version__ = "0.1.0"

SPEED_OF_LIGHT = 299792458.0  # m/s

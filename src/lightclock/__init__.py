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
_INF = float("inf")  # a range guard takes finite numbers only: "<what> must be finite, got inf"

#: supported unit tags for the cosmological constant
LAMBDA_UNITS = ("s^-2", "m^-2", "cm^-2")


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n points as numpy.linspace computes them: start + i·step, then stop."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def _positive(what: str, x) -> None:
    """ValueError "<what> must be positive" unless 0 < x: zero, a negative x and
    NaN (for which every comparison is false) alike; +inf is refused by name."""
    if not 0.0 < x < _INF:
        raise ValueError(f"{what} must be {'finite, got inf' if x == _INF else 'positive'}")


def _non_negative(what: str, *values) -> None:
    """As _positive, with "<what> must be non-negative" unless each value is >= 0."""
    for x in values:
        if not 0.0 <= x < _INF:
            raise ValueError(f"{what} must be {'finite, got inf' if x == _INF else 'non-negative'}")


def _unit_interval(what: str, *values) -> None:
    """ValueError "<what> must lie in (0, 1]" unless every value does, NaN refused."""
    for x in values:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"{what} must lie in (0, 1]")


def _refuse(self, name: str, *_) -> None:
    raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")


def _eq(self, other):
    # the fields compare as a tuple's items do: a NaN equals itself alone
    return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash((*vars(self).values(),))


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def _reduce(self) -> tuple:
    """Copy and pickle rebuild a record through its constructor."""
    return self.__class__, (*vars(self).values(),)


def _record(cls):
    """``cls`` as a frozen record, as ``@dataclass(frozen=True, slots=True)``
    makes one: its annotated names are its fields, in order, and a class
    attribute of the same name is a field's default.  The fields live in the
    slots of a private mutable base class, ``_<name>``, of which the record
    class is a frozen subclass.  ``__new__`` takes the fields by position or
    keyword, writes them into a base instance, switches its class to the
    record's, then runs ``__post_init__`` if the class has one.  No
    ``__init__`` follows it, so ``Cls.__new__(Cls, **fields)`` gives the same
    record as ``Cls(**fields)`` without ``type.__call__``; the kernels build
    the records they return that way.  ``__new__`` is the one method compiled
    per record, unless the class defines its own (``Dual`` does); ``==``,
    ``hash``, ``repr``, copy, pickle and the frozen guard are functions that
    every record shares, and ``vars()`` is a fresh dict in field order."""
    names, body = list(cls.__annotations__), vars(cls)
    base = type(f"_{cls.__name__}", cls.__bases__,
                {"__slots__": (*names, "__weakref__"), "__module__": cls.__module__})
    space = dict(__eq__=_eq, __hash__=_hash, __repr__=_repr, __reduce__=_reduce,
                 __setattr__=_refuse, __delattr__=_refuse, __qualname__=cls.__qualname__,
                 __slots__=(), __dict__=property(lambda self: {n: getattr(self, n) for n in names}))
    if "__new__" not in body:
        # flat, as dataclasses writes __init__: records are built on hot paths (a
        # PulseCounts per pulse row), and each field is stored while the instance
        # is still of the mutable base, where the store is a plain slot write
        params = ", ".join(f"{n}=_body[{n!r}]" if n in body else n for n in names)
        stores = "".join(f" self.{n} = {n}\n" for n in names)
        post = " self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        scope = {"__name__": cls.__module__, "_body": body, "_base": base}
        exec(f"def __new__(cls, {params}):\n self = _base()\n{stores}"
             f" self.__class__ = cls\n{post} return self", scope)
        space["__new__"] = scope["__new__"]
        space["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
    space.update((k, v) for k, v in body.items() if k not in (*names, "__dict__", "__weakref__"))
    return type(cls.__name__, (base,), space)


# the names each submodule exports at package level
_EXPORTS = {
    "infinitesimals": "Dual derivative dual_arith infinitely_close standard_part",
    "clocks": "CountDiagramMeasures CountPair LightClockSpec"
              " counts_for_length distance_from_counts einstein_from_count_diagram"
              " time_from_counts",
    "radar": "EinsteinMeasures RadarRecord Rapidity check_geometric_mean einstein_measures"
             " rapidity_from_vE record_from_rapidity",
    "velocity_space": "BetaGamma Event4 TriangleEinstein VelocityTriangle beta_gamma"
                      " compose_einstein interval lorentz_transform solve_triangle"
                      " triangle_to_einstein",
    "line_elements": "ExpansionRates GravitySource LambdaFactor MetricPoint"
                     " cosmological_constant_for_horizon horizon_roots hubble_deceleration"
                     " infinitesimal_transform linear_interval minkowski_interval"
                     " modified_schwarzschild_lambda newtonian_first_approx null_radial_speed"
                     " potential_velocity radar_coordinate_time radial_interval"
                     " robertson_walker_interval schwarzschild_lambda source_from_mass"
                     " source_from_r0",
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

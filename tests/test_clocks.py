import math

import pytest
from hypothesis import given, strategies as st

from lightclock import (
    CountPair,
    GravCompareInput,
    GravitySource,
    LightClockSpec,
    Rapidity,
    counts_for_length,
    distance_from_counts,
    einstein_from_count_diagram,
    source_from_mass,
    time_from_counts,
)

C = 299792458.0


class TestSpec:
    def test_time_unit_derived(self):
        spec = LightClockSpec(round_trip_length_L=1e-6, light_speed_c=C)
        assert spec.time_unit_u == 1e-6 / C
        assert spec.arm_length == 5e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            LightClockSpec(round_trip_length_L=0.0, light_speed_c=C)
        with pytest.raises(ValueError):
            LightClockSpec(round_trip_length_L=1.0, light_speed_c=-1.0)
        with pytest.raises(ValueError):
            CountPair(3.0, 2.0)
        with pytest.raises(ValueError):
            CountPair(-1.0, 2.0)


NAN = math.nan


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: LightClockSpec(NAN), "round_trip_length_L must be positive"),
        (lambda: LightClockSpec(1.0, NAN), "light_speed_c must be positive"),
        (lambda: CountPair(NAN, NAN), "counter readings must be non-negative"),
        (lambda: CountPair(1.0, NAN), "counter readings must be non-negative"),
        (lambda: CountPair(NAN, 1.0), "counter readings must be non-negative"),
        (lambda: source_from_mass(NAN), "mass must be non-negative"),
        (lambda: GravitySource(NAN), "a source needs a finite r0 >= 0"),
        (lambda: Rapidity(omega=NAN, c=1.0), "medium velocity must be non-negative"),
        (lambda: Rapidity(omega=1.0, c=NAN), "c must be positive"),
        (lambda: GravCompareInput(r_s=NAN, r_P=1.0, r_R=2.0), "r_s must be non-negative"),
        (lambda: GravCompareInput(r_s=0.5, r_P=NAN, r_R=2.0), "both radii must lie"),
    ],
)
def test_constructor_guards_reject_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestTimeFromCounts:
    def test_micro_clock(self):
        spec = LightClockSpec(1e-6, C)
        t = time_from_counts(spec, CountPair(0.0, 1e6))
        assert t == pytest.approx(3.335640952e-9, rel=1e-9)

    def test_zero_interval(self):
        spec = LightClockSpec(1.0, C)
        assert time_from_counts(spec, CountPair(7.0, 7.0)) == 0.0

    def test_unit_tick(self):
        spec = LightClockSpec(2.0, 2.0)
        assert time_from_counts(spec, CountPair(0.0, 3.0)) == 3.0


class TestDistanceFromCounts:
    def test_exact_product(self):
        spec = LightClockSpec(1e-6, C)
        assert distance_from_counts(spec, CountPair(0.0, 1e6)) == 1.0

    def test_zero(self):
        spec = LightClockSpec(1.0, C)
        assert distance_from_counts(spec, CountPair(5.0, 5.0)) == 0.0

    def test_half_meter(self):
        spec = LightClockSpec(0.5, C)
        assert distance_from_counts(spec, CountPair(2.0, 6.0)) == 2.0


class TestCountsForLength:
    def test_exact_divisor(self):
        spec = LightClockSpec(1e-6, C)
        assert counts_for_length(spec, 1.0) == 1_000_000

    def test_rounding_residual(self):
        spec = LightClockSpec(0.3, C)
        n = counts_for_length(spec, 1.0)
        assert n == 3
        assert abs(1.0 - n * 0.3) <= 0.15

    def test_zero(self):
        spec = LightClockSpec(0.3, C)
        assert counts_for_length(spec, 0.0) == 0


class TestCountDiagram:
    def test_reference_diagram(self):
        # the worked two-pulse diagram: unit L and c so counts are SI values
        spec = LightClockSpec(1.0, 1.0)
        m = einstein_from_count_diagram(spec, (20, 40, 60), (80, 110, 140))
        assert m.t_E_counts == 70.0
        assert m.r_E_counts == 10.0
        assert m.v_E == 1.0 / 7.0
        assert m.K == 1.0 / 7.0

    def test_si_scaling(self):
        spec = LightClockSpec(1e-6, C)
        m = einstein_from_count_diagram(spec, (20, 40, 60), (80, 110, 140))
        assert m.t_E == pytest.approx(70 * spec.time_unit_u, rel=1e-15)
        assert m.r_E == pytest.approx(10 * 1e-6, rel=1e-15)
        assert m.v_E == pytest.approx(C / 7.0, rel=1e-12)

    def test_symmetric_counts_no_recession(self):
        spec = LightClockSpec(1.0, 1.0)
        n = 5.0
        m = einstein_from_count_diagram(spec, (0, n, 2 * n), (2 * n, 3 * n, 4 * n))
        assert m.r_E == 0.0
        assert m.v_E == 0.0

    def test_reflection_violation(self):
        spec = LightClockSpec(1.0, 1.0)
        with pytest.raises(ValueError, match="inconsistent count diagram"):
            einstein_from_count_diagram(spec, (20, 40, 61), (80, 110, 140))

    def test_overlapping_pulses(self):
        spec = LightClockSpec(1.0, 1.0)
        with pytest.raises(ValueError, match="overlapping pulses"):
            einstein_from_count_diagram(spec, (20, 40, 60), (50, 80, 110))


counts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class TestInvariants:
    @given(
        st.floats(min_value=1e-9, max_value=1e3),
        counts,
        st.floats(min_value=1e-6, max_value=1e9),
    )
    def test_clock_speed_is_c(self, L, a, delta):
        # the clock measures its own pulse at c: distance/time == c up to
        # one rounding of u = L/c (exact when c = 1)
        spec = LightClockSpec(L, 1.0)
        pair = CountPair(a, a + delta)
        assert distance_from_counts(spec, pair) == time_from_counts(spec, pair)
        spec_si = LightClockSpec(L, C)
        ratio = distance_from_counts(spec_si, pair) / time_from_counts(spec_si, pair)
        assert ratio == pytest.approx(C, rel=1e-15)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.1, max_value=1e6),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_diagram_velocity_subluminal(self, tau11, first_gap, asymmetry):
        # both pulse intervals positive -> |v_E| < c
        spec = LightClockSpec(1.0, 1.0)
        second_gap = first_gap * (1.0 + asymmetry)
        tau31 = tau11 + first_gap
        tau12 = tau31
        tau32 = tau12 + second_gap
        first = (tau11, tau11 + first_gap / 2, tau31)
        second = (tau12, tau12 + second_gap / 2, tau32)
        m = einstein_from_count_diagram(spec, first, second)
        assert abs(m.v_E) < 1.0

    @given(st.floats(min_value=1e-6, max_value=10.0), st.floats(min_value=0.0, max_value=1e6))
    def test_roundtrip_quantization(self, L, r):
        spec = LightClockSpec(L, C)
        n = counts_for_length(spec, r)
        back = distance_from_counts(spec, CountPair(0.0, n))
        assert abs(back - r) <= L / 2 * (1 + 1e-12)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lightclock import Dual, derivative, dual_arith, infinitely_close, standard_part

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestDualArithmetic:
    def test_scalar_multiple(self):
        assert dual_arith(Dual(2, 1), Dual(3, 0), "mul") == Dual(6, 3)

    def test_eps_squared_discarded(self):
        assert dual_arith(Dual(1, 1), Dual(1, 1), "mul") == Dual(1, 2)

    def test_division_first_order(self):
        q = dual_arith(Dual(1, 0), Dual(2, 1), "div")
        assert q.real == 0.5
        assert q.eps == -0.25

    def test_add_sub(self):
        assert dual_arith(Dual(1, 2), Dual(3, 4), "add") == Dual(4, 6)
        assert dual_arith(Dual(1, 2), Dual(3, 4), "sub") == Dual(-2, -2)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            dual_arith(Dual(1), Dual(1), "pow")

    def test_division_by_pure_infinitesimal(self):
        with pytest.raises(ZeroDivisionError, match="infinitesimal division"):
            Dual(1, 0) / Dual(0, 1)

    def test_float_mixing(self):
        assert 2.0 * Dual(3, 1) == Dual(6, 2)
        assert Dual(3, 1) + 1 == Dual(4, 1)
        assert 1 - Dual(3, 1) == Dual(-2, -1)
        assert (1.0 / Dual(2, 1)).eps == -0.25

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dual(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Dual(0.0, float("inf"))

    def test_ordering_compares_standard_parts_only(self):
        a, b = Dual(1, 2), Dual(1, 3)
        assert a <= b and a >= b
        assert not (a < b or a > b)
        assert a != b


class TestStandardPart:
    def test_plain(self):
        assert standard_part(Dual(3.5, 7.0)) == 3.5

    def test_pure_infinitesimal(self):
        assert standard_part(Dual(0.0, 1.0)) == 0.0

    def test_standard_fixed_point(self):
        assert standard_part(Dual(math.pi, 0.0)) == math.pi
        assert standard_part(math.pi) == math.pi


class TestInfinitelyClose:
    def test_close(self):
        assert infinitely_close(1.0, 1.0 + 1e-14, 1e-12)

    def test_far(self):
        assert not infinitely_close(1.0, 1.1, 1e-12)

    def test_boundary_inclusive(self):
        assert infinitely_close(0.0, 1e-12, 1e-12)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            infinitely_close(0.0, 0.0, 0.0)


# test functions paired with plain-float twins for the difference oracle
_FUNCTIONS = [
    (lambda d: d * d * d - 2 * d + 1, lambda x: x**3 - 2 * x + 1, (-3.0, 3.0)),
    (lambda d: d.sin() * d.exp(), lambda x: math.sin(x) * math.exp(x), (-2.0, 2.0)),
    (lambda d: (d * d + 1).sqrt(), lambda x: math.sqrt(x * x + 1), (-5.0, 5.0)),
    (lambda d: (d + 2).log() / (d * d + 1), lambda x: math.log(x + 2) / (x * x + 1), (-1.5, 5.0)),
    (lambda d: d.tanh() + d.cos(), lambda x: math.tanh(x) + math.cos(x), (-3.0, 3.0)),
]


@pytest.mark.parametrize("dual_f,float_f,domain", _FUNCTIONS)
def test_derivative_matches_central_differences(dual_f, float_f, domain):
    rng = np.random.default_rng(20250811)
    lo, hi = domain
    h = 1e-6
    for x in rng.uniform(lo + 2 * h, hi - 2 * h, size=100):
        ad = derivative(dual_f, float(x))
        fd = (float_f(x + h) - float_f(x - h)) / (2 * h)
        assert ad == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestStandardPartHomomorphism:
    @given(finite, finite, finite, finite)
    def test_ring_ops_exact(self, a, b, da, db):
        x, y = Dual(a, da), Dual(b, db)
        assert standard_part(x + y) == a + b
        assert standard_part(x - y) == a - b
        assert standard_part(x * y) == a * b

    @given(finite, finite, finite, finite)
    def test_division_exact_when_divisor_standard(self, a, b, da, db):
        if abs(b) < 1e-100:  # divisor squared must stay representable
            return
        x, y = Dual(a, da), Dual(b, db)
        q = x / y
        assert standard_part(q) == a / b

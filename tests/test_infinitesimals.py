import math
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lightclock
from lightclock import Dual, derivative, dual_arith, infinitely_close, infinitesimals, standard_part

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
        with pytest.raises(ValueError, match=r"^unknown dual operation 'pow'$"):
            dual_arith(Dual(1), Dual(1), "pow")

    def test_division_by_pure_infinitesimal(self):
        with pytest.raises(ZeroDivisionError, match="infinitesimal division"):
            Dual(1, 0) / Dual(0, 1)

    # the quotient's ε is formed without the divisor's square, which leaves
    # the float range long before the quotient does
    def test_division_by_a_tiny_divisor(self):
        assert Dual(1e-200, 1.0) / Dual(1e-200, 0.0) == Dual(1.0, 1e200)

    def test_derivative_of_a_ratio_at_a_tiny_point(self):
        assert derivative(lambda x: x / x, 1e-170) == 0.0

    def test_division_by_a_huge_divisor(self):
        assert (Dual(1.0, 1.0) / Dual(1e200, 1.0)).eps == 1e-200

    def test_float_mixing(self):
        assert 2.0 * Dual(3, 1) == Dual(6, 2)
        assert Dual(3, 1) + 1 == Dual(4, 1)
        assert 1 - Dual(3, 1) == Dual(-2, -1)
        assert (1.0 / Dual(2, 1)).eps == -0.25

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_a_str_operand_on_either_side_is_a_type_error(self, op):
        # Dual's method returns NotImplemented, and so does str's or it raises itself
        for left, right in ((Dual(1.0, 2.0), "x"), ("x", Dual(1.0, 2.0))):
            with pytest.raises(TypeError):
                op(left, right)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dual(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Dual(0.0, float("inf"))

    def test_init_is_the_one_dual_defines(self, monkeypatch):
        # Dual's one constructor is the __new__ it defines, with no __init__ after it
        assert "__init__" not in vars(Dual)
        assert Dual.__new__.__code__.co_filename == infinitesimals.__file__
        # and the record decorator compiles no __init__ for a class that has one
        sources = []
        monkeypatch.setattr(lightclock, "exec", lambda source, scope: (
            sources.append(source), exec(source, scope)), raising=False)

        @lightclock._record
        class Own:
            real: float

            def __init__(self, real):
                pass

        assert len(sources) == 1 and "def __new__" in sources[0] and "__init__" not in sources[0]

    def test_record_compiles_no_new_for_a_class_that_defines_one(self, monkeypatch):
        # __new__ is the one method a record compiles, so such a class runs no exec
        sources = []
        monkeypatch.setattr(lightclock, "exec", lambda source, scope: (
            sources.append(source), exec(source, scope)), raising=False)

        @lightclock._record
        class Own:
            real: float

            def __new__(cls, real):
                return Dual(real)

        assert sources == []
        assert Own(2.0) == Dual(2.0)

    # a result outside the float range is refused when its Dual is built
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Dual(1e308, 1.0) * 10.0,
            lambda: Dual(1.0, 1e308) + Dual(1.0, 1e308),
            lambda: Dual(1e308, 0.0) - Dual(-1e308, 0.0),
            lambda: Dual(1.0, 1e308) / Dual(1e-10, 0.0),
            lambda: 1e300 / Dual(1e-10, 1.0),
            lambda: Dual(700.0, 1e10).exp(),
            lambda: Dual(1e100, 1e300) ** 2,
            lambda: Dual(1e100, 1e300) ** 2.5,
        ],
        ids=["mul", "add", "sub", "truediv", "rtruediv", "exp", "pow-int", "pow-fractional"],
    )
    def test_an_overflowing_result_is_refused(self, call):
        with pytest.raises(ValueError, match="must be finite"):
            call()

    # where float math itself overflows first, its OverflowError comes through
    @pytest.mark.parametrize(
        "call",
        [lambda: Dual(800.0, 1.0).exp(), lambda: Dual(1e200, 1.0) ** 2],
        ids=["exp", "pow"],
    )
    def test_a_float_overflow_is_not_a_dual_error(self, call):
        with pytest.raises(OverflowError):
            call()

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
    (lambda d: d.sinh(), math.sinh, (-3.0, 3.0)),
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


class TestDualOperations:
    def test_negation(self):
        assert -Dual(1.5, -2.0) == Dual(-1.5, 2.0)

    def test_abs_flips_both_parts_of_a_negative(self):
        assert abs(Dual(-2.0, 3.0)) == Dual(2.0, -3.0)
        assert abs(Dual(2.0, 3.0)) == Dual(2.0, 3.0)

    def test_integer_powers(self):
        assert Dual(2.0, 1.0) ** 0 == Dual(1.0, 0.0)
        assert Dual(0.0, 1.0) ** 0 == Dual(1.0, 0.0)
        assert Dual(2.0, 1.0) ** -1 == Dual(0.5, -0.25)
        assert Dual(2.0, 1.0) ** 3.0 == Dual(8.0, 12.0)
        assert Dual(0.0, 1.0) ** 2 == Dual(0.0, 0.0)
        with pytest.raises(ZeroDivisionError, match="zero standard part"):
            Dual(0.0, 1.0) ** -2

    @pytest.mark.parametrize("base", [Dual(0.0, 1.0), Dual(-1.0, 1.0)])
    def test_fractional_power_of_non_positive(self, base):
        with pytest.raises(ValueError, match="fractional power of a non-positive dual"):
            base**0.5

    @pytest.mark.parametrize(
        "method,fn",
        [(Dual.tanh, math.tanh), (Dual.arctan, math.atan)],
    )
    def test_tanh_and_arctan(self, method, fn):
        x, h = 0.7, 1e-6
        y = method(Dual(x, 2.0))
        assert y.real == fn(x)
        assert y.eps == pytest.approx(2.0 * (fn(x + h) - fn(x - h)) / (2 * h), rel=1e-9)

    def test_repr(self):
        assert repr(Dual(1.5, -2.0)) == "1.5 + -2.0ε"

    # each elementary method has its numpy ufunc's name, so an object array
    # dispatches to it; perfbench's tracer wraps the methods by the same names
    @pytest.mark.parametrize(
        "name", ["sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh", "arctan"]
    )
    def test_a_ufunc_on_an_object_array_calls_the_method_of_its_name(self, name, monkeypatch):
        method = getattr(Dual, name)
        assert (method.__name__, method.__qualname__) == (name, f"Dual.{name}")
        calls = []
        monkeypatch.setattr(Dual, name, lambda self: calls.append(self) or method(self))
        x = Dual(0.7, 1.0)
        (y,) = getattr(np, name)(np.array([x], dtype=object))
        assert calls == [x]
        assert (y.real, y.eps) == (method(x).real, method(x).eps)


def hyper(x):
    """x + ε1 + ε2: a Dual whose parts are Duals, with ε1ε2 ≠ 0."""
    return Dual(Dual(x, 1.0), Dual(1.0, 0.0))


class TestDualsOverDuals:
    """f(x + ε1 + ε2) = (f + f'ε1) + (f' + f''ε1)ε2, read level by level."""

    @pytest.mark.parametrize(
        "f,f1,f2",
        [
            (lambda d: d * d * d - 2 * d + 1, lambda x: 3 * x * x - 2, lambda x: 6 * x),
            (lambda d: (d * 0.7).exp(), lambda x: 0.7 * math.exp(0.7 * x),
             lambda x: 0.49 * math.exp(0.7 * x)),
            (lambda d: d**2.5, lambda x: 2.5 * x**1.5, lambda x: 3.75 * x**0.5),
            (lambda d: d**-0.5, lambda x: -0.5 * x**-1.5, lambda x: 0.75 * x**-2.5),
            (Dual.sin, math.cos, lambda x: -math.sin(x)),
            (Dual.tanh, lambda x: 1.0 / math.cosh(x) ** 2,
             lambda x: -2.0 * math.tanh(x) / math.cosh(x) ** 2),
            (Dual.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
            (Dual.sqrt, lambda x: 0.5 / math.sqrt(x), lambda x: -0.25 * x**-1.5),
            (Dual.arctan, lambda x: 1.0 / (1.0 + x * x),
             lambda x: -2.0 * x / (1.0 + x * x) ** 2),
        ],
        ids=["cubic", "exp", "t^2.5", "t^-0.5", "sin", "tanh", "log", "sqrt", "arctan"],
    )
    def test_second_derivative_matches_closed_form(self, f, f1, f2):
        for x in (0.3, 1.1, 2.7):
            y = f(hyper(x))
            assert y.real.eps == pytest.approx(f1(x), rel=1e-14)
            assert y.eps.real == pytest.approx(f1(x), rel=1e-14)
            assert y.eps.eps == pytest.approx(f2(x), rel=1e-13)

    def test_a_polynomial_is_exact(self):
        y = (lambda d: d * d * d)(hyper(3.0))
        assert y == Dual(Dual(27.0, 27.0), Dual(27.0, 18.0))

    def test_standard_part_reads_every_level(self):
        assert standard_part(Dual(Dual(2.5, 1.0), Dual(3.0, 4.0))) == 2.5
        assert standard_part(Dual(Dual(Dual(-1.0, 2.0), 0.0), 5.0)) == -1.0

    def test_guards_read_the_standard_part(self):
        zero = Dual(Dual(0.0, 1.0), Dual(1.0, 0.0))
        with pytest.raises(ZeroDivisionError, match="zero standard part"):
            1.0 / zero
        with pytest.raises(ZeroDivisionError, match="zero standard part"):
            zero**-1
        with pytest.raises(ValueError, match="non-positive"):
            zero**0.5
        assert abs(-hyper(2.0)) == hyper(2.0)
        assert hyper(1.0) < 2.0 and hyper(1.0) <= Dual(1.0, 5.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Dual(Dual(float("nan"), 0.0), Dual(1.0, 0.0)),
            lambda: Dual(Dual(1.0, 0.0), Dual(1.0, float("inf"))),
            lambda: Dual(Dual(1.0, 0.0), float("-inf")),
            lambda: Dual(float("nan"), Dual(1.0, 0.0)),
        ],
    )
    def test_non_finite_refused_at_either_level(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build()


# the first-order formulas: (real, eps) of each operation on a + bε (and c + dε)
_FIRST_ORDER = {
    "add": (lambda x, y: x + y, lambda a, b, c, d: (a + c, b + d)),
    "sub": (lambda x, y: x - y, lambda a, b, c, d: (a - c, b - d)),
    "mul": (lambda x, y: x * y, lambda a, b, c, d: (a * c, a * d + b * c)),
    "mul_float": (lambda x, y: x * y.real, lambda a, b, c, d: (a * c, a * 0.0 + b * c)),
    "rmul_float": (lambda x, y: y.real * x, lambda a, b, c, d: (a * c, a * 0.0 + b * c)),
    "div": (lambda x, y: x / y, lambda a, b, c, d: (a / c, (b - (a / c) * d) / c)),
    "pow": (lambda x, y: abs(x) ** y.real,
            lambda a, b, c, d: (abs(a) ** c, c * abs(a) ** (c - 1) * (math.copysign(1.0, a) * b))),
    "sqrt": (lambda x, y: abs(x).sqrt(),
             lambda a, b, c, d: (math.sqrt(abs(a)), math.copysign(1.0, a) * b / (2.0 * math.sqrt(abs(a))))),
    "exp": (lambda x, y: x.exp(), lambda a, b, c, d: (math.exp(a), math.exp(a) * b)),
    "log": (lambda x, y: abs(x).log(),
            lambda a, b, c, d: (math.log(abs(a)), math.copysign(1.0, a) * b / abs(a))),
    "sin": (lambda x, y: x.sin(), lambda a, b, c, d: (math.sin(a), math.cos(a) * b)),
    "cos": (lambda x, y: x.cos(), lambda a, b, c, d: (math.cos(a), -math.sin(a) * b)),
    "tan": (lambda x, y: x.tan(), lambda a, b, c, d: (math.tan(a), b / math.cos(a) ** 2)),
    "sinh": (lambda x, y: x.sinh(), lambda a, b, c, d: (math.sinh(a), math.cosh(a) * b)),
    "cosh": (lambda x, y: x.cosh(), lambda a, b, c, d: (math.cosh(a), math.sinh(a) * b)),
    "tanh": (lambda x, y: x.tanh(), lambda a, b, c, d: (math.tanh(a), b / math.cosh(a) ** 2)),
    "arctan": (lambda x, y: x.arctan(), lambda a, b, c, d: (math.atan(a), b / (1.0 + a**2))),
}
_nonzero = st.floats(min_value=0.01, max_value=20.0) | st.floats(min_value=-20.0, max_value=-0.01)


@pytest.mark.parametrize("op", list(_FIRST_ORDER))
@given(a=_nonzero, b=st.floats(-1e3, 1e3), c=_nonzero, d=st.floats(-1e3, 1e3))
def test_first_order_parts_are_the_first_order_formulas(op, a, b, c, d):
    apply, formula = _FIRST_ORDER[op]
    y = apply(Dual(a, b), Dual(c, d))
    assert (y.real, y.eps) == formula(a, b, c, d)

"""First-order dual numbers: a desk-scale stand-in for monads and the
standard-part operator.

A ``Dual`` carries a finite real part plus the coefficient of a first-order
infinitesimal; products of two infinitesimal parts are discarded by
definition, not as an approximation.  Each elementary function is one row:
f, and its ε coefficient f'(x)·ε.  Either part may itself be a ``Dual``:
``Dual(Dual(t, 1), Dual(1, 0))`` is a hyper-dual number t + ε1 + ε2, with
ε1² = ε2² = 0 but ε1ε2 ≠ 0, and f of it carries f'' as the ε1ε2 coefficient.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import add, ge, gt, le, lt, mul, sub, truediv

from . import _positive, _record

_isfinite = math.isfinite
_ZERO_DIVISOR = "infinitesimal division: divisor has zero standard part"


def _dual_method(name: str, method):
    method.__name__, method.__qualname__ = name, f"Dual.{name}"
    return method


def _chain(name: str, f: Callable[[float], float], slope):
    """The Dual method ``name``: f of the real part x, and as ε coefficient
    slope(x, f(x), eps), which is the chain rule's f'(x)·eps."""

    def method(self):
        x = self.real
        value = _fn(x, name, f)
        return _new(Dual, value, slope(x, value, self.eps))

    return _dual_method(name, method)


def _ordering(op):
    """The Dual comparison named for ``op``: op of the two standard parts."""
    return _dual_method(f"__{op.__name__}__", lambda a, b: op(standard_part(a), standard_part(b)))


@_record
class Dual:
    """Number of the form real + eps·ε with ε² = 0.

    ``<``, ``<=``, ``>`` and ``>=`` compare standard parts only, while ``==``
    compares both parts: ``Dual(1, 2) <= Dual(1, 3)`` and ``>=`` both hold
    although ``==`` is False.
    """

    real: float
    eps: float = 0.0

    def __new__(cls, real, eps=0.0):
        # Dual defines its own __new__ (and gets no generated one): arithmetic
        # builds a Dual per operation through _new, one frame with no
        # __post_init__, and a Dual part was checked when it was built
        if real.__class__ is not Dual and not _isfinite(real):
            raise ValueError(f"real part must be finite, got {real!r}")
        if eps.__class__ is not Dual and not _isfinite(eps):
            raise ValueError(f"infinitesimal coefficient must be finite, got {eps!r}")
        self = _Base()
        self.real = real
        self.eps = eps
        self.__class__ = cls
        return self

    # -- ring operations, truncated at first order -------------------------

    def __add__(self, other):
        if other.__class__ is not Dual:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _new(Dual, self.real + other.real, self.eps + other.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Dual:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _new(Dual, self.real - other.real, self.eps - other.eps)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is Dual:
            return _new(Dual, self.real * other.real,
                        self.real * other.eps + self.eps * other.real)
        if isinstance(other, (int, float)):
            return _new(Dual, self.real * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Dual:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if standard_part(other) == 0.0:
            raise ZeroDivisionError(_ZERO_DIVISOR)
        r = self.real / other.real
        return _new(Dual, r, (self.eps - r * other.eps) / other.real)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _new(Dual, -self.real, -self.eps)

    def __pow__(self, n):
        if isinstance(n, int) or (isinstance(n, float) and n.is_integer()):
            n = int(n)
            if n == 0:
                return _new(Dual, 1.0, 0.0)
            if n < 0 and standard_part(self) == 0.0:
                raise ZeroDivisionError(_ZERO_DIVISOR)
        elif self.real <= 0.0:  # a Dual part compares its standard part
            raise ValueError("fractional power of a non-positive dual")
        return _new(Dual, self.real**n, n * self.real ** (n - 1) * self.eps)

    # -- comparisons act on the standard part ------------------------------

    __lt__, __le__, __gt__, __ge__ = map(_ordering, (lt, le, gt, ge))

    # -- elementary functions, named as numpy's ufuncs so that they dispatch --

    sqrt = _chain("sqrt", math.sqrt, lambda x, v, e: e / (2.0 * v))
    exp = _chain("exp", math.exp, lambda x, v, e: v * e)
    log = _chain("log", math.log, lambda x, v, e: e / x)
    sin = _chain("sin", math.sin, lambda x, v, e: _fn(x, "cos", math.cos) * e)
    cos = _chain("cos", math.cos, lambda x, v, e: -_fn(x, "sin", math.sin) * e)
    tan = _chain("tan", math.tan, lambda x, v, e: e / _fn(x, "cos", math.cos) ** 2)
    sinh = _chain("sinh", math.sinh, lambda x, v, e: _fn(x, "cosh", math.cosh) * e)
    cosh = _chain("cosh", math.cosh, lambda x, v, e: _fn(x, "sinh", math.sinh) * e)
    tanh = _chain("tanh", math.tanh, lambda x, v, e: e / _fn(x, "cosh", math.cosh) ** 2)
    arctan = _chain("arctan", math.atan, lambda x, v, e: e / (1.0 + x**2))
    __abs__ = _chain("__abs__", abs, lambda x, v, e: math.copysign(1.0, standard_part(x)) * e)

    def __repr__(self):
        # a Dual part is parenthesised, so each level of a hyper-dual shows
        real, eps = (f"({x})" if x.__class__ is Dual else x for x in (self.real, self.eps))
        return f"{real} + {eps}ε"


_Base = Dual.__base__  # the private mutable class whose slots hold the parts
_new = Dual.__new__  # the whole constructor: Dual has no __init__


def _fn(x, name: str, f: Callable[[float], float]):
    """f(x) for a float part x, the Dual method ``name`` for a Dual part."""
    return getattr(x, name)() if x.__class__ is Dual else f(x)


def _coerce(x):
    if isinstance(x, (int, float)):
        return _new(Dual, float(x), 0.0)
    return NotImplemented


def standard_part(a: Dual | int | float) -> float:
    """Extract the real number infinitely close to a finite dual, through
    every level of a dual whose parts are duals."""
    while a.__class__ is Dual:
        a = a.real
    return float(a)


_ARITH = {"add": add, "sub": sub, "mul": mul, "div": truediv}


def dual_arith(a: Dual, b: Dual, op: str) -> Dual:
    """Apply one of {add, sub, mul, div} with ε²-truncated arithmetic."""
    try:
        f = _ARITH[op]
    except (KeyError, TypeError):  # TypeError: an op that cannot be a key
        raise ValueError(f"unknown dual operation {op!r}") from None
    return f(a, b)


def infinitely_close(a: float, b: float, tol: float) -> bool:
    """Desk-scale ≈ relation: |a − b| ≤ tol (boundary inclusive)."""
    _positive("tolerance", tol)
    return abs(a - b) <= tol


def derivative(f: Callable[[Dual], Dual], x: float) -> float:
    """First derivative of f at x read off the ε coefficient of f(x + ε)."""
    y = f(_new(Dual, float(x), 1.0))
    return y.eps if isinstance(y, Dual) else 0.0

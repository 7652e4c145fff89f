"""First-order dual numbers: a desk-scale stand-in for monads and the
standard-part operator.

A ``Dual`` carries a finite real part plus the coefficient of a first-order
infinitesimal; products of two infinitesimal parts are discarded by
definition, not as an approximation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass


def _check_finite(x: float, what: str) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")


@dataclass(frozen=True)
class Dual:
    """Number of the form real + eps·ε with ε² = 0.

    ``<``, ``<=``, ``>`` and ``>=`` compare standard parts only, while ``==``
    compares both parts: ``Dual(1, 2) <= Dual(1, 3)`` and ``>=`` both hold
    although ``==`` is False.
    """

    real: float
    eps: float = 0.0

    def __post_init__(self):
        _check_finite(self.real, "real part")
        _check_finite(self.eps, "infinitesimal coefficient")

    # -- ring operations, truncated at first order -------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(self.real + other.real, self.eps + other.eps)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(self.real - other.real, self.eps - other.eps)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(
            self.real * other.real,
            self.real * other.eps + self.eps * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.real == 0.0:
            raise ZeroDivisionError(
                "infinitesimal division: divisor has zero standard part"
            )
        real = self.real / other.real
        eps = (self.eps * other.real - self.real * other.eps) / (
            other.real * other.real
        )
        return Dual(real, eps)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Dual(-self.real, -self.eps)

    def __pow__(self, n):
        if isinstance(n, int) or (isinstance(n, float) and n.is_integer()):
            n = int(n)
            if n == 0:
                return Dual(1.0, 0.0)
            if self.real == 0.0 and n < 0:
                raise ZeroDivisionError(
                    "infinitesimal division: divisor has zero standard part"
                )
        elif self.real <= 0.0:
            raise ValueError("fractional power of a non-positive dual")
        return Dual(
            self.real**n, n * self.real ** (n - 1) * self.eps
        )

    def __abs__(self):
        s = math.copysign(1.0, self.real)
        return Dual(abs(self.real), s * self.eps)

    # -- comparisons act on the standard part ------------------------------

    def __lt__(self, other):
        return self.real < _real_of(other)

    def __le__(self, other):
        return self.real <= _real_of(other)

    def __gt__(self, other):
        return self.real > _real_of(other)

    def __ge__(self, other):
        return self.real >= _real_of(other)

    # -- elementary functions (named so numpy ufuncs dispatch) -------------

    def sqrt(self):
        r = math.sqrt(self.real)
        return Dual(r, self.eps / (2.0 * r))

    def exp(self):
        e = math.exp(self.real)
        return Dual(e, e * self.eps)

    def log(self):
        return Dual(math.log(self.real), self.eps / self.real)

    def sin(self):
        return Dual(math.sin(self.real), math.cos(self.real) * self.eps)

    def cos(self):
        return Dual(math.cos(self.real), -math.sin(self.real) * self.eps)

    def tan(self):
        return Dual(
            math.tan(self.real), self.eps / math.cos(self.real) ** 2
        )

    def tanh(self):
        return Dual(
            math.tanh(self.real), self.eps / math.cosh(self.real) ** 2
        )

    def arctan(self):
        return Dual(
            math.atan(self.real), self.eps / (1.0 + self.real**2)
        )

    def __repr__(self):
        return f"{self.real} + {self.eps}ε"


def _coerce(x):
    if isinstance(x, Dual):
        return x
    if isinstance(x, (int, float)):
        return Dual(float(x), 0.0)
    return NotImplemented


def _real_of(x) -> float:
    return x.real if isinstance(x, Dual) else float(x)


def dual_arith(a: Dual, b: Dual, op: str) -> Dual:
    """Apply one of {add, sub, mul, div} with ε²-truncated arithmetic."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown dual operation {op!r}")


def standard_part(a: Dual | int | float) -> float:
    """Extract the real number infinitely close to a finite dual."""
    return _real_of(a)


def infinitely_close(a: float, b: float, tol: float) -> bool:
    """Desk-scale ≈ relation: |a − b| ≤ tol (boundary inclusive)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return abs(a - b) <= tol


def derivative(f: Callable[[Dual], Dual], x: float) -> float:
    """First derivative of f at x read off the ε coefficient of f(x + ε)."""
    y = f(Dual(float(x), 1.0))
    return y.eps if isinstance(y, Dual) else 0.0

"""The bits of one QUADPACK qk15 rule, pinned on every Python.

``medium._gk15`` is checked against an oracle that builds the 15-point
Kronrod and 7-point Gauss rules over [-1, 1] from the published half-tables
(``_XGK``, ``_WGK``, ``_WG``), zero Gauss weights included, and adds each of
qk15's four sums from 0.0 left to right with ``functools.reduce``.  The
builtin ``sum`` compensates its float sums from Python 3.12 on, so an
integral summed with it would change its last bits with the interpreter.
"""

import math
import operator
import random
import sys
from functools import reduce

import pytest

from lightclock import medium


def add(terms):
    """Left to right from 0.0, one rounding per term."""
    return reduce(operator.add, terms, 0.0)


XS = [-x for x in medium._XGK] + [0.0] + [x for x in reversed(medium._XGK)]
WK = list(medium._WGK) + list(reversed(medium._WGK[:7]))
WG = [0.0] * 15
WG[1::2] = [*medium._WG, *reversed(medium._WG[:3])]


def oracle(v, a, b):
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fv = [v(math.exp(centre + half * x)) for x in XS]
    resk = add(map(operator.mul, WK, fv))
    resg = add(map(operator.mul, WG, fv))
    resabs = add(w * abs(f) for w, f in zip(WK, fv)) * abs(half)
    resasc = add(w * abs(f - 0.5 * resk) for w, f in zip(WK, fv)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > sys.float_info.min / (50.0 * sys.float_info.epsilon):
        err = max(50.0 * sys.float_info.epsilon * resabs, err)
    return resk * half, err


def test_the_rules_are_the_published_ones():
    assert XS == sorted(XS) and XS[7] == 0.0
    assert WK == WK[::-1] and WG == WG[::-1]
    assert math.isclose(math.fsum(WK), 2.0, rel_tol=1e-15)
    assert math.isclose(math.fsum(WG), 2.0, rel_tol=1e-15)
    # the 7-point Gauss rule integrates t^12 exactly, and the Kronrod rule t^22
    assert math.isclose(math.fsum(w * x**12 for w, x in zip(WG, XS)), 2.0 / 13.0, rel_tol=1e-14)
    assert math.isclose(math.fsum(w * x**22 for w, x in zip(WK, XS)), 2.0 / 23.0, rel_tol=1e-14)


def profiles(rng):
    c, amp = rng.uniform(0.01, 5.0), rng.uniform(0.1, 3.0)
    p, scale = rng.uniform(-2.5, 2.5), rng.uniform(-2.0, 2.0)
    return {
        "constant": lambda t: c,
        "A t^p": lambda t: amp * t**p,
        "a ln t": lambda t: scale * math.log(t),
        "2 + sin t": lambda t: 2.0 + math.sin(t),
        "negative": lambda t: -amp * t - c,
    }


@pytest.mark.parametrize("kind", list(profiles(random.Random(0))))
def test_gk15_matches_the_left_to_right_oracle_exactly(kind):
    rng = random.Random(f"gk15 {kind}")
    for _ in range(200):
        v = profiles(rng)[kind]
        lo = rng.uniform(1e-3, 10.0)
        hi = lo * rng.choice([1.0 + 1e-9, rng.uniform(1.0, 3.0), rng.uniform(1.0, 1e4)])
        a, b = math.log(lo), math.log(hi)
        got, want = medium._gk15(v, a, b), oracle(v, a, b)
        assert [x.hex() for x in got] == [x.hex() for x in want], (kind, lo, hi)


def test_the_equilinear_example_keeps_its_bits():
    # sim equilinear --t1 1 --t2 2 --t3 4 --c 0.3: each integral is one rule
    assert medium._gk15(lambda t: 0.3, 0.0, math.log(2.0))[0] == 0.20794415416798362
    assert medium._gk15(lambda t: 0.3, 0.0, math.log(4.0))[0] == 0.41588830833596724

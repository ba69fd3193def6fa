"""Each double-word operation against its own error constant, measured exactly."""

import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from circledirac import spectrum
from circledirac.doubleword import (_dw_add, _dw_diff_of_squares, _dw_div, _dw_mul, _dw_sqrt,
                                    _fast_two_sum)

U2 = Fraction(1, 2 ** 106)
N = 4000


def _doubles(rng, n=N):
    """Positive doubles over 2^-40 .. 2^40, mantissas uniform."""
    return np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-40, 41, n))


def _double_words(rng, n=N):
    """Normalised positive double-words: |lo| <= u*hi, as Fast2Sum leaves them."""
    hi = _doubles(rng, n)
    return _fast_two_sum(hi, hi * rng.uniform(-2.0 ** -53, 2.0 ** -53, n))


def _exact(pair):
    """Each (hi, lo) entry as the exact rational hi + lo."""
    return [Fraction(h) + Fraction(l) for h, l in zip(*(x.tolist() for x in pair))]


def _worst(got, exact):
    """The largest relative error of the results got against exact, in units of u^2."""
    return max(abs(g - x) / x for g, x in zip(_exact(got), exact)) / U2


def _operands(op, rng):
    """Operands for op (doubles and double-words) and the exact result of each."""
    if op == "diff_of_squares":
        k = _doubles(rng)
        # half of the pairs near-critical, where k^2 - a^2 cancels
        near = 1.0 - 10.0 ** -rng.uniform(1.0, 15.0, N)
        a = k * np.where(np.arange(N) % 2, near, rng.uniform(0.0, 1.0, N))
        return (k, a), [Fraction(x) ** 2 - Fraction(y) ** 2 for x, y in zip(k.tolist(), a.tolist())]
    y = _double_words(rng)
    if op == "mul":
        x = _double_words(rng)
        return (x, y), [p * q for p, q in zip(_exact(x), _exact(y))]
    c = _doubles(rng)
    exact = operator.add if op == "add" else operator.truediv
    return (c, y), [exact(Fraction(p), q) for p, q in zip(c.tolist(), _exact(y))]


OPS = {"mul": _dw_mul, "add": _dw_add, "div": _dw_div, "diff_of_squares": _dw_diff_of_squares}


@pytest.mark.parametrize("op", OPS)
def test_operation_within_its_constant(op):
    # the constant of each operation in the double-word bound, against the worst relative
    # error over seeded operands, which must also come within a factor 8 of it
    operands, exact = _operands(op, np.random.default_rng(sorted(OPS).index(op)))
    worst = _worst(OPS[op](*operands), exact)
    constant = spectrum._DW_CONSTANTS[op]
    assert constant / 8 < worst <= constant, worst


def test_sqrt_within_its_constant():
    x = _double_words(np.random.default_rng(5))
    got = _dw_sqrt(x)
    # each 300-bit square root errs by 2^-300 relative at most, far below u^2
    with mpmath.workprec(300):
        roots = [mpmath.sqrt(mpmath.mpf(v.numerator) / v.denominator).man_exp for v in _exact(x)]
    exact = [man * Fraction(2) ** exp for man, exp in roots]
    worst = _worst(got, exact)
    constant = spectrum._DW_CONSTANTS["sqrt"]
    assert constant / 8 < worst <= constant, worst

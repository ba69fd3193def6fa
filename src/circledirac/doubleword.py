"""Error-free transformations of doubles, and double-word arithmetic on them.

Elementwise on numpy arrays, in real ``+ - * /`` and ``sqrt`` that numpy
rounds on its own (no fused multiply-add), so the bits are the same at
every SIMD dispatch level.  A transformation returns a pair whose
unevaluated sum is the exact result of one operation; a double-word
operation takes and returns such (hi, lo) pairs.  The sommerfeld oracle
evaluates its level with the operations (:mod:`circledirac.spectrum`
states their error bounds) and the decimal formatter
(:mod:`circledirac.floattext`) scales by powers of ten with the
transformations.  Algorithms: Knuth's TwoSum (TAOCP vol. 2, 4.2.2);
Dekker's Fast2Sum, TwoProduct, mul2, div2, sqrt2 (Numer. Math. 18 (1971) 224).
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []

# Veltkamp's splitting constant 2^27 + 1: x*_SPLIT splits a double into two 26-bit halves
_SPLIT = 134217729.0


def _two_sum(a, b):
    """Knuth's TwoSum: (s, e) with s = RN(a + b) and s + e = a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    """Dekker's Fast2Sum, for |a| >= |b|: (s, e) with s = RN(a + b) and s + e = a + b exactly."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Veltkamp's split: a = hi + lo, each half of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's TwoProduct, without a fused multiply-add: (p, e), p = RN(a*b), p + e = a*b."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dw_mul(x, y):
    """The product of two positive double-words (Dekker's mul2)."""
    (xh, xl), (yh, yl) = x, y
    p, e = _two_product(xh, yh)
    return _fast_two_sum(p, e + (xh * yl + xl * yh))


def _dw_add(c, y):
    """The sum of a double c >= 0 and a positive double-word y."""
    s, e = _two_sum(c, y[0])
    return _fast_two_sum(s, e + y[1])


def _dw_div(c, y):
    """The quotient of a double c > 0 by a positive double-word y (Dekker's div2, c's lo 0)."""
    yh, yl = y
    q = c / yh
    p, e = _two_product(q, yh)
    return _fast_two_sum(q, (((c - p) - e) - q * yl) / yh)


def _dw_sqrt(x):
    """The square root of a positive double-word (Dekker's sqrt2)."""
    xh, xl = x
    s = np.sqrt(xh)
    p, e = _two_product(s, s)
    return _fast_two_sum(s, (((xh - p) - e) + xl) / (2.0 * s))


def _dw_diff_of_squares(k, a):
    """k^2 - a^2 of doubles k > a >= 0, as the product (k - a)*(k + a) of two exact TwoSums."""
    return _dw_mul(_two_sum(k, -a), _two_sum(k, a))

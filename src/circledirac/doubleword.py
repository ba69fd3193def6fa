"""Error-free transformations of doubles, elementwise on numpy arrays.

Each returns a pair whose unevaluated sum is the exact result of one
operation, using only real ``+ - *`` that numpy rounds on its own (no
fused multiply-add), so the bits are the same at every SIMD dispatch
level.  The sommerfeld oracle builds its double-word arithmetic from them
and the decimal formatter (:mod:`circledirac.floattext`) its scaling by
powers of ten.  The algorithms are Knuth's TwoSum (TAOCP vol. 2, 4.2.2)
and Dekker's Fast2Sum and TwoProduct (Numer. Math. 18 (1971) 224).
"""

from __future__ import annotations

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

"""Bound states on circular charts and the fine-structure spectrum.

Natural units hbar = c = m = 1 with e^2 = alpha: every energy is in units
of the rest mass m, since each level is m times a function of alpha,
n_theta and n_r.  The one mass, in electronvolts, enters at the
:class:`SpectrumTable` boundary.

The orbital solve is closed-form.  With v = alpha/n_theta the circular
bound state has

    eta  = 1/sqrt(1 - v^2)          (kinetic energy)
    mu   = v/sqrt(1 - v^2)          (momentum)
    eA   = -v^2/sqrt(1 - v^2)       (potential energy, attractive)
    nu   = eta + eA = sqrt(1 - v^2)     (total energy)

and the two quantisation statements R0_rest = n_theta (temporal circle)
and mu*R1 = n_theta (orbital angular momentum).

Adding a circle vibration with energy n_r/n_theta gives the coupled
state.  Its total energy is computed by two deliberately separate
routes:

  route A (geometric chain): solve
      sqrt(1 - v_m^2)/v_m = (sqrt(1 - v^2) + n_r/n_theta)/v
  for the coupled speed v_m, then nu_m = sqrt(1 - v_m^2) (from K, the
  right-hand side, as K/sqrt(1 + K^2) where K < 1);

  route B (closed form):
      nu_m = (1 + alpha^2/(sqrt(n_theta^2 - alpha^2) + n_r)^2)^(-1/2),

which is the Sommerfeld/Dirac fine-structure formula with k = n_theta
and radial number n_r.  :func:`sommerfeld_reference` evaluates that
reference independently for use as an oracle, and every level it returns
has the bits of mpmath's correctly rounded libmp primitives at 40
digits (the one-level mpmath formula, with the global ``mpmath.mp``
context left alone).  The level is written once and run through three
evaluators: double-word arithmetic (each value an unevaluated sum hi + lo
of two doubles, built from error-free transformations, no fused
multiply-add), one numpy pass over the whole grid; libmp, the one
arbiter; and relative error bounds.  A level's hi is kept only when a
certificate holds: an interval around hi + lo, wide enough for the bounds
on both other evaluators' errors, rounds to hi alone, which is then the
double libmp gives.  Any other level, and any level outside the domain
where the bounds hold, goes to the arbiter; a coupling below 2^-300
gives exactly 1 there, and is certified as such.

Each solver takes a level as (alpha, n_theta, n_r), checks n_theta >= 1,
then n_r >= 0 (integers, not ``bool``), then alpha, and has one body for
scalars or numpy arrays that broadcast together (quantum numbers as
integer arrays).  A scalar call returns plain Python floats; an array
call gives every entry the bits of the scalar call for it, because
numpy's ``+ - * /`` and ``sqrt`` round like Python's.  Every power is a product (route B's square is ``d * d``),
each factor one correctly rounded IEEE operation, so the bits do not
depend on the CPU or the C library's ``pow``.  An array entry out of
domain raises the scalar call's error class, and the message names the
first such row.  :func:`spectrum_table` makes two array calls over its
level grid, route A and the oracle, and refuses a grid of more than
:data:`MAX_LEVELS` levels before it allocates one.

The table is a :class:`SpectrumTable`, its eight sorted column arrays.
:func:`lines_to_csv` and :func:`lines_to_json` write its text straight
from those arrays, a chunk of rows at a time, through
:mod:`circledirac.floattext`, which spells every number as Python's
``%d``, ``format(x, ".17g")`` or ``repr`` would, with Python's own
formatting as the arbiter for any value its certificate does not cover.
The ``spectrum`` command writes each chunk as soon as it is formatted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .doubleword import _dw_add, _dw_diff_of_squares, _dw_div, _dw_mul, _dw_sqrt
from .errors import (CircleDiracError, FloatRange, _plain, bound_coupling, positive_mass,
                     quantum_integer, require)

__all__ = [
    "MAX_LEVELS",
    "BohrState",
    "CoupledState",
    "SpectrumTable",
    "bohr_solve",
    "coupled_solve",
    "energy_closed_form",
    "sommerfeld_reference",
    "spectrum_table",
    "lines_to_csv",
    "lines_to_json",
]


@dataclass(frozen=True)
class BohrState:
    """Circular-orbit bound state with all derived kinematics.

    R1_hat is the spatial component of the boosted circumference
    four-vector and is stored with the sign that makes the arc-form
    quantisation eta_b*R0_b + mu_b*R1_hat = n_theta hold literally (it
    carries the metric's minus sign, so it is negative for v_b > 0).
    """

    n_theta: int
    v_b: float
    eta_b: float
    mu_b: float
    nu_b: float
    eA_b: float
    R1_b: float
    R0_l: float
    R0_b: float
    R1_hat: float


def _finite(fields: dict) -> np.ndarray:
    """Where every field, broadcast against the others, is finite."""
    return functools.reduce(np.logical_and, map(np.isfinite, fields.values()))


def bohr_solve(alpha: float, n_theta: int) -> BohrState:
    """Solve the circular-orbit bound state at coupling alpha.

    The rest circle's radius R0_l is n_theta (a single-valued phase).
    alpha and n_theta may be arrays that broadcast together, with n_theta
    an integer array; each field is then an array with the broadcast
    shape of the inputs it depends on, and an out-of-domain entry raises
    the scalar call's error, naming its row.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    # 0 < alpha < n_theta, so v rounds below 1
    bound_coupling(alpha, n_theta)
    v = np.divide(alpha, n_theta)
    k = np.asarray(n_theta, dtype=float)
    with np.errstate(all="ignore"):
        root = np.sqrt(1.0 - v * v)
        eta, eA = 1.0 / root, -v * v / root
        fields = dict(v_b=v, eta_b=eta, mu_b=v * eta, nu_b=eta + eA, eA_b=eA,
                      R1_b=k * root / v, R0_l=k, R0_b=k / root, R1_hat=-v * k / root)
    require(_finite(fields), FloatRange, "bound orbit at alpha={alpha} (n_theta={n_theta}) "
            "leaves the float range", alpha=alpha, n_theta=n_theta)
    return BohrState(n_theta=n_theta, **{name: _plain(x) for name, x in fields.items()})


@dataclass(frozen=True)
class CoupledState:
    """Bound orbit plus circle vibration, solved through the geometric chain."""

    bohr: BohrState
    eta_l: float
    v_m: float
    nu_m: float
    mu_m: float
    vprime_m: float
    nu_h: float
    eta_h: float
    mu_h: float
    m_h: float


def coupled_solve(alpha: float, n_theta: int, n_r: int) -> CoupledState:
    """Route A: geometric chain for the coupled interaction.

    The circle vibration carries eta_l = n_r/n_theta.  K = (sqrt(1 - v_b^2)
    + eta_l)/v_b determines the coupled speed v_m = 1/sqrt(1 + K^2)
    uniquely in (0, 1); the total energy is nu_m = sqrt(1 - v_m^2), taken
    as K/sqrt(1 + K^2) where K < 1: there v_m nears 1 and 1 - v_m^2
    cancels (Higham 1996, sec. 1.7), down to 0 where v_m rounds to 1.  The
    heavy-electron fields absorb the orbit and vibration energies into one
    particle at the orbital speed, with the boosted denominators
    ds0^2 - ds1^2 of the arc elements.

    alpha, n_theta and n_r may be arrays that broadcast together, as for
    :func:`bohr_solve`; each field then has the broadcast shape of the
    inputs it depends on.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    n_r = quantum_integer("n_r", n_r, 0)
    b = bohr_solve(alpha, n_theta)
    v, eta_l = b.v_b, np.divide(n_r, n_theta)
    with np.errstate(all="ignore"):
        K = (np.sqrt(1.0 - v * v) + eta_l) / v
        root_k = np.sqrt(1.0 + K * K)
        v_m = 1.0 / root_k
        rest = np.where(K < 1.0, K / root_k, np.sqrt(1.0 - v_m * v_m))
        # heavy electron: total energy nu_h at speed v_b, with ds1/ds0 = v_b
        nu_h = b.nu_b + eta_l
        one_minus = 1.0 - v * v
        fields = dict(eta_l=eta_l, v_m=v_m, nu_m=rest, mu_m=v_m / rest,
                      vprime_m=1.0 / b.mu_b + eta_l / v, nu_h=nu_h, eta_h=nu_h / one_minus,
                      mu_h=nu_h * v / one_minus, m_h=nu_h / np.sqrt(one_minus))
    require(_finite(fields), FloatRange, "coupled state at alpha={alpha} (n_theta={n_theta}, "
            "n_r={n_r}) leaves the float range", alpha=alpha, n_theta=n_theta, n_r=n_r)
    return CoupledState(bohr=b, **{name: _plain(x) for name, x in fields.items()})


def energy_closed_form(alpha: float, n_theta: int, n_r: int) -> float:
    """Route B: closed-form coupled energy (fine-structure formula).

    Unlike the geometric chain this survives the free limit alpha = 0,
    where every level collapses to the rest mass, 1.  The arguments may be
    arrays that broadcast together (the quantum numbers integer arrays).
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    n_r = quantum_integer("n_r", n_r, 0)
    bound_coupling(alpha, n_theta, allow_zero=True)
    a, k = np.asarray(alpha, dtype=float), np.asarray(n_theta, dtype=float)
    with np.errstate(all="ignore"):
        d = np.sqrt(k * k - a * a) + n_r
        return _plain(1.0 / np.sqrt(1.0 + a * a / (d * d)))


# the certificate's domain (see sommerfeld_reference): alpha >= _TINY; n_theta, n_r <= _EXACT
_TINY, _EXACT = 2.0 ** -300, 2 ** 53


def sommerfeld_reference(alpha: float, n_theta: int, n_r: int) -> float:
    """Independent high-precision Sommerfeld/Dirac level, rounded to float.

    E = 1/sqrt(1 + alpha^2/(n_r + sqrt(k^2 - alpha^2))^2) with k the
    angular number, with the bits of mpmath at 40 decimal digits.  The
    arguments may be arrays that broadcast together.

    The level is written once, in :func:`_root` and :func:`_level`.  The
    arbiter, :func:`_libmp_levels`, evaluates it in mpmath's correctly
    rounded libmp primitives at p = 136 bits.  Most levels never reach it.
    One numpy pass, :func:`_double_word_levels`, first evaluates every
    level as a double-word v = hi + lo with hi = RN(v), the double nearest v.

    The certificate.  v errs from E by at most E*2^-(_DW_SHIFT + 1) and
    libmp's level, before its rounding to a double, by at most
    E*2^-(_SHIFT + 1), both bounds propagated through the same expression
    by the bound evaluator :func:`_bounds`.  So libmp's level lies within
    h = hi*(2^-_DW_SHIFT + 2^-_SHIFT) of v: each term is twice its bound,
    which covers E <= hi*(1 + 2^-52) and the one rounding of h.  Let up and
    down be half the gaps from hi to the next double above and below (both
    exact).  When lo + h < up and lo - h > -down, each side rounded, the
    unrounded sides hold too (rounding is monotone and up, down are
    doubles), so the whole interval v +- h lies strictly inside hi's
    rounding interval, and libmp's ``to_float``, which rounds to nearest,
    gives hi.  That hi is returned; every other level goes to the arbiter.

    The domain.  So does every level with k or n_r above 2^53.  Inside it
    k, n_r and k*k (in libmp too) are exact; every product that TwoProduct
    splits is at least 2^-710 (q*q, with q >= alpha/2^54), far above the
    2^-969 below which its error term can underflow; no value split
    exceeds k + alpha < 2^54, far below the 2^996 at which Veltkamp's
    split overflows.  A product or quotient that feeds a low word may
    underflow and err by 2^-1075 more, under 2^-250 of the bound on the
    term it joins, which the factor 2 covers.  So every level has the
    libmp bits by construction.

    Below the domain, 0 <= alpha < 2^-300 (any k >= 1 and n_r >= 0),
    libmp's level is exactly 1, which the certificate takes as hi + lo:
    k*k - alpha^2 rounds to at least 1/2, and so do its root and
    n_r + root; q = alpha/(n_r + root) then rounds to at most 2^-299
    (rounding is monotone and 2^-299 is a double), q*q to at most 2^-598,
    and 1 + q*q, below the midpoint 1 + 2^-136 between 1 and the next
    136-bit number, to 1, whose sqrt and reciprocal are exact.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    n_r = quantum_integer("n_r", n_r, 0)
    bound_coupling(alpha, n_theta, allow_zero=True)
    a = np.asarray(alpha, dtype=float)
    k, r = np.asarray(n_theta), np.asarray(n_r)
    k_exact, r_exact, tiny = k <= _EXACT, r <= _EXACT, a < _TINY
    with np.errstate(all="ignore"):
        # levels outside the domain are evaluated too, on stand-in integers, and discarded
        hi, lo = _double_word_levels(a, np.where(k_exact, k, 1).astype(float),
                                     np.where(r_exact, r, 0).astype(float))
        hi, lo = np.where(tiny, 1.0, hi), np.where(tiny, 0.0, lo)
        h = hi * _HALF_WIDTH
        up = (np.nextafter(hi, np.inf) - hi) * 0.5
        down = (hi - np.nextafter(hi, 0.0)) * 0.5
        certified = (lo + h < up) & (lo - h > -down) & (k_exact & r_exact | tiny)
    values = np.ravel(hi)
    arbitrated = np.flatnonzero(~certified)
    if arbitrated.size:
        columns = [np.broadcast_to(x, np.shape(hi)).flat[arbitrated].tolist()
                   for x in (a, k, r)]
        values[arbitrated] = _libmp_levels(list(zip(*columns)))
    return _plain(values.reshape(np.shape(hi)))


def _root(ops, a, k):
    """sqrt(k^2 - a^2) in the evaluator ops: the part of a level its (alpha, n_theta) row shares."""
    return ops.sqrt(ops.diff_of_squares(k, a))


def _level(ops, a, r, root):
    """The Sommerfeld level 1/sqrt(1 + q*q), q = a/(r + root), in the evaluator ops.

    ``add`` and ``div`` take an input or the evaluator's ``one`` first.
    """
    q = ops.div(a, ops.add(r, root))
    return ops.div(ops.one, ops.sqrt(ops.add(ops.one, ops.mul(q, q))))


# the double-word evaluator (each evaluator gives these six names): doubles in, (hi, lo) out
_DOUBLE_WORD = SimpleNamespace(one=1.0, diff_of_squares=_dw_diff_of_squares, add=_dw_add,
                               mul=_dw_mul, div=_dw_div, sqrt=_dw_sqrt)


def _double_word_levels(a, k, r):
    """(hi, lo) of the level over broadcasting float arrays, in double-word arithmetic.

    k^2 - a^2 is taken as the product (k - a)*(k + a) of two exact
    TwoSums, so it suffers no cancellation as a approaches k.  Every
    operation is a real ``+ - * /`` or ``sqrt`` that numpy rounds on its
    own, so the result has the same bits at every SIMD dispatch level.
    """
    return _level(_DOUBLE_WORD, a, r, _root(_DOUBLE_WORD, a, k))


def _bounds(t):
    """The bound evaluator: each value is a bound on its relative error.

    Each operation has its own constant t[op], its error relative to the
    exact operation on its positive operands; inputs and ``one`` are exact,
    0.  On operands that err by x it errs by x + t + x*t.  The operands of
    a product or quotient combine the same way, a divisor's error x taken
    as x/(1 - x); a sum keeps the larger error of its terms; a square
    root's operand's error x counts as x/(2 - x).  No subtraction of
    inexact values exists (it could cancel and amplify their errors
    without bound): ``diff_of_squares`` takes exact operands and raises on
    any other.
    """
    def compose(x, y):  # (1 + x)*(1 + y) - 1: two relative errors incurred in turn
        return x + y + x * y

    def diff_of_squares(k, a):
        if k or a:
            raise ValueError(f"diff_of_squares needs exact operands, got error bounds {k}, {a}")
        return t["diff_of_squares"]
    return SimpleNamespace(
        one=0.0, diff_of_squares=diff_of_squares,
        add=lambda c, y: compose(max(c, y), t["add"]),
        mul=lambda x, y: compose(compose(x, y), t["mul"]),
        div=lambda c, y: compose(compose(c, y / (1.0 - y)), t["div"]),
        sqrt=lambda x: compose(x / (2.0 - x), t["sqrt"]))


def _shift(bounds) -> int:
    """The shift s with 2^-s >= 2t, t the bound evaluator's bound on a level's relative error."""
    return -math.frexp(_level(bounds, 0.0, 0.0, _root(bounds, 0.0, 0.0)))[1] - 1


# libmp's working precision, mpmath's 40 digits (libmp.dps_to_prec(40); mpmath loads only
# when a level reaches the arbiter).  A correctly rounded operation at p = _PREC bits errs
# by at most u = 2^-p (by none if its result fits in p bits).  For k < 2^68 (the double-word
# pass keeps k <= 2^53) k, a, k*k and a*a are exact (k*k has at most 136 bits, a's mantissa
# at most 53), so k*k - a*a errs by u: no cancellation amplifies; n_r is exact, or off by u,
# which a sum with the root, whose error is larger, does not raise.
_PREC = 136

# The double-word operations' constants, in units of u^2 with u = 2^-53.  Every operation
# takes normalised double-words (|lo| <= u*hi, as TwoSum and Fast2Sum leave them; a double
# is one with lo = 0) and errs, relative to the exact operation on them, by at most:
# * _dw_mul: the high words' TwoProduct P is exact; the cross products round by u^2*P
#   each, their sum by 2u^2*P and the sum with P's error term by 3u^2*P; the dropped
#   xl*yl is at most u^2*P; and X*Y >= P*(1 - u)^2: 8u^2 to first order;
# * _dw_diff_of_squares: its two TwoSums are exact, so it errs as _dw_mul;
# * _dw_add: TwoSum is exact and the low words, at most 2u*(c + yh) together, round
#   once: 2u^2;
# * _dw_div: c - p is exact (Sterbenz), the remainder c - q*Y is at most 2u*c and is
#   computed within 4u^2*c; dividing it by yh for Y adds 2u^2, and its rounding 2u^2: 8u^2;
# * _dw_sqrt: s = RN(sqrt(xh)) and xh - s*s is exact (Sterbenz); the remainder
#   R = X - s^2 is at most 3u*xh and is computed within 5u^2*xh, which adds 2.5u^2*s over
#   2s; sqrt(s^2 + R) differs from s + R/(2s) by R^2/(8s^3), about 1.13u^2*s, and the
#   quotient's rounding adds 1.5u^2*s: 5.2u^2 in all.
# The constants carry the higher-order terms of each, rounded up.  Joldes, Muller and
# Popescu (ACM TOMS 44, 2017) prove bounds of this kind for the double-word building blocks.
_DW_CONSTANTS = dict(mul=8.001, diff_of_squares=8.001, add=2.001, div=8.001, sqrt=5.2)

# the certificate's shifts for the double-word pass and for libmp (the factor 2 covers the
# bound's own rounding: its 30 or so operations in doubles can make it smaller by a factor
# 1 - 2^-47 at most), and its relative half-width
_DW_SHIFT = _shift(_bounds({op: c * 2.0 ** -106 for op, c in _DW_CONSTANTS.items()}))
_SHIFT = _shift(_bounds(dict.fromkeys(_DW_CONSTANTS, 2.0 ** -_PREC)))
_HALF_WIDTH = 2.0 ** -_DW_SHIFT + 2.0 ** -_SHIFT


def _libmp_levels(levels) -> list[float]:
    """The arbiter: each (alpha, n_theta, n_r) level in libmp, rounded to a double.

    mpmath's correctly rounded libmp primitives at 40 digits (_PREC bits),
    rounding to nearest: the same operations in the same order as the
    mpmath expression ``1/sqrt(1 + (a/(mpf(n_r) + sqrt(k*k - a*a)))**2)``
    under ``workdps(40)`` (its square as one ``mpf_mul``, which rounds as
    ``**2`` does), so it has that expression's bits, without the
    per-operation cost of the ``mpf`` wrapper and without touching the
    global ``mpmath.mp`` context.  Levels of one (alpha, n_theta) row
    share the root sqrt(k^2 - alpha^2), which is computed exactly as
    for a single level, so every level has the bits of its one-level call.
    """
    from mpmath import libmp
    prec, rnd = _PREC, libmp.round_nearest
    mul, add, div, sqrt = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_div, libmp.mpf_sqrt
    # the libmp evaluator; k*k and a*a are exact, and their difference rounds once
    ops = SimpleNamespace(
        one=libmp.fone, sqrt=lambda x: sqrt(x, prec, rnd), add=lambda x, y: add(x, y, prec, rnd),
        mul=lambda x, y: mul(x, y, prec, rnd), div=lambda x, y: div(x, y, prec, rnd),
        diff_of_squares=lambda k, a: libmp.mpf_sub(mul(k, k, prec, rnd), mul(a, a, prec, rnd),
                                                   prec, rnd))
    rows, radial, values = {}, {}, []
    for a, k, r in levels:
        row = rows.get((a, k))
        if row is None:
            a_mp = libmp.from_float(a)
            row = rows[a, k] = a_mp, _root(ops, a_mp, libmp.from_int(k, prec, rnd))
        r_mp = radial.get(r)
        if r_mp is None:
            r_mp = radial[r] = libmp.from_int(r, prec, rnd)
        values.append(libmp.to_float(_level(ops, row[0], r_mp, row[1]), rnd=rnd))
    return values


class SpectrumTable(NamedTuple):
    """A level table: eight 1-d columns, one entry per (n_theta, n_r) level.

    The fields are the CSV columns in order; n = n_theta + n_r.  The
    first three are integer arrays, the rest float arrays of energies in
    natural units and eV.
    """

    n_theta: np.ndarray
    n_r: np.ndarray
    n: np.ndarray
    energy_natural: np.ndarray
    energy_ev: np.ndarray
    binding_ev: np.ndarray
    reference_ev: np.ndarray
    abs_diff: np.ndarray


# The most levels spectrum_table computes, more than 601 x 601.  The CLI
# holds a whole table, but writes its text a chunk of rows at a time: at
# 601 x 601 it peaked at 100 MB (csv and json) and took 0.81 s and 0.99 s,
# about 2.2 and 2.7 us per level, from process start, against 168 MB and
# 240 MB, 0.96 s and 1.23 s when the whole text was written at once (median
# of 5 runs each, 2-vCPU shared VM).  At the cap, 707 x 707 levels peaked at
# 127 MB and took 0.9-1.25 s.
MAX_LEVELS = 500_000


def spectrum_table(alpha: float, mass_ev: float,
                   max_n_theta: int, max_n_r: int) -> SpectrumTable:
    """All levels with n_theta in [1, max_n_theta], n_r in [0, max_n_r].

    The table makes two array calls over its (n_theta, n_r) grid:
    :func:`coupled_solve` gives each level's route-A energy (the
    geometric chain) and :func:`sommerfeld_reference` its 40-digit mpmath
    reference_ev, with the orbit and the oracle's root
    sqrt(n_theta^2 - alpha^2) computed once per n_theta row.  Every value
    has the bits of the single-level calls.

    binding_ev = -mass_ev*v_m^2/(1 + sqrt(1 - v_m^2)) is taken from
    route A's coupled speed (sqrt(1 - v_m^2) is nu_m).  It
    equals energy_ev - mass_ev without the cancellation that subtraction
    suffers for weak coupling and high levels.  Rows are sorted by
    (n, n_theta), with n = n_theta + n_r.  The bounds are quantum
    integers, max_n_theta >= 1 and max_n_r >= 0.  A grid of more
    than :data:`MAX_LEVELS` levels raises :class:`CircleDiracError`
    before anything is allocated, and an infinite mass_ev raises
    :class:`FloatRange`.
    """
    max_n_theta = quantum_integer("max_n_theta", max_n_theta, 1)
    max_n_r = quantum_integer("max_n_r", max_n_r, 0)
    if max_n_theta * (max_n_r + 1) > MAX_LEVELS:
        raise CircleDiracError(f"max_n_theta={max_n_theta} and max_n_r={max_n_r} give "
                               f"{max_n_theta * (max_n_r + 1)} levels, more than the cap "
                               f"MAX_LEVELS = {MAX_LEVELS}")
    n_theta = np.arange(1, max_n_theta + 1)[:, None]
    n_r = np.arange(max_n_r + 1)
    positive_mass(mass_ev, "mass_ev")
    require(np.isfinite(mass_ev), FloatRange, "mass_ev must be finite, got {mass_ev}",
            mass_ev=mass_ev)
    state = coupled_solve(alpha, n_theta, n_r)
    energy_ev = state.nu_m * mass_ev
    reference_ev = sommerfeld_reference(alpha, n_theta, n_r) * mass_ev
    columns = [column.ravel() for column in np.broadcast_arrays(
        n_theta, n_r, n_theta + n_r, state.nu_m, energy_ev,
        -mass_ev * state.v_m * state.v_m / (1.0 + state.nu_m),
        reference_ev, np.abs(energy_ev - reference_ev))]
    order = np.lexsort((columns[0], columns[2]))
    return SpectrumTable(*(column[order] for column in columns))


# each row's literal text around its eight values: a CSV line, and a JSON object with
# json.dumps's separators
_CSV_LITERALS = ["", *"," * 7, "\n"]
_JSON_LITERALS = ["{" + f'"{SpectrumTable._fields[0]}": ',
                  *(f', "{name}": ' for name in SpectrumTable._fields[1:]), "}"]


def lines_to_csv(table: SpectrumTable) -> str:
    """The table as CSV: a header of the field names, then ``%d`` and ``%.17g`` values."""
    return "".join(_csv_chunks(table))


def _csv_chunks(table: SpectrumTable):
    """The text of :func:`lines_to_csv`, a chunk of rows at a time."""
    # imported on first use, so that commands which write no spectrum text never load it
    from .floattext import _chunks
    fields = list(zip(["d"] * 3 + ["g17"] * 5, table))
    return _chunks(fields, _CSV_LITERALS, head=",".join(SpectrumTable._fields) + "\n")


def lines_to_json(table: SpectrumTable) -> str:
    """The table as ``json.dumps`` writes a list of row dicts keyed by the CSV columns.

    Doubles are written as ``repr``.  Raises ``ValueError``, as
    ``json.dumps(..., allow_nan=False)`` does, if a value is not finite.
    """
    return "".join(_json_chunks(table))


def _json_chunks(table: SpectrumTable):
    """The text of :func:`lines_to_json`, a chunk of rows at a time; a value that is not
    finite raises ``ValueError`` at once, before any chunk."""
    from .floattext import _chunks
    if not all(np.isfinite(column).all() for column in table[3:]):
        raise ValueError("Out of range float values are not JSON compliant")
    fields = list(zip(["d"] * 3 + ["repr"] * 5, table))
    return _chunks(fields, _JSON_LITERALS, head="[", sep=", ", tail="]")

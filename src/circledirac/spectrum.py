"""Bound states on circular charts and the fine-structure spectrum.

Natural units hbar = c = 1 with e^2 = alpha; electronvolts only enter at
the :class:`SpectrumLine` boundary through a user-supplied mass.

The orbital solve is closed-form.  With v = alpha/n_theta the circular
bound state has

    eta  = m/sqrt(1 - v^2)          (kinetic energy)
    mu   = m*v/sqrt(1 - v^2)        (momentum)
    eA   = -m*v^2/sqrt(1 - v^2)     (potential energy, attractive)
    nu   = eta + eA = m*sqrt(1 - v^2)   (total energy)

and the two quantisation statements m*R0_rest = n_theta (temporal
circle) and mu*R1 = n_theta (orbital angular momentum, L = n_theta).

Adding a circle vibration with energy n_r*m/n_theta gives the coupled
state.  Its total energy is computed by two deliberately separate
routes:

  route A (geometric chain): solve
      sqrt(1 - v_m^2)/v_m = (sqrt(1 - v^2) + n_r/n_theta)/v
  for the coupled speed v_m, then nu_m = m*sqrt(1 - v_m^2);

  route B (closed form):
      nu_m = m * (1 + alpha^2/(sqrt(n_theta^2 - alpha^2) + n_r)^2)^(-1/2),

which is the Sommerfeld/Dirac fine-structure formula with k = n_theta
and radial number n_r.  :func:`sommerfeld_reference` evaluates that
reference independently for use as an oracle, and every level it returns
has the bits of mpmath's correctly rounded libmp primitives at 40
digits (the one-level mpmath formula, with the global ``mpmath.mp``
context left alone).  It first evaluates each level in fixed-point
Python integers at 2^-256 and keeps the result only when a certificate
holds: an interval around it, wide enough for the fixed point's own
error and for libmp's, rounds to a single double, which is then the
double libmp gives.  Any other level, and any row the fixed point cannot
hold exactly, goes to the libmp loop, which stays the one arbiter.

Each solver has one body, which takes scalars or numpy arrays that
broadcast together (quantum numbers as integer arrays).  A scalar call
returns plain Python floats; an array call gives every entry the bits
of the scalar call for it, because numpy's ``+ - * /`` and ``sqrt`` round
like Python's and every power is Python's own (:func:`_pow`).  An array
entry out of domain raises the scalar call's error class, and the
message names the first such row.  :func:`spectrum_table` makes two
array calls over its level grid, route A and the oracle, and refuses a
grid of more than :data:`MAX_LEVELS` levels before it allocates one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from mpmath import libmp

from .errors import (CircleDiracError, FloatRange, bound_coupling, positive_mass, quantum_integer,
                     require)
from .planewave import de_broglie

__all__ = [
    "MAX_LEVELS",
    "QuantumNumbers",
    "BohrState",
    "CoupledState",
    "SpectrumLine",
    "circle_quantize",
    "circle_wave_energy",
    "bohr_solve",
    "coupled_solve",
    "energy_closed_form",
    "sommerfeld_reference",
    "spectrum_table",
    "lines_to_csv",
    "lines_to_json_rows",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Angular number n_theta >= 1 and circle-wave number n_r >= 0.

    Both must be integers (anything ``operator.index`` accepts, such as
    numpy integers, but not ``bool``) and are stored as plain ``int``; or
    numpy integer arrays, stored as they are, which name a broadcasting
    grid of levels for the array forms of the solvers.
    """

    n_theta: int
    n_r: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_theta", quantum_integer("n_theta", self.n_theta, 1))
        object.__setattr__(self, "n_r", quantum_integer("n_r", self.n_r, 0))

    @property
    def n(self) -> int:
        """Principal quantum number n_theta + n_r."""
        return self.n_theta + self.n_r


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
    L: float


def _finite(fields: dict) -> np.ndarray:
    """Where every field, broadcast against the others, is finite."""
    return np.isfinite(np.broadcast_arrays(*fields.values())).all(axis=0)


def _plain(x):
    """A 0-d result as a plain Python float; an array as it is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _pow(x, p: int) -> np.ndarray:
    """Python's float ``x ** p`` entry by entry, an overflow giving an infinity of its sign.

    numpy's ``**`` rounds small integer powers differently from Python's
    (which calls the C ``pow``) on a few percent of inputs, so the array
    forms map Python's, and every entry keeps the bits of a scalar call.
    """
    x = np.asarray(x, dtype=float)
    values = []
    for v in x.ravel().tolist():
        try:
            values.append(v ** p)
        except OverflowError:
            values.append(math.copysign(math.inf, v) ** p)
    return np.array(values, dtype=float).reshape(x.shape)


def circle_quantize(mass: float, n_theta: int) -> float:
    """Rest-frame temporal circle radius n_theta/mass (single-valued phase).

    n_theta follows the :class:`QuantumNumbers` rule: an integer >= 1, not
    ``bool``, or an integer array broadcasting against mass.
    """
    positive_mass(mass)
    return _plain(np.divide(quantum_integer("n_theta", n_theta, 1), mass))


def circle_wave_energy(mass: float, qn: QuantumNumbers) -> float:
    """Energy n_r*mass/n_theta carried by the circle vibration."""
    positive_mass(mass)
    return _plain(np.multiply(qn.n_r, mass) / qn.n_theta)


def bohr_solve(alpha: float, n_theta: int, mass: float = 1.0) -> BohrState:
    """Solve the circular-orbit bound state at coupling alpha.

    alpha, n_theta and mass may be arrays that broadcast together, with
    n_theta an integer array; each field is then an array with the
    broadcast shape of the inputs it depends on, and an out-of-domain
    entry raises the scalar call's error, naming its row.
    """
    positive_mass(mass)
    n_theta = quantum_integer("n_theta", n_theta, 1)
    bound_coupling(alpha, n_theta)
    v = np.divide(alpha, n_theta)
    m, k = np.asarray(mass, dtype=float), np.asarray(n_theta, dtype=float)
    eta, mu = de_broglie(mass, v)
    with np.errstate(all="ignore"):
        root = np.sqrt(1.0 - v * v)
        eA = -m * v * v / root
        R0_l = circle_quantize(mass, n_theta)
        fields = dict(v_b=v, eta_b=eta, mu_b=mu, nu_b=eta + eA, eA_b=eA,
                      R1_b=k * root / (m * v), R0_l=R0_l, R0_b=R0_l / root,
                      R1_hat=-v * R0_l / root, L=k)
    require(_finite(fields), FloatRange, "bound orbit at alpha={alpha} (n_theta={n_theta}, "
            "mass={mass}) leaves the float range", alpha=alpha, n_theta=n_theta, mass=mass)
    return BohrState(n_theta=n_theta, **{name: _plain(x) for name, x in fields.items()})


@dataclass(frozen=True)
class CoupledState:
    """Bound orbit plus circle vibration, solved through the geometric chain."""

    qn: QuantumNumbers
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


def coupled_solve(alpha: float, qn: QuantumNumbers, mass: float = 1.0) -> CoupledState:
    """Route A: geometric chain for the coupled interaction.

    K = (sqrt(1 - v_b^2) + n_r/n_theta)/v_b determines the coupled speed
    v_m = 1/sqrt(1 + K^2) uniquely in (0, 1); the total energy is
    nu_m = mass*sqrt(1 - v_m^2).  The heavy-electron fields absorb the
    orbit and vibration energies into one particle at the orbital speed,
    with the boosted denominators ds0^2 - ds1^2 of the arc elements.

    alpha, mass and the numbers in ``qn`` may be arrays that broadcast
    together, as for :func:`bohr_solve`; each field then has the
    broadcast shape of the inputs it depends on.
    """
    b = bohr_solve(alpha, qn.n_theta, mass)
    eta_l = circle_wave_energy(mass, qn)
    v, m = b.v_b, np.asarray(mass, dtype=float)
    with np.errstate(all="ignore"):
        K = (np.sqrt(1.0 - v * v) + np.divide(qn.n_r, qn.n_theta)) / v
        v_m = 1.0 / np.sqrt(1.0 + K * K)
        rest = np.sqrt(1.0 - v_m * v_m)
        # heavy electron: total energy nu_h at speed v_b, with ds1/ds0 = v_b
        nu_h = b.nu_b + eta_l
        one_minus = 1.0 - v * v
        fields = dict(eta_l=eta_l, v_m=v_m, nu_m=m * rest, mu_m=m * v_m / rest,
                      vprime_m=m * m / b.mu_b + eta_l / v, nu_h=nu_h, eta_h=nu_h / one_minus,
                      mu_h=nu_h * v / one_minus, m_h=nu_h / np.sqrt(one_minus))
    require(_finite(fields), FloatRange, "coupled state at alpha={alpha} (n_theta={n_theta}, "
            "n_r={n_r}, mass={mass}) leaves the float range",
            alpha=alpha, n_theta=qn.n_theta, n_r=qn.n_r, mass=mass)
    return CoupledState(qn=qn, bohr=b, **{name: _plain(x) for name, x in fields.items()})


def energy_closed_form(alpha: float, n_theta: int, n_r: int, mass: float = 1.0) -> float:
    """Route B: closed-form coupled energy (fine-structure formula).

    Unlike the geometric chain this survives the free limit alpha = 0,
    where every level collapses to the rest mass.  The arguments may be
    arrays that broadcast together (the quantum numbers integer arrays).
    """
    positive_mass(mass)
    qn = QuantumNumbers(n_theta, n_r)
    bound_coupling(alpha, qn.n_theta, allow_zero=True)
    a, k = np.asarray(alpha, dtype=float), np.asarray(qn.n_theta, dtype=float)
    denom = _pow(np.sqrt(k * k - a * a) + qn.n_r, 2)
    return _plain(mass / np.sqrt(1.0 + a * a / denom))


# An integer X of the fixed-point oracle stands for X/2^_BITS.
_BITS = 256
_ONE = 1 << _BITS
_ONE_SQ = 1 << 2 * _BITS
_UNIT = 2.0 ** -_BITS


def sommerfeld_reference(alpha: float, n_theta: int, n_r: int, mass: float = 1.0) -> float:
    """Independent high-precision Sommerfeld/Dirac level, rounded to float.

    E = m*(1 + alpha^2/(n_r + sqrt(k^2 - alpha^2))^2)^(-1/2) with k the
    angular number, with the bits of mpmath at 40 decimal digits.  The
    arguments may be arrays that broadcast together.

    The arbiter is :func:`_libmp_levels`, mpmath's correctly rounded libmp
    primitives at p = 136 bits.  Most levels never reach it.  Each is
    first evaluated in integers at the fixed point S = 2^256, from
    A = alpha*S and M = m*S, which are exact:

        root  = isqrt(K^2 - A^2)             once per row, K = k*S
        q     = A*S // (n_r*S + root)
        w     = isqrt(S^2 + q^2)
        level = M*S // w

    The integer path's error.  bound_coupling gives A < K, so K^2 - A^2 >=
    2K - 1 and root >= 2^128.  With rho = sqrt(k^2 - alpha^2) the exact
    values are root* = S*rho, q* = A*S/(n_r*S + root*),
    w* = sqrt(S^2 + q*^2) and level* = M*S/w* = S*E.  root = root* - e
    with 0 <= e < 1, so q exceeds q* by at most q*e/(n_r*S + root) <=
    A*S/root^2 < B, with B = A*S // root^2 + 1 for the row, and its floor
    takes less than 1: |q - q*| < B.  sqrt(S^2 + x^2) moves no more than
    x does, and its floor less than 1 more: |w - w*| < B + 1.  Then
    M*S/w = level* * (1 - (w - w*)/w) with w >= S, and the last floor takes
    less than 1, so |level - level*| < (B + 1)*E + 1 <= (B + 1)*m + 1,
    which is below the row's (B + 1)*(floor(m) + 1) + 1 units.

    libmp's error.  Before its rounding to a double, libmp's level is
    E*(1 + theta) with 2|theta| <= 2^-_SHIFT, so S times it lies within
    delta + ((level + delta) >> _SHIFT) of ``level``, with delta =
    (B + 1)*(floor(m) + 1) + 2 (one unit more for the shift's floor).

    The certificate: when both ends of that interval round to one double,
    every value between them rounds to it, libmp's among them, and that
    double is returned.  The rounding is Python's correctly rounded int to
    float conversion (to nearest, ties to even, as libmp's ``to_float``),
    scaled by the exact 2^-256.  Any other level goes to the arbiter, and
    so does every level of a row in which A or M would not be an integer
    (alpha or m below about 2^-200, such as 1e-300), m is 2^767 or more
    (level + delta could overflow the conversion), or k is 2^68 or more
    (k*k would round in libmp).  So every level has the libmp bits by
    construction.
    """
    positive_mass(mass)
    qn = QuantumNumbers(n_theta, n_r)
    bound_coupling(alpha, qn.n_theta, allow_zero=True)
    grid = np.broadcast_arrays(np.asarray(alpha, dtype=float), qn.n_theta, qn.n_r,
                               np.asarray(mass, dtype=float))
    columns = [x.ravel().tolist() for x in grid]
    rows, values, arbitrated = {}, [], []
    for i, (a, k, r, m) in enumerate(zip(*columns)):
        row = rows.get((a, k, m), False)
        if row is False:
            row = rows[a, k, m] = _fixed_row(a, k, m)
        if row is not None:
            a_s, root, m_s, delta = row
            q = a_s // ((r << _BITS) + root)
            level = m_s // math.isqrt(_ONE_SQ + q * q)
            half_width = delta + ((level + delta) >> _SHIFT)
            low = float(level - half_width)
            if low == float(level + half_width):
                values.append(low * _UNIT)
                continue
        values.append(None)
        arbitrated.append(i)
    if arbitrated:
        levels = list(zip(*([column[i] for i in arbitrated] for column in columns)))
        for i, value in zip(arbitrated, _libmp_levels(levels)):
            values[i] = value
    return _plain(np.array(values).reshape(grid[0].shape))


def _fixed_row(a: float, k: int, m: float):
    """(A*S, root, M*S, delta) of one (alpha, n_theta, mass) row, or None for the arbiter."""
    if 2 * k.bit_length() > _PREC or not m < 2.0 ** (1023 - _BITS):
        return None
    a_num, a_den = a.as_integer_ratio()
    m_num, m_den = m.as_integer_ratio()
    if a_den > _ONE or m_den > _ONE:
        return None
    a_fixed, m_fixed = a_num * (_ONE // a_den), m_num * (_ONE // m_den)
    root = math.isqrt((k << _BITS) ** 2 - a_fixed * a_fixed)
    bound = (a_fixed << _BITS) // (root * root) + 1
    delta = (bound + 1) * ((m_fixed >> _BITS) + 1) + 2
    return a_fixed << _BITS, root, m_fixed << _BITS, delta


def _libmp_shift() -> int:
    """The shift s with 2^-s >= 2t, t a bound on libmp's relative error theta, E*(1 + theta).

    A correctly rounded operation at p = _PREC bits errs by at most
    u = 2^-p relative (by none if its result fits in p bits) and turns a
    relative error bound x into x + u + x*u.  In the arbiter's order, for
    k < 2^68, whose rows the fixed point keeps:

    * k, a, m, k*k and a*a: exact (k*k has at most 136 bits, a's mantissa
      at most 53), so k*k - a*a errs by u: no cancellation amplifies;
    * sqrt: x/(2 - x), then one rounding;
    * n_r + root: no more than root's error (both positive, n_r exact or
      off by u), then one rounding;
    * a/s and m/sqrt(...): x/(1 - x), then one rounding;
    * q*q: 2x + x^2, then one rounding;
    * q*q + 1: x weighted by q^2/(1 + q^2) <= 1, then one rounding.

    Evaluated in doubles, about 20 operations can make the bound smaller
    by a factor 1 - 2^-48 at most; the factor 2 covers that.
    """
    u = 2.0 ** -_PREC

    def rounded(x):
        return x + u + x * u

    t_sum = rounded(rounded(u / (2.0 - u)))
    t_q = rounded(t_sum / (1.0 - t_sum))
    t_one_plus = rounded(rounded(2 * t_q + t_q * t_q))
    t_sqrt = rounded(t_one_plus / (2.0 - t_one_plus))
    return -math.frexp(rounded(t_sqrt / (1.0 - t_sqrt)))[1] - 1


# libmp's working precision, mpmath's 40 digits, and the certificate's shift for it
_PREC = libmp.dps_to_prec(40)
_SHIFT = _libmp_shift()


def _libmp_levels(levels) -> list[float]:
    """The arbiter: each (alpha, n_theta, n_r, mass) level in libmp, rounded to a double.

    mpmath's correctly rounded libmp primitives at 40 digits (_PREC bits),
    rounding to nearest: the same operations in the same order as the
    mpmath expression ``m/sqrt(1 + (a/(mpf(n_r) + sqrt(k*k - a*a)))**2)``
    under ``workdps(40)`` (its square as one ``mpf_mul``, which rounds as
    ``**2`` does), so it has that expression's bits, without the
    per-operation cost of the ``mpf`` wrapper and without touching the
    global ``mpmath.mp`` context.  Levels of one (alpha, n_theta, mass)
    row share the root sqrt(k^2 - alpha^2), which is computed exactly as
    for a single level, so every level has the bits of its one-level call.
    """
    prec, rnd = _PREC, libmp.round_nearest
    from_float, from_int, to_float = libmp.from_float, libmp.from_int, libmp.to_float
    mul, add, sub = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_sub
    div, sqrt, one = libmp.mpf_div, libmp.mpf_sqrt, libmp.fone
    rows, radial, values = {}, {}, []
    for a, k, r, m in levels:
        row = rows.get((a, k, m))
        if row is None:
            a_mp, k_mp = from_float(a), from_int(k, prec, rnd)
            root = sqrt(sub(mul(k_mp, k_mp, prec, rnd), mul(a_mp, a_mp, prec, rnd), prec, rnd),
                        prec, rnd)
            row = rows[a, k, m] = a_mp, from_float(m), root
        a_mp, m_mp, root = row
        r_mp = radial.get(r)
        if r_mp is None:
            r_mp = radial[r] = from_int(r, prec, rnd)
        q = div(a_mp, add(r_mp, root, prec, rnd), prec, rnd)
        level = div(m_mp, sqrt(add(mul(q, q, prec, rnd), one, prec, rnd), prec, rnd), prec, rnd)
        values.append(to_float(level, rnd=rnd))
    return values


class SpectrumLine(NamedTuple):
    """One (n_theta, n_r) level with energies in natural units and eV.

    A tuple whose fields are the CSV columns in order; n = n_theta + n_r.
    """

    n_theta: int
    n_r: int
    n: int
    energy_natural: float
    energy_ev: float
    binding_ev: float
    reference_ev: float
    abs_diff: float


# The most levels spectrum_table computes, more than 601 x 601.  The CLI
# holds a whole table until it is written: at 601 x 601 it peaked at 275 MB
# (csv) and 391 MB (json) and took about 17 and 27 us per level from process
# start, so a table at the cap needs about 0.4-0.55 GB and 9-14 s.
MAX_LEVELS = 500_000


def spectrum_table(alpha: float, mass_ev: float,
                   max_n_theta: int, max_n_r: int) -> list[SpectrumLine]:
    """All levels with n_theta in [1, max_n_theta], n_r in [0, max_n_r].

    The table makes two array calls over its (n_theta, n_r) grid:
    :func:`coupled_solve` gives each level's route-A energy (the
    geometric chain) and :func:`sommerfeld_reference` its 40-digit mpmath
    reference_ev, with the orbit and the oracle's root
    sqrt(n_theta^2 - alpha^2) computed once per n_theta row.  Every value
    has the bits of the single-level calls.

    binding_ev = -mass_ev*v_m^2/(1 + sqrt(1 - v_m^2)) is taken from
    route A's coupled speed (sqrt(1 - v_m^2) is nu_m at unit mass).  It
    equals energy_ev - mass_ev without the cancellation that subtraction
    suffers for weak coupling and high levels.  Rows are sorted by
    (n, n_theta).  The bounds follow the :class:`QuantumNumbers`
    rule: integers with max_n_theta >= 1 and max_n_r >= 0.  A grid of more
    than :data:`MAX_LEVELS` levels raises :class:`CircleDiracError`
    before anything is allocated.
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
    qn = QuantumNumbers(n_theta, n_r)
    state = coupled_solve(alpha, qn)
    energy_ev = state.nu_m * mass_ev
    reference_ev = sommerfeld_reference(alpha, n_theta, n_r) * mass_ev
    columns = [column.ravel() for column in np.broadcast_arrays(
        n_theta, n_r, qn.n, state.nu_m, energy_ev,
        -mass_ev * state.v_m * state.v_m / (1.0 + state.nu_m),
        reference_ev, np.abs(energy_ev - reference_ev))]
    order = np.lexsort((columns[0], columns[2]))
    return list(map(SpectrumLine._make, zip(*(column[order].tolist() for column in columns))))


# 17 significant digits, '.' decimal separator, locale independent
_CSV_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g"


def lines_to_csv(lines: list[SpectrumLine]) -> str:
    rows = [",".join(SpectrumLine._fields)]
    rows.extend(_CSV_ROW % line for line in lines)
    return "\n".join(rows) + "\n"


def lines_to_json_rows(lines: list[SpectrumLine]) -> list[dict]:
    fields = SpectrumLine._fields
    return [dict(zip(fields, line)) for line in lines]

"""Per-point coupling coefficients and the charge-density quadratic.

At every spacetime point the interaction of a charge density rho and a
potential magnitude A is tied together by

    rho^2/(d e^2) - A^3 rho - m^2 d A^4 = 0

with a coupling coefficient d.  For the plain orbital interaction
d = 3*pi/(n^2 h^2) with h = 2*pi; adding a circle vibration replaces
sqrt(n_theta^2 - alpha^2) by sqrt(n_theta^2 - alpha^2) + n_r, giving

    d' = 3*pi / (h^2 * (n_theta^2 + n_r^2 + 2 n_r sqrt(n_theta^2 - alpha^2)))

whose denominator bracket equals (sqrt(n_theta^2 - alpha^2) + n_r)^2
+ alpha^2 identically, so d' is always positive and reduces to
d(n_theta) at n_r = 0.  The quadratic solves in closed form:

    rho = (A^2 e^2 d'/2) * (A +- sqrt(A^2 + 4 m^2/e^2)).

Every function takes scalars or numpy arrays that broadcast together, in
one body, like the solvers of :mod:`circledirac.spectrum`: a scalar call
returns plain floats, and each array entry has the bits of its scalar
call.  Every power is a product (A^3 as A^2*A, A^4 as A^2*A^2), each
factor one correctly rounded IEEE operation, so the bits do not depend
on the CPU or the C library's ``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FloatRange, ZeroCharge, _plain, bound_coupling, quantum_integer, require

__all__ = [
    "ChargeDensitySolution",
    "coefficient_d",
    "coefficient_d_prime",
    "replacement_map",
    "rho_residual",
    "solve_rho",
]

def coefficient_d(n: int) -> float:
    """Orbital coupling coefficient 3*pi/(n^2 h^2) = 3/(4 pi n^2).

    n is an integer >= 1, not ``bool``, or an integer array.
    """
    n = np.asarray(quantum_integer("n", n, 1), dtype=float)
    return _plain(3.0 / (4.0 * np.pi * (n * n)))


def replacement_map(alpha: float, n_theta: int) -> float:
    """sqrt(n_theta^2 - alpha^2) for 0 <= alpha < n_theta, to which callers add n_r.

    Squaring the shifted value and adding alpha^2 reproduces the
    denominator bracket of :func:`coefficient_d_prime` exactly.  n_theta
    is an integer >= 1 (checked before alpha), and both arguments may be
    arrays that broadcast together.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    bound_coupling(alpha, n_theta, allow_zero=True)
    k, a = np.asarray(n_theta, dtype=float), np.asarray(alpha, dtype=float)
    return _plain(np.sqrt(k * k - a * a))


def coefficient_d_prime(alpha: float, n_theta: int, n_r: int) -> float:
    """Coupled coefficient; positive, equal to coefficient_d(n_theta) at n_r = 0.

    n_theta >= 1, then n_r >= 0, then alpha are checked, as by the spectrum
    solvers; the arguments may be arrays that broadcast together.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    n_r = quantum_integer("n_r", n_r, 0)
    root = replacement_map(alpha, n_theta)
    k, r = np.asarray(n_theta, dtype=float), np.asarray(n_r, dtype=float)
    return _plain(3.0 / (4.0 * np.pi * (k * k + r * r + 2.0 * r * root)))


def rho_residual(rho: float, A: float, mass: float, e: float, d: float) -> float:
    """Residual of the charge-density quadratic at rho (d or d' as supplied).

    The arguments may be arrays that broadcast together; a power that
    overflows gives an infinite or NaN residual rather than an error.
    """
    require(np.not_equal(e, 0.0), ZeroCharge, "charge e must be nonzero")
    rho, a, mass, e, d = (np.asarray(x, dtype=float) for x in (rho, A, mass, e, d))
    with np.errstate(all="ignore"):
        a2 = a * a
        return _plain(rho * rho / (d * e * e) - a2 * a * rho - mass * mass * d * (a2 * a2))


@dataclass(frozen=True)
class ChargeDensitySolution:
    """Both closed-form roots with their residuals in the quadratic."""

    A: float
    rho_plus: float
    rho_minus: float
    residual_plus: float
    residual_minus: float


def solve_rho(A: float, mass: float, e: float, d_prime: float) -> ChargeDensitySolution:
    """Closed-form roots rho = (A^2 e^2 d'/2)(A +- sqrt(A^2 + 4 m^2/e^2)).

    Both branches are returned together with the residual of each in the
    quadratic; physical selection is left to the caller.  Raises
    FloatRange when a root or a residual would overflow or be non-finite
    (from |A| of about 1e52 the residuals no longer fit a double); roots
    that underflow are 0.0.

    The arguments may be arrays that broadcast together; every field is
    then an array, each entry with the bits of the scalar call.  An entry
    that fails a check raises the scalar call's error, naming the first
    such row.
    """
    require(np.not_equal(e, 0.0), ZeroCharge, "charge e must be nonzero")
    require(np.greater(d_prime, 0), ValueError, "d_prime must be positive, got {d_prime}",
            d_prime=d_prime)
    a, m, q, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (A, mass, e, d_prime)))
    with np.errstate(all="ignore"):
        a2 = a * a
        s = np.sqrt(a2 + 4.0 * m * m / (q * q))
        front = a2 * q * q * d / 2.0
        # A -+ s cancels catastrophically when 4 m^2/e^2 << A^2; take the
        # well-conditioned branch directly and the other from the exact root
        # product rho_plus * rho_minus = -A^4 e^2 d'^2 m^2.
        product = -(a2 * a2) * q * q * d * d * m * m
        direct_p, direct_m = front * (a + s), front * (a - s)
        positive = a > 0.0
        # when the direct root underflows (|A| below about 1e-160, or 1e-107
        # massless) the other is smaller still and the product form reads
        # 0/0: both roots are 0.0, as at A = 0
        lost = np.where(positive, direct_p, direct_m) == 0.0
        rho_p = np.where(lost, 0.0, np.where(positive, direct_p, product / direct_m + 0.0))
        rho_m = np.where(lost, 0.0, np.where(positive, product / direct_p + 0.0, direct_m))
    fields = (rho_p, rho_m, *rho_residual(np.stack((rho_p, rho_m)), a, m, q, d))
    zero = a == 0.0
    require(zero | np.isfinite(fields).all(axis=0), FloatRange,
            "charge-density roots or residuals at A={A} (mass={mass}, e={e}, "
            "d_prime={d_prime}) leave the float range", A=A, mass=mass, e=e, d_prime=d_prime)
    return ChargeDensitySolution(*(_plain(np.where(zero, 0.0, x)) for x in (a, *fields)))

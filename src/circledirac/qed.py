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

from .errors import (FloatRange, NonpositiveMass, ZeroCharge, _plain, bound_coupling,
                     quantum_integer, require)

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

    With t = A + s for A > 0, A - s otherwise (s the square root), the
    root with A's sign is (e^2 d'/2) t A A and the other -2 d' m^2/t A A:
    neither cancels, and A comes in last, so a root reads 0.0 only where
    its exact value underflows (e = sqrt(alpha), d' = d(1): |A| below
    1.1e-161 at unit mass, 1.1e-107 massless).  Both come with their
    residuals in the quadratic; the caller picks the physical one.  A
    negative or NaN mass raises NonpositiveMass (m = 0, the massless
    branch, is allowed).  Raises FloatRange when a root or a residual would
    overflow or be non-finite: from |A| near 1e52 the residuals leave the
    double range, the roots not.

    The arguments may be arrays that broadcast together; every field is
    then an array, each entry with the bits of the scalar call.  An entry
    that fails a check raises the scalar call's error, naming the first
    such row.
    """
    require(np.not_equal(e, 0.0), ZeroCharge, "charge e must be nonzero")
    require(np.greater(d_prime, 0), ValueError, "d_prime must be positive, got {d_prime}",
            d_prime=d_prime)
    require(np.greater_equal(mass, 0), NonpositiveMass, "mass must be non-negative, got {mass}",
            mass=mass)
    a, m, q, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (A, mass, e, d_prime)))
    with np.errstate(all="ignore"):
        s = np.sqrt(a * a + 4.0 * m * m / (q * q))
        positive = a > 0.0
        t = np.where(positive, a + s, a - s)
        big, small = q * q * d / 2.0 * t * a * a, -2.0 * d * m * m / t * a * a + 0.0
        rho_p, rho_m = np.where(positive, big, small), np.where(positive, small, big)
    fields = (rho_p, rho_m, *rho_residual(np.stack((rho_p, rho_m)), a, m, q, d))
    zero = a == 0.0
    require(zero | np.isfinite(fields).all(axis=0), FloatRange,
            "charge-density roots or residuals at A={A} (mass={mass}, e={e}, "
            "d_prime={d_prime}) leave the float range", A=A, mass=mass, e=e, d_prime=d_prime)
    return ChargeDensitySolution(*(_plain(np.where(zero, 0.0, x)) for x in (a, *fields)))

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FloatRange, SpeedDomain, ZeroCharge, quantum_integer
from .spectrum import QuantumNumbers

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

    n follows the :class:`QuantumNumbers` rule: an integer >= 1, not ``bool``.
    """
    n = quantum_integer("n", n, 1)
    return 3.0 / (4.0 * math.pi * (n * n))


def replacement_map(n_theta: int, alpha: float) -> float:
    """sqrt(n_theta^2 - alpha^2); callers add n_r to extend the orbit coupling.

    Squaring the shifted value and adding alpha^2 reproduces the
    denominator bracket of :func:`coefficient_d_prime` exactly.  n_theta
    follows the :class:`QuantumNumbers` rule.
    """
    n_theta = quantum_integer("n_theta", n_theta, 1)
    if not alpha < n_theta:
        raise SpeedDomain(f"need alpha < n_theta, got alpha={alpha}, n_theta={n_theta}")
    return math.sqrt(n_theta * n_theta - alpha * alpha)


def coefficient_d_prime(qn: QuantumNumbers, alpha: float) -> float:
    """Coupled coefficient; positive, equal to coefficient_d(n_theta) at n_r = 0."""
    root = replacement_map(qn.n_theta, alpha)
    bracket = qn.n_theta * qn.n_theta + qn.n_r * qn.n_r + 2.0 * qn.n_r * root
    return 3.0 / (4.0 * math.pi * bracket)


def rho_residual(rho: float, A: float, mass: float, e: float, d: float) -> float:
    """Residual of the charge-density quadratic at rho (d or d' as supplied)."""
    if e == 0.0:
        raise ZeroCharge("charge e must be nonzero")
    return rho * rho / (d * e * e) - A ** 3 * rho - mass * mass * d * A ** 4


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
    (from |A| of about 1e52 the residuals no longer fit a double).
    """
    if e == 0.0:
        raise ZeroCharge("charge e must be nonzero")
    if not d_prime > 0:
        raise ValueError(f"d_prime must be positive, got {d_prime}")
    if A == 0.0:
        return ChargeDensitySolution(A=0.0, rho_plus=0.0, rho_minus=0.0,
                                     residual_plus=0.0, residual_minus=0.0)
    try:
        s = math.sqrt(A * A + 4.0 * mass * mass / (e * e))
        front = A * A * e * e * d_prime / 2.0
        # A -+ s cancels catastrophically when 4 m^2/e^2 << A^2; take the
        # well-conditioned branch directly and the other from the exact root
        # product rho_plus * rho_minus = -A^4 e^2 d'^2 m^2.
        product = -(A ** 4) * e * e * d_prime * d_prime * mass * mass
        if A > 0.0:
            rho_p = front * (A + s)
            rho_m = product / rho_p + 0.0
        else:
            rho_m = front * (A - s)
            rho_p = product / rho_m + 0.0
        fields = (rho_p, rho_m, rho_residual(rho_p, A, mass, e, d_prime),
                  rho_residual(rho_m, A, mass, e, d_prime))
    except (OverflowError, ZeroDivisionError):  # A**4 overflows, or front underflows to 0
        fields = None
    if fields is None or not all(map(math.isfinite, fields)):
        raise FloatRange(f"charge-density roots or residuals at A={A} (mass={mass}, e={e}, "
                         f"d_prime={d_prime}) leave the float range")
    return ChargeDensitySolution(A, *fields)

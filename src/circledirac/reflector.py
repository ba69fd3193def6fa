"""Reflectors: 2x2 block matrices with zero diagonal and biquaternion blocks.

A :class:`Reflector` represents ``[[0, top], [bottom, 0]]``.  The product
of two reflectors is block-diagonal, represented by :class:`DiagPair`.
The Dirac system is written entirely in terms of such blocks:

    (D - i e A) Phi = Phi M

with D, A, M, Phi all reflectors.  Equating diagonal blocks of both sides
splits it into two quaternionic component equations,

    (D     - i e a     ) phi2 = -phi1 * conj(m)
    (conj. - i e conj(a)) phi1 =  phi2 * m

where lowercase letters are the upper blocks.  The potential multiplies
the wave components on the LEFT and the mass term on the RIGHT; the
block layout forces this ordering and it matters because the algebra
does not commute.

The module holds only this block calculus.  Waves, their derivatives
and the residual check live in :mod:`~circledirac.planewave`.

Both sides are assembled once, by :func:`dirac_lhs_array` and
:func:`dirac_rhs_array`, on coefficient arrays: a reflector or a
DiagPair is a ``(..., 2, 4)`` array (top/upper first), and leading axes
broadcast over points and derivative routes.  :func:`sandwich` is the
library's one rotor sandwich r*x*r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biquaternion import Biquaternion, I0, I1, I2, I3, array_conj, array_mul, array_norm_form
from .errors import NonUnitRotor

__all__ = [
    "Reflector",
    "DiagPair",
    "DiracOperator",
    "reflector_mul",
    "unit_reflector",
    "sandwich",
    "dirac_lhs_array",
    "dirac_rhs_array",
    "reflector_mul_array",
    "STANDARD_UNITS",
    "ARC_TIME_UNITS",
]


@dataclass(frozen=True)
class Reflector:
    """Off-diagonal block matrix [[0, top], [bottom, 0]]."""

    top: Biquaternion
    bottom: Biquaternion

    def __add__(self, other: "Reflector") -> "Reflector":
        return Reflector(self.top + other.top, self.bottom + other.bottom)

    def __sub__(self, other: "Reflector") -> "Reflector":
        return Reflector(self.top - other.top, self.bottom - other.bottom)

    def __neg__(self) -> "Reflector":
        return Reflector(-self.top, -self.bottom)

    def max_abs(self) -> float:
        return max(self.top.max_abs(), self.bottom.max_abs())

    def max_abs_diff(self, other: "Reflector") -> float:
        return (self - other).max_abs()

    def to_array(self) -> np.ndarray:
        """The ``(2, 4)`` coefficient array [top, bottom]."""
        return np.array((self.top.coeffs, self.bottom.coeffs), dtype=complex)

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, 2:] = self.top.to_matrix()
        m[2:, :2] = self.bottom.to_matrix()
        return m


@dataclass(frozen=True)
class DiagPair:
    """Block-diagonal matrix [[upper, 0], [0, lower]]."""

    upper: Biquaternion
    lower: Biquaternion

    def __add__(self, other: "DiagPair") -> "DiagPair":
        return DiagPair(self.upper + other.upper, self.lower + other.lower)

    def __sub__(self, other: "DiagPair") -> "DiagPair":
        return DiagPair(self.upper - other.upper, self.lower - other.lower)

    def __neg__(self) -> "DiagPair":
        return DiagPair(-self.upper, -self.lower)

    def max_abs(self) -> float:
        return max(self.upper.max_abs(), self.lower.max_abs())

    def max_abs_diff(self, other: "DiagPair") -> float:
        return (self - other).max_abs()

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = self.upper.to_matrix()
        m[2:, 2:] = self.lower.to_matrix()
        return m


def reflector_mul(a: Reflector, b: Reflector) -> DiagPair:
    """Reflector times reflector is block-diagonal."""
    return DiagPair(a.top * b.bottom, a.bottom * b.top)


def reflector_mul_array(a, b) -> np.ndarray:
    """:func:`reflector_mul` on ``(..., 2, 4)`` arrays: [a.top*b.bottom, a.bottom*b.top]."""
    return array_mul(a, np.asarray(b)[..., ::-1, :])


def unit_reflector(u: Biquaternion) -> Reflector:
    """The reflector (u, conj(u)) carried by a basis unit or operator symbol."""
    return Reflector(u, u.conj)


# -- rotor sandwich ------------------------------------------------------

def _check_unit(r, tol: float) -> None:
    """Raise NonUnitRotor unless every norm form of r is 1 within tol; names the first bad row."""
    n = np.asarray(r.norm_form() if isinstance(r, Biquaternion) else array_norm_form(r))
    bad = np.abs(n - 1.0) > tol
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        where = f" {list(map(int, at))}" if at else ""
        raise NonUnitRotor(f"rotor{where} norm form {n[at]} differs from 1 by more than {tol}")


def sandwich(r, x, tol: float = 1e-12):
    """Same-factor rotor sandwich r*x*r, the one place the library writes it.

    For a biquaternion x the result is r*x*r.  x, or the rotor r, may
    also be a ``(..., 4)`` coefficient array (rotors broadcast against
    x); the result is then an array.  For a reflector x (r a
    biquaternion) the top block is sandwiched with (r, r) and the bottom
    block with (conj(r), conj(r)); this is the diagonal-rotor action
    DiagPair(r, conj(r)) . X . DiagPair(conj(r), r) written out.
    """
    _check_unit(r, tol)
    if isinstance(x, Reflector) and isinstance(r, Biquaternion):
        rc = r.conj
        return Reflector(r * x.top * r, rc * x.bottom * rc)
    if isinstance(x, Biquaternion) and isinstance(r, Biquaternion):
        return r * x * r
    if not isinstance(x, Biquaternion) and np.shape(x)[-1:] != (4,):
        raise TypeError(f"cannot sandwich object of type {type(x).__name__}")
    r, x = (np.asarray(v.coeffs if isinstance(v, Biquaternion) else v) for v in (r, x))
    return array_mul(array_mul(r, x), r)


# -- the Dirac system ----------------------------------------------------

@dataclass(frozen=True)
class DiracOperator:
    """First-order operator sum_mu u_mu d/dx_mu given by its upper-block units.

    The lower block applies conjugated units.  On charts built from arc
    coordinates the temporal unit is i*i_0: the temporal arc coordinate
    is stored real while the algebra wants it divided by i, and the
    factor i surfaces in the derivative term.  Plain Minkowski-like
    charts use the bare units.
    """

    units: tuple[Biquaternion, Biquaternion, Biquaternion, Biquaternion]

    def transform(self, f: Callable[[Biquaternion], Biquaternion]) -> "DiracOperator":
        """New operator with every unit mapped through f (e.g. a rotor sandwich)."""
        return DiracOperator(tuple(f(u) for u in self.units))

    def to_array(self) -> np.ndarray:
        """The unit reflectors (u, conj(u)) as a ``(4, 2, 4)`` array, one per coordinate mu."""
        return np.array([unit_reflector(u).to_array() for u in self.units])


STANDARD_UNITS = DiracOperator((I0, I1, I2, I3))
ARC_TIME_UNITS = DiracOperator((1j * I0, I1, I2, I3))


def dirac_lhs_array(units, a_pot, e: float, phi, d_phi) -> np.ndarray:
    """(D - i e A) Phi on coefficient arrays, as a ``(..., 2, 4)`` DiagPair array.

    ``units`` is :meth:`DiracOperator.to_array`, ``a_pot`` the ``(2, 4)``
    potential reflector (a, conj(a)), ``phi`` the ``(..., 2, 4)`` wave
    and ``d_phi`` its ``(..., 4, 2, 4)`` derivatives, one per coordinate
    mu.  Leading axes broadcast, so one call covers a batch of points,
    or of points under several derivative routes.  Every term is a
    reflector product, so the potential multiplies the wave components
    on the left.
    """
    return (reflector_mul_array(units, d_phi).sum(axis=-3)
            - (1j * e) * reflector_mul_array(a_pot, phi))


def dirac_rhs_array(phi, m) -> np.ndarray:
    """Phi M on coefficient arrays, with M the reflector (m, -conj(m)) of a ``(4,)`` m."""
    m = np.asarray(m)
    return reflector_mul_array(phi, np.stack((m, -array_conj(m))))

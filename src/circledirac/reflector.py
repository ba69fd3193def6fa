"""Reflectors: 2x2 block matrices with zero diagonal and biquaternion blocks.

A reflector ``[[0, top], [bottom, 0]]`` is held as its ``(..., 2, 4)``
coefficient array [top, bottom].  The product of two reflectors is
block-diagonal, ``[[upper, 0], [0, lower]]``, and is held the same way,
as the array [upper, lower].  The Dirac system is written entirely in
terms of such blocks:

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
and the residual check, which assembles both sides of the system, live
in :mod:`~circledirac.planewave`.

The operator D = sum_mu u_mu d/dx_mu is held the same way, as the
``(4, 2, 4)`` array of its unit reflectors (u_mu, conj(u_mu)), one per
coordinate mu.  :func:`sandwich` is the library's one rotor sandwich
r*x*r.
"""

from __future__ import annotations

import numpy as np

from .biquaternion import Biquaternion, I0, I1, I2, I3, _like, array_conj, array_mul, array_norm_form
from .errors import NonUnitRotor, require

__all__ = [
    "unit_reflector",
    "sandwich",
    "reflector_mul_array",
    "ARC_TIME_UNITS",
]


def reflector_mul_array(a, b) -> np.ndarray:
    """The product of two reflectors on ``(..., 2, 4)`` arrays.

    It is block-diagonal, returned as [a.top*b.bottom, a.bottom*b.top].
    """
    return array_mul(a, np.asarray(b)[..., ::-1, :])


def unit_reflector(u: Biquaternion | np.ndarray) -> np.ndarray:
    """The reflectors (u, conj(u)) ``(..., 2, 4)`` carried by units or symbols ``(..., 4)``."""
    return np.stack((np.asarray(u, dtype=complex), array_conj(u)), axis=-2)


# -- rotor sandwich ------------------------------------------------------

_UNIT_TOL = 1e-12   # how far a rotor's norm form may lie from 1


def sandwich(r, x):
    """Same-factor rotor sandwich r*x*r, the one place the library writes it.

    r and x are each a :class:`Biquaternion` or a ``(..., 4)`` coefficient
    array, rotors broadcast against x, and the result has the type of x.
    Both products are ``array_mul``.  A rotor whose norm form is not 1
    raises :class:`NonUnitRotor`, naming the first such row.
    """
    n = array_norm_form(r)
    require(np.abs(n - 1.0) <= _UNIT_TOL, NonUnitRotor,
            f"rotor norm form {{n}} differs from 1 by more than {_UNIT_TOL}", n=n)
    if np.shape(x)[-1:] != (4,):
        raise TypeError(f"cannot sandwich object of type {type(x).__name__}")
    return _like(x, array_mul(array_mul(r, x), r))


# -- the Dirac operator --------------------------------------------------

# The read-only operator of arc-coordinate charts.  Its temporal unit is i*i_0:
# the temporal arc coordinate is stored real while the algebra wants it divided
# by i, and that i surfaces in the derivative term.  Plain charts use bare units.
ARC_TIME_UNITS = unit_reflector(np.stack((1j * I0, I1, I2, I3)))
ARC_TIME_UNITS.flags.writeable = False


def _operator_array(units) -> np.ndarray:
    """``units`` as an array; ValueError unless it has the operator shape ``(4, 2, 4)``."""
    units = np.asarray(units)
    if units.shape != (4, 2, 4):
        raise ValueError(f"operator needs shape (4, 2, 4), got {units.shape}")
    return units

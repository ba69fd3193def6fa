"""The infinite-velocity (tachyonic) transformation and dashed-frame relations.

On biquaternion coefficients the transformation is the quarter turn

    (c0, c1, c2, c3)  ->  (-c1, c0, c2, c3),

realised as the same-factor rotor sandwich r*x*r with r = (1 + i_1)/sqrt(2)
for x-type quantities and conj(r)*y*conj(r) for conjugated (y-dagger-type)
quantities.  Applied twice it is the exact half turn in the (0, 1)
coefficient plane, i.e. the sandwich with the composed rotor i_1.

On stored-real four-vectors, float arrays ``(..., 4)``, the transformation
is :func:`tachyon_fourvector`, the exchange of the temporal and first
spatial components; the accumulated factors of -i live in the coefficient
map, not in the real components.  The dashed-frame kinematic relations are
that exchange too: (s0', s1') and (eta', mu') are the first two slots of
``tachyon_fourvector`` of (s0, s1, 0, 0) and of (eta, mu, 0, 0), and the
arc-form dot product eta*ds0 + mu*ds1 is invariant under it.  The half turn
(x0, x1) -> (-x0, -x1) of an embedded four-vector is
``unembed(tachyon_double(embed(x)))``.

:func:`component_map`, :func:`tachyon_quaternion` and :func:`tachyon_double`
work on the ``(..., 4)`` coefficient array of their argument, so a batch is
one call, and return the type they were given.  Every rotor product is
:func:`~circledirac.reflector.sandwich`: the dashed mass and potential are
:func:`tachyon_quaternion` of the undashed ones, and :func:`transform_wave`
is one sandwich of the wave's ``(2, 4)`` prefactor with the rotor pair
(r, conj(r)).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .biquaternion import Biquaternion, I1, _fourvectors, _like
from .errors import ZeroArcElement
from .reflector import _operator_array, sandwich, unit_reflector
from .planewave import WaveFunction

__all__ = [
    "component_map",
    "tachyon_quaternion",
    "tachyon_fourvector",
    "tachyon_double",
    "dashed_energy",
    "transform_wave",
    "transform_operator",
    "FAULT_ENV",
]

# Documented test-only fault injection: setting the environment variable
# CIRCLEDIRAC_FAULT to "tachyon-sign" flips one sign in component_map so
# the verification suite must detect the mutation and fail.
FAULT_ENV = "CIRCLEDIRAC_FAULT"

_ROTOR = Biquaternion(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
_EXCHANGE = [1, 0, 2, 3]   # the dashed order of the slots: temporal and first spatial swap


def component_map(x: Biquaternion | np.ndarray) -> Biquaternion | np.ndarray:
    """The transformation written on coefficients: (c0, c1) -> (-c1, c0)."""
    sign = -1.0 if os.environ.get(FAULT_ENV, "") == "tachyon-sign" else 1.0
    c = np.asarray(x)
    return _like(x, np.stack((-c[..., 1], sign * c[..., 0], c[..., 2], c[..., 3]), axis=-1))


def tachyon_quaternion(x: Biquaternion | np.ndarray) -> Biquaternion | np.ndarray:
    """Same-factor sandwich r*x*r with r = (1 + i_1)/sqrt(2)."""
    return sandwich(_ROTOR, x)


def tachyon_fourvector(x) -> np.ndarray:
    """Dashed-frame stored-real four-vectors ``(..., 4)``: temporal and first spatial swap.

    The dashed temporal slot carries what was the first spatial
    component and vice versa; the factors of -i absorbed by the
    stored-real convention are visible only in :func:`component_map`.
    """
    return _fourvectors(x)[..., _EXCHANGE]


def tachyon_double(x: Biquaternion | np.ndarray) -> Biquaternion | np.ndarray:
    """Two applications, via the composed rotor i_1: exact (0,1) half turn."""
    return sandwich(I1, x)


def dashed_energy(ds0: float, ds1: float, eta: float, mu: float) -> float:
    """Dashed-frame interaction energy (eta*ds0 + mu*ds1)/ds1.

    It equals v*ds0/ds1, with v = (eta*ds0 + mu*ds1)/ds0 the undashed
    arc-form energy; the dot product itself is invariant under the dashed
    exchange.
    """
    if ds1 == 0.0:
        raise ZeroArcElement("dashed energy needs a nonzero arc element ds1")
    return (eta * ds0 + mu * ds1) / ds1


# -- covariance of the Dirac system ----------------------------------------

def transform_wave(wave: WaveFunction) -> WaveFunction:
    """Tachyon-transform a plane wave: sandwich the prefactor, swap arc slots.

    The prefactor's rows are sandwiched with r and conj(r), the
    diagonal-rotor action on the wave reflector; the phase in dashed
    coordinates swaps the wavevector's first two components.
    """
    prefactor = sandwich(unit_reflector(_ROTOR), wave.prefactor)
    return WaveFunction(prefactor, tachyon_fourvector(wave.k))


def transform_operator(units) -> np.ndarray:
    """Tachyon-transform a ``(4, 2, 4)`` operator: r*u*r for each unit u, swap arc slots."""
    top = sandwich(_ROTOR, _operator_array(units)[:, 0])
    return unit_reflector(top)[_EXCHANGE]

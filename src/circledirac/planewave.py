"""Plane-wave solutions of the reflector Dirac system and residual checks.

All phases are pure imaginary exponents of real physical products: with
temporal quantities stored real, the bound wave on a circular chart
(s0, s1, r1, r0) reads

    phi1 = exp(i*(mu*s1 - nu*s0))
    phi2 = ((nu - eA) - i*mu*i_1) * inverse(M) * phi1,   M = -i*mass,

and satisfies both component equations of the Dirac system with the
arc-time operator exactly when the dispersion relation

    (nu - eA)^2 = mass^2 + mu^2

holds.  The free wave is the special case mu = 0, eA = 0, nu = mass; its
second component is i*phi1 (the scalar prefactor nu*inverse(M) reduces
to i at rest).

A wave is one reflector, like every term of the Dirac system: a
:class:`WaveFunction` is the ``(2, 4)`` prefactor of (phi1, phi2) and the
wavevector k = (-nu, mu, 0, 0) both share, Phi = prefactor * exp(i k.x).
Over a batch of N points the points sit next to the coefficient axis: the
wave is ``(2, N, 4)``, blocks first, and :func:`residual` assembles both
sides of the system in (route, mu, block, point, coefficient) order, so
each numpy loop runs along the points.

Every factor the residual multiplies the wave by (the operator's unit
reflectors, the potential and the mass) is constant and mostly zero, so
those products are formed over the factor's nonzero slots only
(:func:`_constant_mul`); ``array_mul`` stays the product of general operands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .biquaternion import Biquaternion, I0, array_conj, array_mul, embed
from .errors import (
    DispersionViolation,
    SuperluminalSpeed,
    _plain,
    positive_mass,
    require,
)
from .reflector import ARC_TIME_UNITS, _operator_array, unit_reflector

__all__ = [
    "PlaneWave",
    "WaveFunction",
    "ResidualReport",
    "mass_term",
    "plane_wave_solution",
    "free_solution",
    "bound_solution",
    "residual",
    "de_broglie",
]

# dispersion residual allowed by PlaneWave.is_on_shell, relative to max(1, m^2 + mu^2)
_SHELL_TOL = 1e-10


@dataclass(frozen=True)
class PlaneWave:
    """Parameters of a constant-potential plane-wave solution.

    nu is the frequency (total energy), mu the wavenumber, eA the scalar
    potential energy e*A0 (negative for an attractive bound state).  All
    stored real.
    """

    nu: float
    mu: float
    mass: float
    eA: float = 0.0

    def dispersion_residual(self) -> float:
        """Absolute residual of (nu - eA)^2 - mass^2 - mu^2."""
        k = self.nu - self.eA
        return abs(k * k - self.mass * self.mass - self.mu * self.mu)

    def is_on_shell(self) -> bool:
        scale = max(1.0, self.mass * self.mass + self.mu * self.mu)
        return self.dispersion_residual() <= _SHELL_TOL * scale

    def potential(self) -> tuple[Biquaternion, float]:
        """The embedded potential biquaternion and the charge e.

        Splits eA into e = 1 and A0 = eA so that the Dirac term -i*e*A
        applied to the wave reproduces the stored product.
        """
        return embed((self.eA, 0.0, 0.0, 0.0)), 1.0


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """The wave reflector Phi = (phi1, phi2) = prefactor * exp(i k.x) over chart coordinates.

    ``prefactor`` is the ``(2, 4)`` coefficient array of (phi1, phi2) at
    the origin and ``k`` the real wavevector both components share.  Both
    are stored as read-only copies; any other shape raises ``ValueError``.
    """

    prefactor: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name, dtype in (("prefactor", complex), ("k", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.prefactor.shape != (2, 4) or self.k.shape != (4,):
            raise ValueError(f"a wave needs a (2, 4) prefactor and a (4,) wavevector, "
                             f"got {self.prefactor.shape} and {self.k.shape}")

    def at(self, points) -> np.ndarray:
        """The wave ``(2, ..., 4)`` at points ``(..., 4)``, blocks first; ``(2, 4)`` at one point."""
        # products and sums in coordinate order, elementwise over the points, so a
        # point's phase does not depend on its position in the batch (a matmul's can)
        p, (k0, k1, k2, k3) = np.asarray(points, dtype=float), self.k
        phase = ((p[..., 0] * k0 + p[..., 1] * k1) + p[..., 2] * k2) + p[..., 3] * k3
        phases = np.exp(1j * phase)
        return self.prefactor.reshape((2,) + (1,) * phases.ndim + (4,)) * phases[..., None]


def mass_term(mass: float) -> Biquaternion:
    """Scalar mass biquaternion -i*mass; its norm form is -mass^2."""
    return Biquaternion(-1j * mass)


def plane_wave_solution(nu: float, mu: float, mass: float, eA: float = 0.0) -> WaveFunction:
    """Assemble the plane-wave pair without checking the dispersion relation.

    Deliberately off-shell waves are useful for exercising the residual
    harness; :func:`bound_solution` is the checked entry point.
    """
    positive_mass(mass)
    # ((nu - eA)*i_0 - i*mu*i_1) * inverse(-i*mass), inverse = i/mass
    c2 = Biquaternion(1j * (nu - eA) / mass, mu / mass)
    return WaveFunction((I0, c2), (-nu, mu, 0.0, 0.0))


def free_solution(mass: float) -> WaveFunction:
    """Rest-frame wave exp(-i*mass*s0) on a temporal circle chart."""
    return plane_wave_solution(nu=mass, mu=0.0, mass=mass, eA=0.0)


def bound_solution(pw: PlaneWave) -> WaveFunction:
    """Checked plane-wave solution for a constant potential."""
    if not pw.is_on_shell():
        raise DispersionViolation(pw.dispersion_residual())
    return plane_wave_solution(pw.nu, pw.mu, pw.mass, pw.eA)


@dataclass(frozen=True)
class ResidualReport:
    """Maximum Dirac-equation residual over the sampled points."""

    fd: float
    analytic: float


def _central_difference(wave: WaveFunction, points: np.ndarray, h: float, out: np.ndarray) -> None:
    """Central differences of the wave at points ``(N, 4)`` for every mu, into ``out`` ``(4, 2, N, 4)``.

    Evaluates the wave at all 8N shifted points p +- h e_mu in one call.
    ``out`` must be C-contiguous: the quotient by 2h is taken as the real
    product of its float view by 1/(2h), which is what numpy's complex /
    real computes.
    """
    step = h * np.eye(4)
    values = wave.at(points + np.stack((step, -step))[:, :, None, :])   # (block, +-, mu, N, 4)
    np.subtract(values[:, 0], values[:, 1], out=out.swapaxes(0, 1))
    flat = out.view(float)
    flat *= 1.0 / (2.0 * h)


# _UNIT_SIGNS[k, c]: the sign of the term a_k * b_(k ^ c) in slot c of array_mul(a, b),
# read off array_mul itself: i_k i_j = +-i_(k ^ j)
_SLOTS = np.arange(4)
_UNIT_SIGNS = array_mul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])[
    _SLOTS[:, None], _SLOTS[:, None] ^ _SLOTS, _SLOTS].real


@functools.lru_cache(maxsize=None)
def _term_slots(nonzero: tuple, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """The terms of a product whose constant factor is nonzero in the slots flagged ``nonzero``.

    ``array_mul(a, b)`` forms slot c as the sum, in the order of a's slots
    k, of ``s(k, c) * a_k * b_(k ^ c)``; the other terms are +-0.  Returns,
    per kept term and c, the other operand's slot and the index of
    ``s * factor slot`` in the factor's coefficients followed by their
    negatives, each ``(term, 4)``.
    """
    nonzero = np.flatnonzero(nonzero)[:, None]
    if right:   # the operand is a: its slots in order, for each c
        left_slots = np.sort(nonzero ^ _SLOTS, axis=0)
    else:
        left_slots = np.repeat(nonzero, 4, axis=1)
    other_slots = left_slots ^ _SLOTS
    factor_slots, operand_slots = (other_slots, left_slots) if right else (left_slots, other_slots)
    return operand_slots, factor_slots + 4 * (_UNIT_SIGNS[left_slots, _SLOTS] < 0)


@functools.lru_cache(maxsize=64)
def _plan(data: bytes, shape: tuple, right: bool) -> tuple:
    """The kept terms of a product by the constant complex factor ``data`` ``(..., 4)``.

    Each term is the operand's slot per c ``(4,)`` and the factor's signed
    coefficients ``(..., 4)``, read-only; a factor slot that is zero
    everywhere keeps no term.
    """
    factor = np.frombuffer(data, dtype=complex).reshape(shape)
    nonzero = tuple(factor.reshape(-1, 4).any(axis=0).tolist())
    operand_slots, signed_slots = _term_slots(nonzero, right)
    coeffs = np.concatenate((factor, -factor), axis=-1)[..., signed_slots]   # (..., term, c)
    coeffs.flags.writeable = False
    return tuple((slots, coeffs[..., t, :]) for t, slots in enumerate(operand_slots))


def _constant_mul(factor, x: np.ndarray, right: bool = False) -> np.ndarray:
    """``array_mul(factor, x)``, or ``array_mul(x, factor)`` when ``right``, for a constant factor.

    Sums the factor's nonzero terms in array_mul's order, each as one
    complex product in array_mul's operand order with the sign folded into
    the factor, which is exact.  So every nonzero bit is array_mul's; only
    where x is not finite, or a slot sums to zero, can the result differ
    (a dropped 0 * inf, the sign of a zero).
    """
    factor = np.asarray(factor, dtype=complex)
    terms = _plan(factor.tobytes(), factor.shape, right)
    if not terms:
        return np.zeros(np.broadcast_shapes(factor.shape, x.shape), dtype=complex)
    out = None
    for slots, coeffs in terms:
        term = x[..., slots].astype(complex, copy=False)   # a new array: the product goes in place
        if right:
            np.multiply(term, coeffs, out=term)
        else:
            np.multiply(coeffs, term, out=term)
        out = term if out is None else np.add(out, term, out=out)
    return out


def _dirac_sides(operator: np.ndarray, a_pot, e: float, m, phi: np.ndarray,
                 d_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D - i e A) Phi and Phi M as block-diagonal arrays ``(..., 2, N, 4)``.

    ``phi`` is the wave ``(2, N, 4)`` at N points and ``d_phi`` its
    derivatives ``(..., 4, 2, N, 4)``, one per coordinate mu; ``operator``
    is ``(4, 2, 4)`` and M the reflector (m, -conj(m)).  Every term is a
    reflector product, the right factor's blocks swapped: the potential
    multiplies the wave components on the left and the mass on the right.
    Each is :func:`_constant_mul`, so it costs one complex product per
    nonzero slot of the constant factor, and the operator's terms are
    summed over mu in order.  Each numpy loop runs along the points.
    """
    d_phi = d_phi[..., ::-1, :, :]
    lhs = _constant_mul(operator[0, :, None, :], d_phi[..., 0, :, :, :])
    for mu in range(1, 4):
        lhs += _constant_mul(operator[mu, :, None, :], d_phi[..., mu, :, :, :])
    lhs -= (1j * e) * _constant_mul(unit_reflector(a_pot)[:, None, :], phi[::-1])
    m = np.asarray(m)
    return lhs, _constant_mul(np.stack((-array_conj(m), m))[:, None, :], phi, right=True)


def residual(wave: WaveFunction,
             a_pot: Biquaternion | np.ndarray,
             e: float,
             m: Biquaternion | np.ndarray,
             points: Sequence[np.ndarray],
             h: float = 1e-5,
             operator: np.ndarray = ARC_TIME_UNITS) -> ResidualReport:
    """Max-norm residual of (D - i e A) Phi - Phi M over the given points.

    The library's one evaluation of the Dirac system: a single point is
    a batch of one.

    Evaluates second-order central differences with step h, from the
    wave's values at the 8N shifted points p +- h e_mu, and the analytic
    derivatives i k_mu Phi.  All N points and both routes are assembled
    in one numpy pass, in (route, mu, block, point, coefficient) order.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    operator = _operator_array(operator)
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return ResidualReport(fd=0.0, analytic=0.0)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"points need shape (N, 4), got {p.shape}")
    phi = wave.at(p)
    d_phi = np.empty((2, 4) + phi.shape, dtype=complex)   # (route, mu, block, point, coefficient)
    _central_difference(wave, p, h, out=d_phi[0])
    np.multiply((1j * wave.k)[:, None, None, None], phi, out=d_phi[1])
    lhs, rhs = _dirac_sides(operator, a_pot, e, m, phi, d_phi)
    worst = np.abs(lhs - rhs).max(axis=(1, 2, 3))
    return ResidualReport(fd=float(worst[0]), analytic=float(worst[1]))


def de_broglie(mass: float, v: float) -> tuple[float, float]:
    """Energy and momentum (eta, mu) of a free particle at speed v.

    eta = mass/sqrt(1 - v^2), mu = mass*v/sqrt(1 - v^2); they satisfy
    eta^2 - mu^2 = mass^2 and mu/eta = v.  mass and v may be arrays that
    broadcast together; scalars give plain floats.
    """
    positive_mass(mass)
    require(np.abs(v) < 1.0, SuperluminalSpeed, "|v| must be below 1, got {v}", v=v)
    with np.errstate(all="ignore"):
        gamma = 1.0 / np.sqrt(1.0 - np.multiply(v, v))
        eta, mu = mass * gamma, mass * v * gamma
    return _plain(eta), _plain(mu)

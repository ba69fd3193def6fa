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
:class:`WaveFunction` is the ``(2, 4)`` prefactor P of (phi1, phi2) and the
wavevector k = (-nu, mu, 0, 0) both share, Phi = P * z with the scalar
phase z = exp(i k.x).  Over a batch of N points the wave is ``(2, N, 4)``,
blocks first.  A complex scalar commutes with every reflector, so each
term of the system is a constant product of P (by an operator unit, the
potential or the mass) times z or a derivative of z: :func:`residual`
forms those products once, with one ``array_mul``, and differentiates z
alone, along all four coordinates, with the points innermost in every
numpy loop (:func:`_sides`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .biquaternion import Biquaternion, array_mul, embed
from .errors import (
    DispersionViolation,
    SuperluminalSpeed,
    _plain,
    positive_mass,
    require,
)
from .reflector import ARC_TIME_UNITS, _operator_array

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
    the origin and ``k`` the real wavevector both components share.  Both are
    stored as read-only C-ordered copies; any other shape raises ``ValueError``.
    """

    prefactor: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name, dtype in (("prefactor", complex), ("k", float)):
            value = np.array(getattr(self, name), dtype=dtype, order="C")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.prefactor.shape != (2, 4) or self.k.shape != (4,):
            raise ValueError(f"a wave needs a (2, 4) prefactor and a (4,) wavevector, "
                             f"got {self.prefactor.shape} and {self.k.shape}")

    def at(self, points) -> np.ndarray:
        """The wave ``(2, ..., 4)`` at points ``(..., 4)``, blocks first; ``(2, 4)`` at one point."""
        phases = np.exp(1j * self._phase(np.asarray(points, dtype=float)))
        return self.prefactor.reshape((2,) + (1,) * phases.ndim + (4,)) * phases[..., None]

    def _phase(self, p: np.ndarray) -> np.ndarray:
        """The phase k.x ``(...)`` at float points ``(..., 4)``."""
        # products and sums in coordinate order, elementwise over the points, so a
        # point's phase does not depend on its position in the batch (a matmul's can)
        k0, k1, k2, k3 = self.k
        return ((p[..., 0] * k0 + p[..., 1] * k1) + p[..., 2] * k2) + p[..., 3] * k3


def mass_term(mass: float) -> Biquaternion:
    """Scalar mass biquaternion -i*mass; its norm form is -mass^2."""
    return Biquaternion(-1j * mass)


def plane_wave_solution(nu: float, mu: float, mass: float, eA: float = 0.0) -> WaveFunction:
    """Assemble the plane-wave pair without checking the dispersion relation.

    Deliberately off-shell waves are useful for exercising the residual
    harness; :func:`bound_solution` is the checked entry point.
    """
    positive_mass(mass)
    # phi1 = I0 and phi2 = ((nu - eA)*i_0 - i*mu*i_1) * inverse(-i*mass), inverse = i/mass,
    # each coefficient converted by complex() as Biquaternion(c0, c1) would
    c0, c1 = complex(1j * (nu - eA) / mass), complex(mu / mass)
    return WaveFunction(((1.0, 0.0, 0.0, 0.0), (c0, c1, 0.0, 0.0)), (-nu, mu, 0.0, 0.0))


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


# the steps from a point to where residual reads the phase, (step, coordinate): a zero
# step (p + -0.0 is p, bit for bit), then +e_mu and -e_mu for mu = 0..3; times h the
# last eight are h * eye(4) and its negative, bit for bit
_STEPS = np.concatenate((np.full((1, 4), -0.0), np.eye(4), -np.eye(4)))


def _phase_derivatives(wave: WaveFunction, p: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The scalar phase z = exp(i k.x) ``(N,)`` at float points ``(N, 4)`` and its derivatives
    ``(route, mu, N)``: the central difference (z(p + h e_mu) - z(p - h e_mu)) / 2h, as the
    float view times 1/(2h) (numpy's complex / real), then the analytic i k_mu z(p)."""
    z = np.exp(1j * wave._phase(p + (h * _STEPS)[:, None, :]))   # (step, N)
    d = np.empty((2, 4, len(p)), dtype=complex)
    np.subtract(z[1:5], z[5:], out=d[0])
    flat = d[0].view(float)
    flat *= 1.0 / (2.0 * h)
    np.multiply((1j * wave.k)[:, None], z[0], out=d[1])
    return z[0], d


def _sides(wave: WaveFunction, a_pot, e: float, m, p: np.ndarray, h: float,
           operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D - i e A) Phi ``(route, block, N, 4)`` and Phi M ``(block, N, 4)`` at float points
    ``(N, 4)``, the routes as in :func:`_phase_derivatives`.

    Phi is its prefactor P times the scalar phase z, and a complex scalar
    commutes with every reflector, so each term is a constant product times z
    or a derivative of z.  One ``array_mul`` forms the six products: each
    operator unit u_mu and the potential (a, conj a) against P's swapped
    blocks, and P against the mass's swapped blocks (-conj m, m).  They are
    multiplied by the scalars with the points innermost, and each point's
    sum over mu runs in order, so no bit depends on the batch.
    """
    left, right = np.empty((2, 6, 2, 4), dtype=complex)
    left[:4], left[4], left[5] = operator, a_pot, wave.prefactor
    right[:5], right[5] = wave.prefactor[::-1], m
    np.negative(left[4, 1, 1:], out=left[4, 1, 1:])     # conj a
    np.negative(right[5, 0, :1], out=right[5, 0, :1])   # -conj m
    products = array_mul(left, right)[..., None]   # (product, block, 4, 1)
    z, d = _phase_derivatives(wave, p, h)
    terms = products[:4] * d[:, :, None, None, :]   # (route, mu, block, 4, N)
    lhs = terms[:, 0] + terms[:, 1]
    lhs += terms[:, 2]
    lhs += terms[:, 3]
    lhs -= ((1j * e) * products[4]) * z
    return lhs.swapaxes(-1, -2), (products[5] * z).swapaxes(-1, -2)


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
    wave's phase at the shifted points p +- h e_mu, and the analytic
    derivatives i k_mu Phi, each along all four coordinates.  Both sides
    are assembled in one numpy pass from the constant products of the
    prefactor (:func:`_sides`).
    """
    if not 0 < h < math.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    operator = _operator_array(operator)
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return ResidualReport(fd=0.0, analytic=0.0)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"points need shape (N, 4), got {p.shape}")
    lhs, rhs = _sides(wave, a_pot, e, m, p, h, operator)
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

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
each numpy loop runs along the points.  Only the coordinates the wave
moves along are differenced: along the others every term is an exact
zero (:func:`_moving`).

Every factor the residual multiplies the wave by (the operator's unit
reflectors, the potential and the mass) is constant and mostly zero, so
those products are formed over the factor's nonzero slots only
(:func:`_sum_terms`); ``array_mul`` stays the product of general operands.
One reader (:func:`_terms`) takes each as biquaternion rows and a layout
of them: the operator is read once, a new potential and mass off v.
"""

from __future__ import annotations

import functools
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
        return self._values(self._phase(np.asarray(points, dtype=float)))

    def _phase(self, p: np.ndarray) -> np.ndarray:
        """The phase k.x ``(...)`` at float points ``(..., 4)``."""
        # products and sums in coordinate order, elementwise over the points, so a
        # point's phase does not depend on its position in the batch (a matmul's can)
        k0, k1, k2, k3 = self.k
        return ((p[..., 0] * k0 + p[..., 1] * k1) + p[..., 2] * k2) + p[..., 3] * k3

    def _values(self, phase: np.ndarray) -> np.ndarray:
        """The wave ``(2, ..., 4)`` at phases ``(...)``: prefactor * exp(i phase)."""
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


# the steps from a point to where residual reads the wave, (step, coordinate): a zero
# step (p + -0.0 is p, bit for bit), then +e_mu and -e_mu for mu = 0..3; times h the
# last eight are h * eye(4) and its negative, bit for bit
_STEPS = np.concatenate((np.full((1, 4), -0.0), np.eye(4), -np.eye(4)))
_DIRECTIONS = (0, 1, 2, 3)
# a prefactor coefficient below this in both parts keeps its product with a unit
# phase finite: |a c - b d| <= |a| + |b| < 2^1023 when |c|, |d| <= 1
_SAFE_PREFACTOR = 2.0 ** 1022


def _moving(wave: WaveFunction, finite_units: tuple, h: float, shifted: np.ndarray) -> tuple:
    """The directions mu whose derivative terms can be nonzero, in order.

    ``shifted`` is the wave's phase at p +- h e_mu ``(+-, mu, N)``.  A
    direction is still when k_mu == 0 and both shifts give every point the
    same finite phase: its central difference is then (v - v) / 2h = +0 and
    its analytic derivative 0j * Phi (the phase at p is the shifted one up
    to the sign of a zero), so each of its operator terms is an exact +-0.
    That needs finite values, a finite 1/(2h) and a finite operator unit
    (``finite_units``, one flag per mu); failing any, every direction is
    kept, so a NaN or inf comes out as before.  The phases decide, not k
    alone: a phase that moves along x_mu while k_mu == 0 keeps mu.
    """
    k = wave.k.tolist()
    still = [mu for mu in _DIRECTIONS if k[mu] == 0.0 and finite_units[mu]]
    if not still:
        return _DIRECTIONS
    same = ((shifted[0] - shifted[1]) == 0).all(axis=-1).tolist()   # x - y == 0: equal and finite
    still = [mu for mu in still if same[mu]]
    if (not still or not math.isfinite(1.0 / (2.0 * h))
            or not np.abs(wave.prefactor.view(float)).max() < _SAFE_PREFACTOR):
        return _DIRECTIONS
    return tuple(mu for mu in _DIRECTIONS if mu not in still)


@functools.lru_cache(maxsize=None)
def _reads(moving: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``_STEPS`` residual reads the wave at for the directions ``moving``:
    the zero step, then each +e_mu, then each -e_mu; and ``moving`` as an index array."""
    index = np.array(moving, dtype=int)
    rows = np.concatenate(([0], 1 + index, 5 + index))
    rows.flags.writeable = index.flags.writeable = False
    return rows, index


def _central_difference(values: np.ndarray, h: float, out: np.ndarray) -> None:
    """Central differences of the wave, into ``out`` ``(K, 2, N, 4)``.

    ``values`` is the wave ``(2, 2K, N, 4)`` at p + h e_mu and then at
    p - h e_mu, for the K differenced directions mu: :func:`residual`
    differences only the directions :func:`_moving` keeps, since in the
    others both shifts give the same value and the difference is an exact
    zero.  ``out`` must be C-contiguous: the quotient by 2h is taken as the
    real product of its float view by 1/(2h), which is what numpy's
    complex / real computes.
    """
    k = len(out)
    np.subtract(values[:, :k], values[:, k:], out=out.swapaxes(0, 1))
    flat = out.view(float)
    flat *= 1.0 / (2.0 * h)


# _UNIT_SIGNS[k, c]: the sign of the term a_k * b_(k ^ c) in slot c of array_mul(a, b),
# read off array_mul itself: i_k i_j = +-i_(k ^ j)
_SLOTS = np.arange(4)
_UNIT_SIGNS = array_mul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])[
    _SLOTS[:, None], _SLOTS[:, None] ^ _SLOTS, _SLOTS].real


# How a factor reads biquaternion rows S: per block, the row it reads and each slot's sign.
# An operator unit reads its two rows; the potential (v, conj v) and mass (-conj v, v) read v twice.
_OWN_ROWS = ((0, (1, 1, 1, 1)), (1, (1, 1, 1, 1)))
_POTENTIAL = ((0, (1, 1, 1, 1)), (0, (1, -1, -1, -1)))
_MASS = ((0, (-1, 1, 1, 1)), (0, (1, 1, 1, 1)))


@functools.lru_cache(maxsize=None)
def _plan(nonzero: bytes, layout: tuple, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """The terms of a product by the factor ``layout`` reads from R rows S, nonzero where
    flagged by the bytes of an ``(R, 4)`` bool array.

    ``array_mul(a, b)`` forms slot c as the sum, in the order of a's slots
    k, of ``s(k, c) * a_k * b_(k ^ c)``; a term whose factor slot is zero in
    every row is +-0 and dropped.  Returns per kept term the other operand's
    slot per c ``(term, 4)``, and the index ``(term, 2, 1, 4)`` of each
    block's signed coefficient in (S, -S) flattened.
    """
    flags = np.frombuffer(nonzero, dtype=bool).reshape(-1, 4)
    kept = np.flatnonzero(flags.any(axis=0))[:, None]
    # a's slots per c, in order: the factor's kept slots, or those that pair with them
    a_slots = np.sort(kept ^ _SLOTS, axis=0) if right else np.repeat(kept, 4, axis=1)
    b_slots = a_slots ^ _SLOTS
    factor_slots, operand_slots = (b_slots, a_slots) if right else (a_slots, b_slots)
    rows, signs = (np.array(column) for column in zip(*layout))
    negative = (_UNIT_SIGNS[a_slots, _SLOTS] < 0)[..., None] ^ (signs.T[factor_slots] < 0)
    index = (flags.size * negative + 4 * rows + factor_slots[..., None])[:, None]
    index.flags.writeable = False
    # the block axis innermost: with another layout, numpy's loops stop running along the points
    return operand_slots, index.transpose(0, 3, 1, 2)


def _terms(source, layout: tuple, right: bool) -> tuple:
    """The kept terms (:func:`_plan`) of a product by the factor ``layout`` reads from
    ``source``, the rows of S one after another ``(4R,)``: per term, the operand's
    slot per c ``(4,)`` and the signed coefficients ``(2, 1, 4)``."""
    source = np.asarray(source, dtype=complex)
    operand_slots, index = _plan((source != 0).tobytes(), layout, right)
    signed = np.empty(2 * len(source), dtype=complex)
    signed[:len(source)] = source
    np.negative(source, out=signed[len(source):])
    return tuple(zip(operand_slots, signed[index]))


@functools.lru_cache(maxsize=16)
def _operator_plan(data: bytes) -> tuple[tuple, tuple]:
    """The terms of each unit of the complex operator ``(4, 2, 4)`` given by its bytes,
    and whether each unit is finite."""
    units = np.frombuffer(data, dtype=complex).reshape(4, 8)
    finite = tuple(np.isfinite(units).all(axis=1).tolist())
    terms = tuple(_terms(u, _OWN_ROWS, right=False) for u in units)
    for _, coeffs in (term for unit in terms for term in unit):
        coeffs.flags.writeable = False
    return terms, finite


def _plan_of(operator: np.ndarray) -> tuple[tuple, tuple]:
    """:func:`_operator_plan` of an operator array."""
    return _operator_plan(np.asarray(operator, dtype=complex).tobytes())


def _sum_terms(terms: tuple, x: np.ndarray, right: bool = False) -> np.ndarray:
    """``array_mul(factor, x)``, or ``array_mul(x, factor)`` when ``right``, from the
    factor's kept terms (:func:`_terms`).

    Sums the terms in array_mul's order, each as one complex product in
    array_mul's operand order with the sign folded into the factor, which
    is exact.  So every nonzero bit is array_mul's; only where an operand
    is not finite, or a slot sums to zero, can the result differ (a dropped
    0 * inf, the sign of a zero or a NaN).  No terms give zeros of x's shape.
    """
    out = None
    for slots, coeffs in terms:
        term = x[..., slots].astype(complex, copy=False)   # a new array: the product goes in place
        if right:
            np.multiply(term, coeffs, out=term)
        else:
            np.multiply(coeffs, term, out=term)
        out = term if out is None else np.add(out, term, out=out)
    return np.zeros(x.shape, dtype=complex) if out is None else out


def _dirac_sides(units: tuple, a_pot, e: float, m, phi: np.ndarray,
                 d_phi: np.ndarray, moving: tuple = _DIRECTIONS) -> tuple[np.ndarray, np.ndarray]:
    """(D - i e A) Phi and Phi M as block-diagonal arrays ``(..., 2, N, 4)``.

    ``phi`` is the wave ``(2, N, 4)`` at N points and ``d_phi`` its
    derivatives ``(..., K, 2, N, 4)`` along the K coordinates ``moving``;
    ``units`` is the operator's terms (:func:`_plan_of`) and M the
    reflector (m, -conj(m)).  Every term is a reflector product, the right
    factor's blocks swapped: the potential multiplies the wave components
    on the left and the mass on the right.  Each costs one complex product
    per nonzero slot of the constant factor (:func:`_sum_terms`), and the
    operator's terms are summed over mu in order; a direction left out of
    ``moving`` adds nothing.  Each numpy loop runs along the points.
    """
    d_phi = d_phi[..., ::-1, :, :]
    lhs = None
    for i, mu in enumerate(moving):
        term = _sum_terms(units[mu], d_phi[..., i, :, :, :])
        lhs = term if lhs is None else np.add(lhs, term, out=lhs)
    if lhs is None:
        lhs = np.zeros(d_phi.shape[:-4] + phi.shape, dtype=complex)
    lhs -= (1j * e) * _sum_terms(_terms(a_pot, _POTENTIAL, right=False), phi[::-1])
    return lhs, _sum_terms(_terms(m, _MASS, right=True), phi, right=True)


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
    wave's values at the shifted points p +- h e_mu, and the analytic
    derivatives i k_mu Phi.  Both routes take only the directions mu the
    wave moves in (:func:`_moving`): a direction with k_mu == 0 whose two
    shifts give every point the same finite phase adds an exact +-0 to
    every term on both routes, so it is left out and the report keeps its
    bits.  The library's waves have k = (-nu, mu, 0, 0), or its first two
    slots swapped, so x2 and x3 are never differenced.  All N points and
    both routes are assembled in one numpy pass, in (route, mu, block,
    point, coefficient) order.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    units, finite = _plan_of(_operator_array(operator))
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return ResidualReport(fd=0.0, analytic=0.0)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"points need shape (N, 4), got {p.shape}")
    phase = wave._phase(p + (h * _STEPS)[:, None, :])   # (step, N): p, p + h e_mu, p - h e_mu
    moving = _moving(wave, finite, h, phase[1:].reshape(2, 4, -1))
    rows, index = _reads(moving)
    values = wave._values(phase[rows])   # (block, 1 + 2K, N, 4)
    phi = values[:, 0]
    d_phi = np.empty((2, len(moving)) + phi.shape, dtype=complex)   # (route, mu, block, point, coefficient)
    _central_difference(values[:, 1:], h, out=d_phi[0])
    np.multiply((1j * wave.k[index])[:, None, None, None], phi, out=d_phi[1])
    lhs, rhs = _dirac_sides(units, a_pot, e, m, phi, d_phi, moving)
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

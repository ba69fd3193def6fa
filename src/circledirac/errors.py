"""Exception types shared across the library.

All domain errors derive from :class:`CircleDiracError`, which itself
derives from ``ValueError`` so callers may catch either.  The module
also holds :func:`quantum_integer`, the one rule for integer quantum
numbers, so every module can import it without an import cycle.
"""

import operator


class CircleDiracError(ValueError):
    """Base class for all domain errors raised by this library."""


class NonUnitRotor(CircleDiracError):
    """Rotor does not satisfy r * conj(r) = 1 within tolerance."""


class NonpositiveRadiusParameter(CircleDiracError):
    """A circle radius parameter (R0 or R1) must be strictly positive."""


class LightConePoint(CircleDiracError):
    """Temporal polar inversion is undefined on or inside the light cone."""


class NonpositiveMass(CircleDiracError):
    """Rest mass must be strictly positive."""


class SuperluminalSpeed(CircleDiracError):
    """Speed magnitude must be below 1 (c = 1 units)."""


class SpeedDomain(CircleDiracError):
    """Coupling too strong: alpha must be below n_theta so the orbital speed stays below 1."""


class DispersionViolation(CircleDiracError):
    """Plane-wave parameters break the dispersion relation.

    Carries the absolute residual of (nu - eA)^2 - mass^2 - mu^2.
    """

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"dispersion relation violated, residual {residual:.3e}")


class InvalidQuantumNumber(CircleDiracError):
    """Quantum numbers must satisfy n_theta >= 1, n_r >= 0."""


def quantum_integer(name: str, value, low: int) -> int:
    """``value`` as a plain int >= low; bools and non-integers are rejected.

    Accepts anything ``operator.index`` accepts (such as numpy integers),
    but not ``bool``; raises :class:`InvalidQuantumNumber` otherwise.
    """
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low:
        raise InvalidQuantumNumber(f"{name} must be an integer >= {low}, got {value!r}")
    return number


class ZeroCharge(CircleDiracError):
    """Charge e must be nonzero for the charge-density solve."""


class FloatRange(CircleDiracError):
    """A result would overflow or be non-finite in double precision."""


class ZeroArcElement(CircleDiracError):
    """Arc element ds1 must be nonzero for the dashed-frame energy."""

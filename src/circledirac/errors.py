"""Exception types shared across the library.

All domain errors derive from :class:`CircleDiracError`, which itself
derives from ``ValueError`` so callers may catch either.  The module
also holds the checks every module shares without an import cycle:
:func:`require`, which names the first failing entry of an array
argument, :func:`quantum_integer`, the one rule for integer quantum
numbers, :func:`positive_mass` and :func:`bound_coupling`; and
:func:`_plain`, the one rule for what a kernel returns: a plain float for
a scalar call, an array for an array call.  Only the exception classes
are listed in ``__all__``.
"""

import operator

import numpy as np

__all__ = [
    "CircleDiracError",
    "NonUnitRotor",
    "NonpositiveRadiusParameter",
    "LightConePoint",
    "NonpositiveMass",
    "SuperluminalSpeed",
    "SpeedDomain",
    "DispersionViolation",
    "InvalidQuantumNumber",
    "ZeroCharge",
    "FloatRange",
    "ZeroArcElement",
]


class CircleDiracError(ValueError):
    """Base class for all domain errors raised by this library."""


class NonUnitRotor(CircleDiracError):
    """Rotor does not satisfy r * conj(r) = 1 within tolerance."""


class NonpositiveRadiusParameter(CircleDiracError):
    """A circle radius parameter (R0 or R1) must be strictly positive."""


class LightConePoint(CircleDiracError):
    """Temporal polar inversion is undefined on or inside the light cone."""


class NonpositiveMass(CircleDiracError):
    """Rest mass must be strictly positive; non-negative where the massless branch is allowed."""


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


def require(ok, error: type[Exception], message: str, **values) -> None:
    """Raise ``error`` unless every entry of the boolean (array) ``ok`` is true.

    ``message`` is a format string, filled with ``values`` (each
    broadcasting against ``ok``) at the first entry that fails, in C
    order, as plain Python numbers.  For an array ``ok`` the message
    starts with that entry's row: ``row 3: ...``, or ``row (0, 2): ...``
    in two or more dimensions.  A scalar check gives the bare message.
    """
    if ok is True or ok is np.True_:   # a passing scalar check, such as np.greater of floats
        return
    ok = np.asarray(ok)
    if ok.all() if ok.ndim else ok:
        return
    index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    text = message.format(**{key: np.broadcast_to(value, ok.shape)[index].item()
                             for key, value in values.items()})
    if index:
        text = f"row {index[0] if len(index) == 1 else index}: {text}"
    raise error(text)


def _plain(x):
    """A 0-d result as a plain Python float; an array as it is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def quantum_integer(name: str, value, low: int):
    """``value`` as a plain int >= low; bools and non-integers are rejected.

    Accepts anything ``operator.index`` accepts (such as numpy integers),
    but not ``bool``, and also a numpy integer array of one or more
    dimensions, returned as it is; raises :class:`InvalidQuantumNumber`
    otherwise, naming the first entry of an array that is below ``low``.
    """
    if type(value) is int and value >= low:
        return value
    if isinstance(value, np.ndarray) and value.ndim:
        if value.dtype.kind not in "iu":
            raise InvalidQuantumNumber(f"{name} must be an integer >= {low}, "
                                       f"got an array of dtype {value.dtype}")
        require(value >= low, InvalidQuantumNumber,
                f"{name} must be an integer >= {low}, got {{value!r}}", value=value)
        return value
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low:
        raise InvalidQuantumNumber(f"{name} must be an integer >= {low}, got {value!r}")
    return number


def positive_mass(mass, name: str = "mass") -> None:
    """Raise :class:`NonpositiveMass` unless every entry of ``mass`` is > 0 (NaN is not)."""
    # a plain float is compared by Python, without numpy's round trip
    require(mass > 0 if type(mass) is float else np.greater(mass, 0), NonpositiveMass,
            f"{name} must be positive, got {{mass}}", mass=mass)


def bound_coupling(alpha, n_theta, allow_zero: bool = False) -> None:
    """Raise :class:`SpeedDomain` unless 0 < alpha < n_theta (0 <= alpha with ``allow_zero``)."""
    # compare alpha itself: alpha/n_theta can underflow to 0 for 0 < alpha < n_theta
    low_ok = np.greater_equal(alpha, 0.0) if allow_zero else np.greater(alpha, 0.0)
    require(low_ok & np.less(alpha, n_theta), SpeedDomain,
            f"need {'0 <=' if allow_zero else '0 <'} alpha < n_theta for a bound orbit, "
            "got alpha={alpha}, n_theta={n_theta}", alpha=alpha, n_theta=n_theta)


class ZeroCharge(CircleDiracError):
    """Charge e must be nonzero for the charge-density solve."""


class FloatRange(CircleDiracError):
    """A result would overflow or be non-finite in double precision."""


class ZeroArcElement(CircleDiracError):
    """Arc element ds1 must be nonzero for the dashed-frame energy."""

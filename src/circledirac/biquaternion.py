"""Quaternions with complex coefficients (biquaternions).

The algebra is generated by the units i_0 = 1, i_1, i_2, i_3 with

    i_r^2 = -1,   i_1 i_2 = i_3  (cyclic),   i_2 i_1 = -i_3  (anti-cyclic),

and complex scalars commuting through everything.  The dagger operation
``conj`` is quaternion conjugation only: it fixes i_0, negates i_1..i_3
and does NOT conjugate the complex coefficients.  It is an
anti-homomorphism, conj(a*b) = conj(b)*conj(a).

Tilde convention
----------------
Temporal-like quantities (potentials A_0, masses, frequencies, arc
coordinates) enter the algebra divided by i.  Throughout this library
such quantities are STORED as their real physical values.  A stored-real
four-vector is a float array ``(..., 4)`` holding (x0, x1, x2, x3), and the
/i factor is inserted exactly once, by :func:`array_embed`, which maps it
onto the biquaternion

    -i*x0 * i_0 + x1 * i_1 + x2 * i_2 + x3 * i_3;

:func:`embed` is that map for one four-vector, and :func:`unembed` its
inverse.  With that convention ``embed(x).norm_form()`` is the Minkowski
form -x0^2 + x1^2 + x2^2 + x3^2.

Array layout
------------
The algebra is written once, on numpy complex arrays of shape ``(..., 4)``
holding c0..c3 in the last axis: :func:`array_mul`, :func:`array_conj`,
:func:`array_norm_form`, :func:`array_embed` and :func:`array_to_matrix`
broadcast over the leading axes, so a batch of points is one call.  A
:class:`Biquaternion` is a read-only view of one ``(4,)`` array whose product,
conjugate and norm form are these kernels; scalars act in Python's arithmetic.
"""

from __future__ import annotations

from numbers import Complex as _ComplexABC

import numpy as np

__all__ = [
    "Biquaternion",
    "ONE",
    "I0",
    "I1",
    "I2",
    "I3",
    "array_mul",
    "array_conj",
    "array_norm_form",
    "array_embed",
    "array_to_matrix",
    "embed",
    "unembed",
]


class Biquaternion:
    """A quaternion with complex coefficients c0..c3 of i_0..i_3, read-only."""

    __slots__ = ("_coeffs",)
    __array_ufunc__ = None   # numpy's operators refuse it instead of broadcasting it

    def __init__(self, c0=0.0, c1=0.0, c2=0.0, c3=0.0):
        a = np.array((complex(c0), complex(c1), complex(c2), complex(c3)))
        a.setflags(write=False)
        object.__setattr__(self, "_coeffs", a)

    @classmethod
    def _of(cls, coeffs) -> "Biquaternion":
        """The Biquaternion viewing a read-only copy of a ready ``(4,)`` coefficient array."""
        a = coeffs.astype(complex)
        a.setflags(write=False)
        b = object.__new__(cls)
        object.__setattr__(b, "_coeffs", a)
        return b

    def __setattr__(self, name, value):
        raise AttributeError("Biquaternion is read-only")

    def __array__(self, dtype=None, copy=None):
        return np.array(self._coeffs, dtype=dtype, copy=copy)

    def __reduce__(self):
        return Biquaternion, self.coeffs

    @property
    def coeffs(self) -> tuple[complex, complex, complex, complex]:
        return tuple(self._coeffs.tolist())

    c0 = property(lambda self: self._coeffs.item(0))
    c1 = property(lambda self: self._coeffs.item(1))
    c2 = property(lambda self: self._coeffs.item(2))
    c3 = property(lambda self: self._coeffs.item(3))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._of(self._coeffs + other._coeffs)
        if isinstance(other, _ComplexABC):
            return Biquaternion(self.c0 + other, self.c1, self.c2, self.c3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._of(self._coeffs - other._coeffs)
        if isinstance(other, _ComplexABC):
            return Biquaternion(self.c0 - other, self.c1, self.c2, self.c3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _ComplexABC):
            return Biquaternion(other - self.c0, -self.c1, -self.c2, -self.c3)
        return NotImplemented

    def __neg__(self):
        return Biquaternion(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._of(array_mul(self._coeffs, other._coeffs))
        if isinstance(other, _ComplexABC):
            return Biquaternion(*(c * other for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        # complex scalars commute with everything
        if isinstance(other, _ComplexABC):
            return Biquaternion(*(other * c for c in self.coeffs))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _ComplexABC):
            return Biquaternion(*(c / other for c in self.coeffs))
        return NotImplemented

    # -- conjugation and norm --------------------------------------------

    @property
    def conj(self) -> "Biquaternion":
        """Quaternion conjugate: i_0 fixed, i_1..i_3 negated."""
        return Biquaternion._of(array_conj(self._coeffs))

    def norm_form(self) -> complex:
        """The scalar a * conj(a) = c0^2 + c1^2 + c2^2 + c3^2 (complex)."""
        return complex(array_norm_form(self))

    # -- structure helpers -------------------------------------------------

    def max_abs(self) -> float:
        return max(abs(self.c0), abs(self.c1), abs(self.c2), abs(self.c3))

    def max_abs_diff(self, other: "Biquaternion") -> float:
        return (self - other).max_abs()

    def to_matrix(self) -> np.ndarray:
        """Faithful 2x2 complex matrix representation, i_r -> -i sigma_r."""
        return array_to_matrix(self)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Biquaternion):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Biquaternion({self.c0!r}, {self.c1!r}, {self.c2!r}, {self.c3!r})"


ONE = Biquaternion(1.0)
I0 = ONE
I1 = Biquaternion(0.0, 1.0)
I2 = Biquaternion(0.0, 0.0, 1.0)
I3 = Biquaternion(0.0, 0.0, 0.0, 1.0)


def array_mul(a, b) -> np.ndarray:
    """Broadcasting product of ``(..., 4)`` coefficient arrays."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0 = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    out = np.empty(c0.shape + (4,), dtype=c0.dtype)
    out[..., 0] = c0
    out[..., 1] = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    out[..., 2] = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    out[..., 3] = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return out


def array_conj(a) -> np.ndarray:
    """Quaternion conjugate of ``(..., 4)`` coefficient arrays: c1..c3 negated."""
    a = np.asarray(a)
    out = np.negative(a)
    out[..., 0] = a[..., 0]
    return out


def array_norm_form(a) -> np.ndarray:
    """The norm form of ``(..., 4)`` arrays: c0^2 + c1^2 + c2^2 + c3^2."""
    a = np.asarray(a)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3


def array_to_matrix(a) -> np.ndarray:
    """2x2 matrices ``(..., 2, 2)`` of ``(..., 4)`` arrays, i_r -> -i sigma_r."""
    a = np.asarray(a)
    c0, c1, c2, c3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    out = np.empty(c0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c0 - 1j * c3
    out[..., 0, 1] = -1j * c1 - c2
    out[..., 1, 0] = -1j * c1 + c2
    out[..., 1, 1] = c0 + 1j * c3
    return out


def _fourvectors(x) -> np.ndarray:
    """``x`` as a float array of stored-real four-vectors ``(..., 4)``; any other shape raises."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"four-vectors need shape (..., 4), got shape {x.shape}")
    return x


def array_embed(x) -> np.ndarray:
    """The embedding of stored-real four-vectors ``(..., 4)``: c0 = -i*x0, c1..c3 = x1..x3."""
    x = _fourvectors(x)
    out = x.astype(complex)
    out[..., 0] = -1j * x[..., 0]
    return out


def embed(x) -> Biquaternion:
    """:func:`array_embed` of one real four-vector, as a :class:`Biquaternion`: Python's
    complex -1j * x0 takes numpy's IEEE operations in numpy's order, so the bits are the same."""
    x = _fourvectors(x)
    if x.shape != (4,):
        raise ValueError(f"embed needs one four-vector of shape (4,), got shape {x.shape}")
    x0, x1, x2, x3 = x.tolist()
    return Biquaternion(-1j * x0, x1, x2, x3)


_SLICE_TOL = 1e-10   # how far unembed's input may lie off the embedded slice


def unembed(b: Biquaternion | np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed`: the ``(4,)`` float four-vector; rejects off-slice input."""
    c = np.asarray(b)
    if c.shape != (4,):
        raise ValueError(f"unembed needs one biquaternion of shape (4,), got shape {c.shape}")
    # numpy's max keeps a NaN where Python's max and > would both skip it
    off = np.abs((c[0].real, *c[1:].imag)).max()
    if not off <= _SLICE_TOL:
        raise ValueError(
            f"biquaternion is not the embedding of a real four-vector (off-slice {off:.3e})"
        )
    return np.array((-c[0].imag, *c[1:].real))


def _like(x, coeffs):
    """``coeffs`` as a :class:`Biquaternion` when ``x`` is one, else the array itself."""
    return Biquaternion._of(coeffs) if isinstance(x, Biquaternion) else coeffs

"""Circular spacetime charts and the bijections between them.

Four charts share the same underlying flat spacetime:

===== ======================== ==========================
chart coordinates              circle radii required
===== ======================== ==========================
L     (x0, x1, x2, x3)         none
T     (s0, x1, x2, r0)         R0 (temporal circle)
M     (x0, s1, r1, x3)         R1 (spatial circle)
S     (s0, s1, r1, r0)         R0 and R1
===== ======================== ==========================

The temporal plane (x0, x3) of L is covered (off the light cone, in the
x3 > |x0| wedge) by hyperbolic polar coordinates

    x0 = r0 sinh(theta0),   x3 = r0 cosh(theta0),

and the spatial plane (x1, x2) by ordinary polar coordinates

    x1 = r1 sin(theta1),    x2 = r1 cos(theta1).

A circle chart replaces the true arc length s_tilde = r*theta by the
fixed-radius arc s = R*theta, giving the bijection s_tilde = r*s/R
(:func:`arc_map`), which extends continuously to r = 0.  Only the
inverse hyperbolic polar map rejects on-cone points.

Hyperbolic angles are kept real.  The imaginary rotation angle
theta_hat = -i*theta0 exists only inside :func:`rotate_temporal_basis`,
entering through cos(-i t) = cosh t and sin(-i t) = -i sinh t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Iterable

import numpy as np

from .biquaternion import Biquaternion, I0, I1, I2, I3, array_conj
from .errors import FloatRange, LightConePoint, NonpositiveRadiusParameter
from .reflector import Reflector, unit_reflector

__all__ = [
    "ChartKind",
    "SpaceChart",
    "TemporalPolar",
    "SpatialPolar",
    "RotatedBasis",
    "arc_map",
    "arc_map_inverse",
    "rotate_temporal_basis",
    "rotate_spatial_basis",
    "rotated_basis",
    "rotated_basis_array",
    "temporal_derivative_matrix",
    "scale_potential",
    "chart_map",
    "chart_point_to_json",
    "chart_point_from_json",
]


class ChartKind(str, Enum):
    L = "L"
    M = "M"
    T = "T"
    S = "S"


@dataclass(frozen=True)
class SpaceChart:
    """A chart label plus the circle radii it needs.

    A radius the chart does not need may be left out; every radius that
    is given must be a positive real number, needed or not, that is
    finite as a double.  It is stored as a Python float, so the maps
    compute in double precision whatever its type (a numpy ``float32``
    too); a Python int is kept as given, since Python and numpy divide
    and multiply by it as by its float.
    """

    kind: ChartKind
    R0: float | None = None
    R1: float | None = None

    def __post_init__(self):
        kind = ChartKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (ChartKind.T, ChartKind.S) or self.R0 is not None:
            object.__setattr__(self, "R0", self._radius("R0", self.R0))
        if kind in (ChartKind.M, ChartKind.S) or self.R1 is not None:
            object.__setattr__(self, "R1", self._radius("R1", self.R1))

    @staticmethod
    def _radius(name: str, value) -> float | int:
        as_float = math.nan
        if isinstance(value, Real) and not isinstance(value, bool):
            try:
                as_float = float(value)
            except OverflowError:
                pass
        if not 0 < as_float < math.inf:
            raise NonpositiveRadiusParameter(f"chart requires a finite {name} > 0, got {value!r}")
        return value if type(value) is int else as_float


def _hyperbolic_polar(x0: float, x3: float) -> tuple[float, float]:
    """(r0, theta0) of a point in the x3 > |x0| wedge of the temporal plane."""
    w = x3 * x3 - x0 * x0
    if w <= 0.0 or x3 <= 0.0:
        raise LightConePoint(
            f"temporal polar map undefined at (x0, x3) = ({x0}, {x3}); "
            "requires x3 > |x0|"
        )
    r0 = math.sqrt(w)
    return r0, math.asinh(x0 / r0)


@dataclass(frozen=True)
class TemporalPolar:
    """Hyperbolic polar point of the temporal plane (x3 > |x0| wedge)."""

    r0: float
    theta0: float

    @classmethod
    def from_plane(cls, x0: float, x3: float) -> "TemporalPolar":
        return cls(*_hyperbolic_polar(x0, x3))

    def to_plane(self) -> tuple[float, float]:
        return self.r0 * math.sinh(self.theta0), self.r0 * math.cosh(self.theta0)


@dataclass(frozen=True)
class SpatialPolar:
    """Ordinary polar point of the spatial plane."""

    r1: float
    theta1: float

    @classmethod
    def from_plane(cls, x1: float, x2: float) -> "SpatialPolar":
        return cls(math.hypot(x1, x2), math.atan2(x1, x2))

    def to_plane(self) -> tuple[float, float]:
        return self.r1 * math.sin(self.theta1), self.r1 * math.cos(self.theta1)


def _mapped(fn, *args) -> np.ndarray:
    """``fn`` from :mod:`math` applied entry by entry over same-shape arrays.

    numpy's own sinh, cosh, asinh, atan2 and hypot may differ from
    ``math``'s in the last bit, so the array forms map ``math``'s and
    every entry keeps the bits of the one-point code.
    """
    shape = np.shape(args[0])
    flat = [np.ravel(a).tolist() for a in args]
    return np.fromiter(map(fn, *flat), float, len(flat[0])).reshape(shape)


def _first_offender(ok, values, name: str) -> str:
    """``name = value``, or ``name[index] = value`` at the first False entry of an array ``ok``.

    ``ok`` has the shape of ``values``.
    """
    if np.ndim(ok) == 0:
        return f"{name} = {values}"
    index = np.unravel_index(np.argmin(ok), np.shape(ok))
    return f"{name}[{', '.join(map(str, index))}] = {np.asarray(values)[index]}"


def _require_positive(R, what: str, name: str = "R") -> None:
    ok = np.greater(R, 0)
    if not np.all(ok):
        raise NonpositiveRadiusParameter(f"{what} requires {name} > 0, got {_first_offender(ok, R, name)}")


def arc_map(r: float, s: float, R: float) -> float:
    """True arc length r*s/R from the chart arc coordinate s.

    Total in r, including the light cone r = 0; bijective in s for
    fixed r != 0.  The arguments may be numpy arrays that broadcast
    together; every R must then be positive, and an error names the
    first entry that is not.
    """
    _require_positive(R, "arc map")
    return r * s / R


def arc_map_inverse(r: float, s_tilde: float, R: float) -> float:
    """Chart arc coordinate R*s_tilde/r; undefined on the cone r = 0.

    Takes broadcasting arrays like :func:`arc_map`.
    """
    _require_positive(R, "arc map")
    off_cone = np.not_equal(r, 0.0)
    if not np.all(off_cone):
        raise LightConePoint(f"arc map inverse undefined at {_first_offender(off_cone, r, 'r')}")
    return R * s_tilde / r


# -- rotated reflector bases ----------------------------------------------

@dataclass(frozen=True)
class RotatedBasis:
    """Chart-axis reflector units in coordinate-slot order.

    For a temporal rotation the slots hold (arc_0, i_1, i_2, radius_0);
    for a spatial rotation (i_0, arc_1, radius_1, i_3); combining both
    angles gives the full circular-chart basis (arc_0, arc_1, radius_1,
    radius_0).  Every unit keeps the (u, conj(u)) reflector pattern and
    the set satisfies unit squares and pairwise anti-commutation.
    """

    u0: Reflector
    u1: Reflector
    u2: Reflector
    u3: Reflector

    @property
    def units(self) -> tuple[Reflector, Reflector, Reflector, Reflector]:
        return (self.u0, self.u1, self.u2, self.u3)


def rotate_temporal_basis(theta0: float) -> RotatedBasis:
    """Rotate (i_0, i_3) into the arc/radius pair of the temporal circle.

    With theta_hat = -i*theta0 the inverse rotation reads

        arc_0    = i_0 cos(theta_hat) - i_3 sin(theta_hat)
                 = i_0 cosh(theta0) + i i_3 sinh(theta0)
        radius_0 = i_0 sin(theta_hat) + i_3 cos(theta_hat)
                 = -i i_0 sinh(theta0) + i_3 cosh(theta0)

    so theta0 = 0 returns (i_0, i_3) unchanged.
    """
    ch = math.cosh(theta0)
    sh = math.sinh(theta0)
    arc = Biquaternion(ch, 0.0, 0.0, 1j * sh)
    radius = Biquaternion(-1j * sh, 0.0, 0.0, ch)
    return RotatedBasis(unit_reflector(arc), unit_reflector(I1),
                        unit_reflector(I2), unit_reflector(radius))


def rotate_spatial_basis(theta1: float) -> RotatedBasis:
    """Rotate (i_1, i_2) into the arc/radius pair of the spatial circle.

        arc_1    = i_1 cos(theta1) - i_2 sin(theta1)
        radius_1 = i_1 sin(theta1) + i_2 cos(theta1)
    """
    c = math.cos(theta1)
    s = math.sin(theta1)
    arc = Biquaternion(0.0, c, -s, 0.0)
    radius = Biquaternion(0.0, s, c, 0.0)
    return RotatedBasis(unit_reflector(I0), unit_reflector(arc),
                        unit_reflector(radius), unit_reflector(I3))


def rotated_basis(theta0: float, theta1: float) -> RotatedBasis:
    """Full circular-chart basis with both planes rotated: one point of :func:`rotated_basis_array`."""
    return RotatedBasis(*(Reflector(Biquaternion(*top), Biquaternion(*bottom))
                          for top, bottom in rotated_basis_array(theta0, theta1).tolist()))


def rotated_basis_array(theta0, theta1) -> np.ndarray:
    """Coefficients of the circular-chart basis over broadcasting arrays of angles.

    Returns ``(..., 4, 2, 4)``: entry ``[..., k, :, :]`` is unit ``k`` of
    the basis (arc_0, arc_1, radius_1, radius_0) as a reflector array,
    i.e. the :func:`rotate_temporal_basis` units in slots 0 and 3 and the
    :func:`rotate_spatial_basis` units in slots 1 and 2.
    """
    theta0, theta1 = np.broadcast_arrays(np.asarray(theta0, dtype=float),
                                         np.asarray(theta1, dtype=float))
    ch, sh = _mapped(math.cosh, theta0), _mapped(math.sinh, theta0)
    c, s = _mapped(math.cos, theta1), _mapped(math.sin, theta1)
    zero = np.zeros_like(ch)
    tops = np.stack([np.stack(unit, axis=-1).astype(complex) for unit in (
        (ch, zero, zero, 1j * sh),       # arc_0
        (zero, c, -s, zero),             # arc_1
        (zero, s, c, zero),              # radius_1
        (-1j * sh, zero, zero, ch),      # radius_0
    )], axis=-2)
    return np.stack((tops, array_conj(tops)), axis=-2)


def temporal_derivative_matrix(theta0: float) -> np.ndarray:
    """Hyperbolic rotation taking plane derivatives to polar ones.

    Has Lorentz-boost form; its determinant cosh^2 - sinh^2 is 1.
    theta0 may be an array of angles; the result is then ``(..., 2, 2)``.
    """
    theta0 = np.asarray(theta0, dtype=float)
    ch, sh = _mapped(math.cosh, theta0), _mapped(math.sinh, theta0)
    return np.stack((np.stack((ch, -sh), axis=-1), np.stack((-sh, ch), axis=-1)), axis=-2)


def scale_potential(a: Biquaternion, r1: float, R1: float) -> Biquaternion:
    """Volume-element rescaling (r1/R1)*a of a potential on a spatial circle chart.

    Applied to an inverse-distance potential A0 = e/r1 this yields the
    constant e/R1, independent of r1: the premise of the constant bound
    potential.  ``a`` may also be a ``(..., 4)`` coefficient array, with
    r1 broadcasting against it (shape ``(..., 1)`` for one r1 per row).
    R1 may be an array too; every entry must be positive.
    """
    _require_positive(R1, "potential scaling", "R1")
    return (r1 / R1) * a


# -- chart-to-chart maps ----------------------------------------------------

_TEMPORAL = (ChartKind.T, ChartKind.S)
_SPATIAL = (ChartKind.M, ChartKind.S)


def _chart_label(chart: SpaceChart) -> str:
    radii = ", ".join(f"{name}={value}" for name, value in (("R0", chart.R0), ("R1", chart.R1))
                      if value is not None)
    return f"{chart.kind.value} chart ({radii})" if radii else f"{chart.kind.value} chart"


def chart_map(coords: Iterable[float] | np.ndarray, source: SpaceChart,
              target: SpaceChart) -> np.ndarray:
    """Map a point ``(4,)`` or a batch ``(N, 4)`` between charts; round trips are the identity.

    Composes the polar decompositions, the arc maps and the slot
    renaming (arc coordinates occupy the slots of the plane coordinates
    they replace), in one pass over plain floats through L.  Raises
    LightConePoint when the temporal inversion is required at a point
    with x3 <= |x0|, and FloatRange when the point or its image is not
    finite in double precision.

    A batch gives in every row exactly the bits a one-point call gives
    for that row.  It raises what one-point calls over its rows would
    raise first, with a message naming that row's index and coordinates.
    """
    c = np.asarray(coords if isinstance(coords, np.ndarray) else list(coords), dtype=float)
    if c.shape != (4,):
        return _chart_map_batch(c, source, target)
    x0, x1, x2, x3 = c.tolist()
    try:
        if source.kind in _TEMPORAL:
            theta0 = x0 / source.R0
            x0, x3 = x3 * math.sinh(theta0), x3 * math.cosh(theta0)
        if source.kind in _SPATIAL:
            theta1 = x1 / source.R1
            x1, x2 = x2 * math.sin(theta1), x2 * math.cos(theta1)
    except (OverflowError, ValueError):
        raise FloatRange(f"{_chart_label(source)} point {c.tolist()} overflows "
                         "when mapped to L") from None
    if target.kind in _TEMPORAL:
        r0, theta0 = _hyperbolic_polar(x0, x3)
        x0, x3 = target.R0 * theta0, r0
    if target.kind in _SPATIAL:
        x1, x2 = target.R1 * math.atan2(x1, x2), math.hypot(x1, x2)
    image = (x0, x1, x2, x3)
    if not all(map(math.isfinite, image)):
        raise FloatRange(f"{_chart_label(source)} point {c.tolist()} has no finite "
                         f"image on the {_chart_label(target)}: {list(image)}")
    return np.array(image)


def _chart_map_batch(c: np.ndarray, source: SpaceChart, target: SpaceChart) -> np.ndarray:
    """:func:`chart_map` of an ``(N, 4)`` batch, row for row bit-identical to the one-point map.

    The arithmetic runs in numpy, whose ``/``, ``*``, ``-`` and ``sqrt``
    are correctly rounded like Python's, and every transcendental is
    ``math``'s own (:func:`_mapped`).  The one-point body is kept apart
    because its per-call cost is what pointwise callers pay.
    """
    if c.ndim != 2 or c.shape[1] != 4:
        raise ValueError(f"chart points need shape (4,) or (N, 4), got shape {c.shape}")
    x0, x1, x2, x3 = c.T
    with np.errstate(all="ignore"):
        try:
            if source.kind in _TEMPORAL:
                theta0 = x0 / source.R0
                x0, x3 = x3 * _mapped(math.sinh, theta0), x3 * _mapped(math.cosh, theta0)
            if source.kind in _SPATIAL:
                theta1 = x1 / source.R1
                x1, x2 = x2 * _mapped(math.sin, theta1), x2 * _mapped(math.cos, theta1)
        except (OverflowError, ValueError):
            raise _first_row_error(c, source, target) from None
        if target.kind in _TEMPORAL:
            w = x3 * x3 - x0 * x0
            if np.any((w <= 0.0) | (x3 <= 0.0)):
                raise _first_row_error(c, source, target)
            r0 = np.sqrt(w)
            x0, x3 = target.R0 * _mapped(math.asinh, x0 / r0), r0
        if target.kind in _SPATIAL:
            x1, x2 = target.R1 * _mapped(math.atan2, x1, x2), _mapped(math.hypot, x1, x2)
    image = np.stack((x0, x1, x2, x3), axis=1)
    if not np.isfinite(image).all():
        raise _first_row_error(c, source, target)
    return image


def _first_row_error(c: np.ndarray, source: SpaceChart,
                     target: SpaceChart) -> LightConePoint | FloatRange | RuntimeError:
    """The one-point error of the first row of ``c`` that fails, with that row's index added.

    A RuntimeError if no row fails on its own: the batch and the
    one-point map then disagree, which is a defect of the batch.
    """
    for i, row in enumerate(c):
        try:
            chart_map(row, source, target)
        except LightConePoint as err:
            return LightConePoint(f"{_chart_label(source)} batch row {i} {row.tolist()} "
                                  f"is off the {_chart_label(target)}: {err}")
        except FloatRange as err:
            return FloatRange(f"batch row {i}: {err}")
    return RuntimeError(f"a batch of {len(c)} rows failed to map from the {_chart_label(source)} "
                        f"to the {_chart_label(target)}, but every row maps on its own")


def chart_point_to_json(chart: SpaceChart, coords: Iterable[float]) -> str:
    """Serialize {chart, coords[4], R0?, R1?} for the mapping CLI."""
    rec: dict = {"chart": chart.kind.value, "coords": [float(x) for x in coords]}
    if chart.R0 is not None:
        rec["R0"] = chart.R0
    if chart.R1 is not None:
        rec["R1"] = chart.R1
    return json.dumps(rec)


def chart_point_from_json(text: str | dict) -> tuple[SpaceChart, np.ndarray]:
    rec = json.loads(text) if isinstance(text, str) else text
    if not isinstance(rec, dict):
        raise ValueError(f"chart point record must be a JSON object, got {type(rec).__name__}")
    chart = SpaceChart(ChartKind(rec["chart"]), rec.get("R0"), rec.get("R1"))
    try:
        coords = np.asarray(rec["coords"], dtype=float)
    except TypeError:
        raise ValueError(f"chart point coords must be numbers, got {rec['coords']!r}") from None
    if coords.shape != (4,):
        raise ValueError("chart point record needs exactly 4 coordinates")
    return chart, coords

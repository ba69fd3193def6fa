import copy
import dataclasses
import json
import math
import pickle
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from circledirac import (
    Biquaternion,
    ChartKind,
    FloatRange,
    I0,
    I1,
    I2,
    I3,
    LightConePoint,
    NonpositiveRadiusParameter,
    SpaceChart,
    arc_map,
    arc_map_inverse,
    chart_map,
    chart_point_from_json,
    chart_point_to_json,
    embed,
    rotated_basis_array,
    scale_potential,
    temporal_derivative_matrix,
    unit_reflector,
)
from circledirac import circle_spaces

L = SpaceChart(ChartKind.L)
T = SpaceChart(ChartKind.T, R0=0.7)
M = SpaceChart(ChartKind.M, R1=1.3)
S = SpaceChart(ChartKind.S, R0=0.7, R1=1.3)
# radii of other types: stored as a float and kept as an int
S32 = SpaceChart(ChartKind.S, R0=np.float32(0.7), R1=2)

# a point every chart above maps onto every other chart
GOOD_POINT = [0.1, 0.2, 0.3, 1.5]


def _batch_with(bad):
    """Six good rows with ``bad`` at row 3."""
    batch = np.tile(GOOD_POINT, (6, 1))
    batch[3] = bad
    return batch


# points of the x3 > |x0| wedge where x3^2 - x0^2 is not a finite normal double
WEDGE_POINTS = [[0.0, 0, 0, 1e-200], [-1e-170, 0, 0, 2e-170], [5e-324, 0, 0, 1e-323],
                [1e300, 0, 0, 1.5e300]]


def _exact_polar(x0, x3, R0):
    """The doubles nearest r0 = sqrt(x3^2 - x0^2) and s0 = R0*asinh(x0/r0), from 50 digits."""
    with mpmath.workdps(50):
        r0 = mpmath.sqrt(mpmath.mpf(x3) ** 2 - mpmath.mpf(x0) ** 2)
        return float(r0), float(R0 * mpmath.asinh(x0 / r0))


def _ulps_off(got, want):
    return abs(got - want) / math.ulp(want)


class TestArcMap:
    def test_tangency(self):
        assert arc_map(2.0, 1.5, 2.0) == 1.5

    def test_scaling(self):
        assert arc_map(2.0, 3.0, 1.0) == 6.0

    def test_zero_arc(self):
        for r in (0.0, 0.5, -2.0):
            assert arc_map(r, 0.0, 1.0) == 0.0

    def test_inverse(self):
        assert arc_map_inverse(2.0, arc_map(2.0, 3.0, 1.0), 1.0) == 3.0

    def test_rejects_radius(self):
        with pytest.raises(NonpositiveRadiusParameter):
            arc_map(1.0, 1.0, 0.0)
        with pytest.raises(NonpositiveRadiusParameter):
            arc_map_inverse(1.0, 1.0, -1.0)

    def test_inverse_on_cone(self):
        with pytest.raises(LightConePoint):
            arc_map_inverse(0.0, 1.0, 1.0)

    def test_arrays_match_scalars_exactly(self):
        rng = np.random.default_rng(48)
        r, s, big_r = rng.uniform((0.1, -5.0, 0.1), (4.0, 5.0, 4.0), size=(50, 3)).T
        forward = arc_map(r, s, big_r)
        back = arc_map_inverse(r, forward, big_r)
        for i in range(50):
            assert forward[i] == arc_map(r[i], s[i], big_r[i])
            assert back[i] == arc_map_inverse(r[i], forward[i], big_r[i])

    def test_arrays_reject_any_bad_entry(self):
        with pytest.raises(NonpositiveRadiusParameter):
            arc_map(np.ones(3), np.ones(3), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(NonpositiveRadiusParameter):
            arc_map_inverse(np.ones(2), np.ones(2), np.array([1.0, math.nan]))
        with pytest.raises(LightConePoint):
            arc_map_inverse(np.array([1.0, 0.0]), np.ones(2), 1.0)

    def test_array_errors_name_first_offender(self):
        big_r = np.ones(1000)
        big_r[[617, 800]] = (0.0, -1.0)
        for fn in (arc_map, arc_map_inverse):
            with pytest.raises(NonpositiveRadiusParameter) as info:
                fn(np.ones(1000), np.ones(1000), big_r)
            assert str(info.value) == "row 617: arc map requires R > 0, got R = 0.0"
        r = np.ones((2, 3))
        r[1, 2] = 0.0
        with pytest.raises(LightConePoint) as info:
            arc_map_inverse(r, np.ones(3), 1.0)
        assert str(info.value) == "row (1, 2): arc map inverse undefined at r = 0.0"


class TestRotatedBases:
    # slots (arc_0, arc_1, radius_1, radius_0); random-angle relations are a verify case

    def test_temporal_zero_angle(self):
        b = rotated_basis_array(0.0, 0.0)
        assert np.array_equal(b[0], unit_reflector(I0))
        assert np.array_equal(b[3], unit_reflector(I3))

    def test_temporal_unit_angle_components(self):
        b = rotated_basis_array(1.0, 0.0)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        assert np.abs(b[0, 0] - Biquaternion(ch, 0, 0, 1j * sh).coeffs).max() == 0.0
        assert np.abs(b[3, 0] - Biquaternion(-1j * sh, 0, 0, ch).coeffs).max() == 0.0

    def test_spatial_zero_angle(self):
        b = rotated_basis_array(0.0, 0.0)
        assert np.array_equal(b[1], unit_reflector(I1))
        assert np.array_equal(b[2], unit_reflector(I2))

    def test_spatial_quarter_turn(self):
        b = rotated_basis_array(0.0, math.pi / 2)
        assert np.abs(b[1, 0] - (-I2).coeffs).max() < 1e-15   # arc unit
        assert np.abs(b[2, 0] - I1.coeffs).max() < 1e-15      # radial unit

    def test_derivative_matrix_unimodular(self):
        matrices = temporal_derivative_matrix(np.linspace(-2.5, 2.5, 40).reshape(4, 10))
        assert matrices.shape == (4, 10, 2, 2)
        assert np.max(np.abs(np.linalg.det(matrices) - 1.0)) < 1e-13


class TestScalePotential:
    def test_tangent_radius_unchanged(self):
        a = embed((0.3, 0.0, 0.0, 0.0))
        assert scale_potential(a, 1.3, 1.3).max_abs_diff(a) == 0.0

    def test_inverse_distance_flattens(self):
        e = 0.25
        values = [scale_potential(embed((e / r1, 0, 0, 0)), r1, 2.0) for r1 in (0.1, 1.0, 7.5)]
        for v in values:
            assert v.max_abs_diff(embed((e / 2.0, 0, 0, 0))) < 1e-16

    def test_zero(self):
        assert scale_potential(Biquaternion(), 0.4, 1.0) == Biquaternion()

    def test_rejects_radius(self):
        with pytest.raises(NonpositiveRadiusParameter):
            scale_potential(Biquaternion(1.0), 1.0, 0.0)
        with pytest.raises(NonpositiveRadiusParameter, match=r"^row \(1, 0\): potential scaling "
                                                             r"requires R1 > 0, got R1 = -1\.0$"):
            scale_potential(np.ones((3, 4)), 1.0, np.array([[1.0], [-1.0], [2.0]]))

    def test_array_rows_match_scalar_exactly(self):
        r1 = np.array([[0.1], [1.0], [7.5]])
        a = np.array([embed((0.25 / r, 0.1, 0.0, -r)).coeffs for r in r1[:, 0]])
        out = scale_potential(a, r1, 2.0)
        for r, row, z in zip(r1[:, 0], a, out):
            assert Biquaternion(*z) == scale_potential(Biquaternion(*row), r, 2.0)


class TestChartMap:
    def test_temporal_tangent_point(self):
        out = chart_map([0.0, 0.0, 0.0, 1.0], L, SpaceChart(ChartKind.T, R0=1.0))
        assert np.allclose(out, [0.0, 0.0, 0.0, 1.0], atol=0)

    def test_spatial_tangent_point(self):
        out = chart_map([0.0, 0.0, 2.0, 0.0], L, SpaceChart(ChartKind.M, R1=1.0))
        assert np.allclose(out, [0.0, 0.0, 2.0, 0.0], atol=0)

    def test_composed_via_l(self):
        p = np.array([0.2, -0.4, 1.1, 1.7])
        direct = chart_map(p, T, M)
        via = chart_map(chart_map(p, T, L), L, M)
        assert np.max(np.abs(direct - via)) == 0.0

    def test_light_cone_rejected(self):
        for bad in ([1.0, 0, 0, 1.0], [2.0, 0, 0, 1.0], [0.0, 0, 0, -1.0], [1e-200, 0, 0, 1e-200]):
            with pytest.raises(LightConePoint):
                chart_map(bad, L, T)
            with pytest.raises(LightConePoint, match=r"L chart batch row 3 \[.*T chart"):
                chart_map(_batch_with(bad), L, T)

    @pytest.mark.parametrize("point", WEDGE_POINTS)
    def test_wedge_where_the_squares_leave_the_normal_range(self, point):
        # x3^2 - x0^2 would under- or overflow, yet each point lies in the x3 > |x0| wedge
        image = chart_map(point, L, T)
        assert _ulps_off(image[3], _exact_polar(point[0], point[3], T.R0)[0]) <= 3
        assert image[3] > 0.0 and np.isfinite(image).all()
        assert chart_map(_batch_with(point), L, T)[3].tolist() == image.tolist()
        assert np.allclose(chart_map(image, T, L), point, rtol=1e-15, atol=0.0)

    def test_temporal_polar_accuracy_near_the_cone_and_at_the_ends_of_the_range(self):
        # 10^-k from the cone on both sides, and the axis, from the bottom of the double
        # range to its top
        points = [[sign * x3 * (1.0 - 10.0 ** -k), 0.0, 0.0, x3]
                  for x3 in (1e-300, 1.0, 1e300, 1.7e308)
                  for k in range(1, 16) for sign in (1.0, -1.0)]
        points += [[0.0, 0.0, 0.0, x3] for x3 in (1e-300, 1.0, 1e300, 1.7e308)] + WEDGE_POINTS
        images = [chart_map(p, L, T) for p in points]
        for p, (s0, _, _, r0) in zip(points, images):
            want_r0, want_s0 = _exact_polar(p[0], p[3], T.R0)
            assert _ulps_off(r0, want_r0) <= 3, p
            if p[0] == 0.0:
                assert r0 == p[3] and s0 == 0.0, p
            elif r0 >= sys.float_info.min:   # a subnormal r0 has too few bits for its angle
                assert _ulps_off(s0, want_s0) <= 4, p
        assert chart_map(np.array(points), L, T).tolist() == [x.tolist() for x in images]

    # (x0, x3) of points off the temporal charts, with what mapping them raises: a NaN
    # x0 with x3 <= 0 is off the wedge; elsewhere a NaN or infinite coordinate leaves
    # r0 NaN (for x3 = inf, d/x3 is inf/inf), so the image has no finite value
    OFF_THE_WEDGE = [
        (math.nan, 1.0, FloatRange), (1.0, math.nan, FloatRange),
        (math.inf, math.inf, FloatRange), (-math.inf, math.inf, FloatRange),
        (1.0, math.inf, FloatRange), (math.inf, 1.0, LightConePoint),
        (0.0, -math.inf, LightConePoint), (math.nan, -1.0, LightConePoint),
        (0.0, 0.0, LightConePoint), (-0.0, 0.0, LightConePoint), (0.0, -0.0, LightConePoint),
        (-0.0, -0.0, LightConePoint), (5e-324, 5e-324, LightConePoint),
        (1.0, 1.0, LightConePoint), (2.0, 1.0, LightConePoint), (0.5, -1.0, LightConePoint),
    ]

    @pytest.mark.parametrize("x0, x3, error", OFF_THE_WEDGE)
    @pytest.mark.parametrize("target, label", [(T, "T chart (R0=0.7)"),
                                               (S, "S chart (R0=0.7, R1=1.3)")], ids=["T", "S"])
    def test_temporal_target_error_and_message(self, x0, x3, error, target, label):
        row = [x0, 0.0, 0.0, x3]
        if error is LightConePoint:
            message = f"temporal polar map undefined at (x0, x3) = ({x0}, {x3}); requires x3 > |x0|"
            batch_message = f"L chart batch row 3 {row} is off the {label}: {message}"
        else:
            message = f"L chart point {row} has no finite image on the {label}: [nan, 0.0, 0.0, nan]"
            batch_message = "batch row 3: " + message
        for point in (row, np.array(row)):
            with pytest.raises(error) as err:
                chart_map(point, L, target)
            assert str(err.value) == message
        with pytest.raises(error) as err:
            chart_map(_batch_with(row), L, target)
        assert str(err.value) == batch_message

    def test_batch_shapes(self):
        for chart in (L, T, M, S, S32):
            assert chart_map(np.empty((0, 4)), chart, S).shape == (0, 4)
        for shape in ((4, 3), (2, 2, 4)):
            with pytest.raises(ValueError, match="shape"):
                chart_map(np.ones(shape), L, S)
        # a batch failure that no row reproduces is reported, never swallowed
        assert isinstance(circle_spaces._first_row_error(np.empty((0, 4)), L, T), RuntimeError)

    @pytest.mark.parametrize("source", [L, T, M, S, S32])
    @pytest.mark.parametrize("target", [L, T, M, S, S32])
    def test_bit_identical_to_polar_composition(self, source, target):
        # reference: through L with the polar maps written out, one plane at a time
        rng = np.random.default_rng(10)
        points, images = [], []
        for _ in range(50):
            x3 = rng.uniform(0.3, 3.0)
            plane = [x3 * rng.uniform(-0.9, 0.9), rng.uniform(-2, 2), rng.uniform(-2, 2), x3]
            p = chart_map(plane, L, source)
            x = list(p)
            if source.kind in (ChartKind.T, ChartKind.S):
                r0, theta0 = p[3], p[0] / source.R0
                x[0], x[3] = r0 * math.sinh(theta0), r0 * math.cosh(theta0)
            if source.kind in (ChartKind.M, ChartKind.S):
                r1, theta1 = p[2], p[1] / source.R1
                x[1], x[2] = r1 * math.sin(theta1), r1 * math.cos(theta1)
            y = list(x)
            if target.kind in (ChartKind.T, ChartKind.S):
                d = x[3] - abs(x[0])
                r0 = x[3] * math.sqrt((d / x[3]) * (1.0 + abs(x[0]) / x[3]))
                y[0], y[3] = target.R0 * math.asinh(x[0] / r0), r0
            if target.kind in (ChartKind.M, ChartKind.S):
                y[1], y[2] = target.R1 * math.atan2(x[1], x[2]), math.hypot(x[1], x[2])
            assert chart_map(p, source, target).tolist() == y
            points.append(p)
            images.append(y)
        # the batch form gives every row the bits of its one-point call
        assert chart_map(np.array(points), source, target).tolist() == images

    @pytest.mark.parametrize("source, coords, target", [
        (SpaceChart(ChartKind.T, R0=1.0), [1000.0, 0, 0, 1.0], SpaceChart(ChartKind.T, R0=1.0)),
        (SpaceChart(ChartKind.T, R0=1.0), [1000.0, 0, 0, 1.0], L),
        (L, [0.99, 0, 0, 1.0], SpaceChart(ChartKind.T, R0=1e308)),   # s0 overflows
        (L, [math.nan, 0, 0, 1.0], L),
        (M, [0.0, math.inf, 1.0, 1.0], L),
    ])
    def test_float_range(self, source, coords, target):
        with pytest.raises(FloatRange, match=source.kind.value + " chart"):
            chart_map(coords, source, target)
        with pytest.raises(FloatRange, match="batch row 3: " + source.kind.value + " chart"):
            chart_map(_batch_with(coords), source, target)

    @pytest.mark.parametrize("source, coords, target, message", [
        (SpaceChart(ChartKind.T, R0=1.0), [1000.0, 0, 0, 1.0], SpaceChart(ChartKind.T, R0=1.0),
         "T chart (R0=1.0) point [1000.0, 0.0, 0.0, 1.0] overflows when mapped to L"),
        (M, [0.0, math.inf, 1.0, 1.0], L,
         "M chart (R1=1.3) point [0.0, inf, 1.0, 1.0] overflows when mapped to L"),
        (L, [0.99, 0, 0, 1.0], SpaceChart(ChartKind.T, R0=1e308),
         "L chart point [0.99, 0.0, 0.0, 1.0] has no finite image on the T chart (R0=1e+308): "
         "[inf, 0.0, 0.0, 0.1410673597966589]"),
        (L, [math.nan, 0, 0, 1.0], L,
         "L chart point [nan, 0.0, 0.0, 1.0] has no finite image on the L chart: "
         "[nan, 0.0, 0.0, 1.0]"),
    ])
    def test_float_range_message(self, source, coords, target, message):
        for point in (coords, np.array(coords, dtype=float)):
            with pytest.raises(FloatRange) as err:
                chart_map(point, source, target)
            assert str(err.value) == message
        with pytest.raises(FloatRange) as err:
            chart_map(_batch_with(coords), source, target)
        assert str(err.value) == "batch row 3: " + message

    @pytest.mark.parametrize("coords", [[1.0, 0, 0, 1.0], [1e-200, 0, 0, 1e-200], [0.0, 0, 0, -1.0]])
    def test_light_cone_message(self, coords):
        row = [float(x) for x in coords]
        message = (f"temporal polar map undefined at (x0, x3) = ({row[0]}, {row[3]}); "
                   "requires x3 > |x0|")
        for point in (coords, np.array(coords, dtype=float)):
            with pytest.raises(LightConePoint) as err:
                chart_map(point, L, T)
            assert str(err.value) == message
        with pytest.raises(LightConePoint) as err:
            chart_map(_batch_with(coords), L, T)
        assert str(err.value) == f"L chart batch row 3 {row} is off the T chart (R0=0.7): {message}"

    @staticmethod
    def _one_point_inputs(point):
        """``point`` as each kind of one-point input ``chart_map`` takes."""
        strided = np.full(8, np.nan)
        strided[::2] = point
        read_only = np.array(point)
        read_only.flags.writeable = False
        return {
            "row view": np.tile(point, (3, 1))[1],
            "strided view": strided[::2],
            "read-only": read_only,
            "float32": np.array(point, dtype=np.float32),
            "int64": np.rint(point).astype(np.int64),
            "big-endian": np.array(point, dtype=">f8"),
            "masked": np.ma.array(point, mask=[False, True, False, False]),
            "list": list(point),
            "tuple": tuple(point),
            "generator": (x for x in point),
        }

    @pytest.mark.parametrize("source, target", [(L, S), (S, L), (T, M), (M, T), (S32, S)])
    @pytest.mark.parametrize("point", [GOOD_POINT, [0.0, -1.0, 2.0, 3.0]])
    def test_every_one_point_input_kind(self, source, target, point):
        # each kind maps as the list of the float64 values numpy converts it to
        point = chart_map(point, L, source).tolist()
        inputs, again = self._one_point_inputs(point), self._one_point_inputs(point)
        for kind, coords in inputs.items():
            same = again[kind]
            as_floats = np.asarray(same if isinstance(same, np.ndarray) else list(same),
                                   dtype=float).tolist()
            image = chart_map(coords, source, target)
            assert image.dtype == float and image.shape == (4,), kind
            assert not isinstance(coords, np.ndarray) or not np.may_share_memory(image, coords)
            assert image.tobytes() == chart_map(as_floats, source, target).tobytes(), kind
            assert image.tobytes() == chart_map(np.array([as_floats]), source, target).tobytes()

    @pytest.mark.parametrize("point, error", [([1.0, 0.0, 0.0, 1.0], LightConePoint),
                                              ([0.0, 0.0, 0.0, -1.0], LightConePoint),
                                              ([1000.0, 0.0, 0.0, 1.0], FloatRange)])
    def test_every_one_point_input_kind_raises_alike(self, point, error):
        source = L if error is LightConePoint else SpaceChart(ChartKind.T, R0=1.0)
        with pytest.raises(error) as want:
            chart_map(list(point), source, T)
        for kind, coords in self._one_point_inputs(point).items():
            with pytest.raises(error) as got:
                chart_map(coords, source, T)
            assert str(got.value) == str(want.value), kind

    @pytest.mark.parametrize("chart, temporal, spatial", [
        (L, False, False), (T, True, False), (M, False, True), (S, True, True), (S32, True, True)])
    def test_circle_flags(self, chart, temporal, spatial):
        for same in (chart, pickle.loads(pickle.dumps(chart)), copy.copy(chart),
                     copy.deepcopy(chart), dataclasses.replace(chart)):
            assert (same.temporal, same.spatial) == (temporal, spatial)
            assert same == chart and hash(same) == hash(chart) and repr(same) == repr(chart)
        # the flags are derived, not fields: equality, hash and repr see the fields only
        assert [f.name for f in dataclasses.fields(chart)] == ["kind", "R0", "R1"]
        assert hash(chart) == hash((chart.kind, chart.R0, chart.R1))
        assert repr(chart) == (f"SpaceChart(kind={chart.kind!r}, R0={chart.R0!r}, "
                               f"R1={chart.R1!r})")
        other = dataclasses.replace(chart, kind=ChartKind.S, R0=0.7, R1=1.3)
        assert (other.temporal, other.spatial) == (True, True)
        assert other == S

    def test_chart_requires_radii(self):
        with pytest.raises(NonpositiveRadiusParameter):
            SpaceChart(ChartKind.T)
        with pytest.raises(NonpositiveRadiusParameter):
            SpaceChart(ChartKind.S, R0=1.0)

    @pytest.mark.parametrize("kind, radii", [
        (ChartKind.L, {"R0": "x"}),
        (ChartKind.L, {"R1": -1.0}),
        (ChartKind.T, {"R0": 1.0, "R1": math.inf}),
        (ChartKind.M, {"R0": True, "R1": 1.0}),
        (ChartKind.T, {"R0": 10**400}),
        (ChartKind.M, {"R1": Fraction(1, 10**400)}),
    ])
    def test_chart_validates_every_given_radius(self, kind, radii):
        with pytest.raises(NonpositiveRadiusParameter):
            SpaceChart(kind, **radii)

    def test_chart_keeps_valid_unused_radius(self):
        assert SpaceChart(ChartKind.L, R0=2.0).R0 == 2.0
        assert (type(S32.R0), S32.R0, type(S32.R1)) == (float, float(np.float32(0.7)), int)

    def test_json_round_trip(self):
        text = chart_point_to_json(S, [0.1, 0.2, 0.3, 1.4])
        record = json.loads(text)
        assert record == {"chart": "S", "coords": [0.1, 0.2, 0.3, 1.4], "R0": 0.7, "R1": 1.3}
        chart, coords = chart_point_from_json(text)
        assert chart == S
        assert np.all(coords == [0.1, 0.2, 0.3, 1.4])

    def test_json_integer_beyond_double_range(self):
        big = 10 ** 400
        with pytest.raises(FloatRange, match=r"^S chart \(R0=0.7, R1=1.3\) point coordinate 2 "):
            chart_point_from_json({"chart": "S", "R0": 0.7, "R1": 1.3, "coords": [0, 1, big, 2]})
        _, coords = chart_point_from_json({"chart": "L", "coords": [0, 1, 2 ** 1023, 2]})
        assert coords[2] == 2.0 ** 1023

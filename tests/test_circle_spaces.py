import json
import math
from fractions import Fraction

import numpy as np
import pytest

from circledirac import (
    Biquaternion,
    ChartKind,
    DiagPair,
    FloatRange,
    I0,
    I1,
    I2,
    I3,
    LightConePoint,
    NonpositiveRadiusParameter,
    SpaceChart,
    SpatialPolar,
    TemporalPolar,
    arc_map,
    arc_map_inverse,
    chart_map,
    chart_point_from_json,
    chart_point_to_json,
    embed,
    reflector_mul,
    rotate_spatial_basis,
    rotate_temporal_basis,
    rotated_basis,
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

IDENTITY = DiagPair(Biquaternion(1.0), Biquaternion(1.0))

# a point every chart above maps onto every other chart
GOOD_POINT = [0.1, 0.2, 0.3, 1.5]


def _batch_with(bad):
    """Six good rows with ``bad`` at row 3."""
    batch = np.tile(GOOD_POINT, (6, 1))
    batch[3] = bad
    return batch


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
            assert str(info.value) == "arc map requires R > 0, got R[617] = 0.0"
        r = np.ones((2, 3))
        r[1, 2] = 0.0
        with pytest.raises(LightConePoint) as info:
            arc_map_inverse(r, np.ones(3), 1.0)
        assert str(info.value) == "arc map inverse undefined at r[1, 2] = 0.0"


def _pairwise_relations(basis):
    worst = 0.0
    units = basis.units
    for i, u in enumerate(units):
        worst = max(worst, (reflector_mul(u, u) - IDENTITY).max_abs())
        for j in range(i + 1, 4):
            anti = reflector_mul(u, units[j]) + reflector_mul(units[j], u)
            worst = max(worst, anti.max_abs())
    return worst


class TestRotatedBases:
    def test_temporal_zero_angle(self):
        b = rotate_temporal_basis(0.0)
        assert b.u0 == unit_reflector(I0)
        assert b.u3 == unit_reflector(I3)

    def test_temporal_unit_angle_components(self):
        b = rotate_temporal_basis(1.0)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        assert b.u0.top.max_abs_diff(Biquaternion(ch, 0, 0, 1j * sh)) == 0.0
        assert b.u3.top.max_abs_diff(Biquaternion(-1j * sh, 0, 0, ch)) == 0.0

    def test_spatial_zero_angle(self):
        b = rotate_spatial_basis(0.0)
        assert b.u1 == unit_reflector(I1)
        assert b.u2 == unit_reflector(I2)

    def test_spatial_quarter_turn(self):
        b = rotate_spatial_basis(math.pi / 2)
        assert b.u1.top.max_abs_diff(-I2) < 1e-15   # arc unit
        assert b.u2.top.max_abs_diff(I1) < 1e-15    # radial unit

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relations_random_angles(self, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            worst = max(worst, _pairwise_relations(
                rotated_basis(rng.uniform(-2.5, 2.5), rng.uniform(-math.pi, math.pi))))
        assert worst <= 1e-13

    def test_derivative_matrix_unimodular(self):
        for theta in np.linspace(-2.5, 2.5, 41):
            assert abs(np.linalg.det(temporal_derivative_matrix(theta)) - 1.0) < 1e-13
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
        with pytest.raises(NonpositiveRadiusParameter, match=r"R1\[1, 0\] = -1\.0"):
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

    @pytest.mark.parametrize("target", [T, M, S])
    def test_round_trips(self, target):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x3 = rng.uniform(0.3, 3.0)
            p = np.array([x3 * rng.uniform(-0.9, 0.9),
                          rng.uniform(-2, 2), rng.uniform(-2, 2), x3])
            q = chart_map(p, L, target)
            assert np.max(np.abs(chart_map(q, target, L) - p)) < 1e-12

    def test_composed_via_l(self):
        p = np.array([0.2, -0.4, 1.1, 1.7])
        direct = chart_map(p, T, M)
        via = chart_map(chart_map(p, T, L), L, M)
        assert np.max(np.abs(direct - via)) == 0.0

    def test_light_cone_rejected(self):
        for bad in ([1.0, 0, 0, 1.0], [2.0, 0, 0, 1.0], [0.0, 0, 0, -1.0]):
            with pytest.raises(LightConePoint):
                chart_map(bad, L, T)
            with pytest.raises(LightConePoint, match=r"L chart batch row 3 \[.*T chart"):
                chart_map(_batch_with(bad), L, T)

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
        # reference: through L with the polar classes, one plane at a time
        rng = np.random.default_rng(10)
        points, images = [], []
        for _ in range(50):
            x3 = rng.uniform(0.3, 3.0)
            plane = [x3 * rng.uniform(-0.9, 0.9), rng.uniform(-2, 2), rng.uniform(-2, 2), x3]
            p = chart_map(plane, L, source)
            x = list(p)
            if source.kind in (ChartKind.T, ChartKind.S):
                x[0], x[3] = TemporalPolar(p[3], p[0] / source.R0).to_plane()
            if source.kind in (ChartKind.M, ChartKind.S):
                x[1], x[2] = SpatialPolar(p[2], p[1] / source.R1).to_plane()
            y = list(x)
            if target.kind in (ChartKind.T, ChartKind.S):
                pol = TemporalPolar.from_plane(x[0], x[3])
                y[0], y[3] = target.R0 * pol.theta0, pol.r0
            if target.kind in (ChartKind.M, ChartKind.S):
                pol = SpatialPolar.from_plane(x[1], x[2])
                y[1], y[2] = target.R1 * pol.theta1, pol.r1
            assert chart_map(p, source, target).tolist() == y
            points.append(p)
            images.append(y)
        # the batch form gives every row the bits of its one-point call
        assert chart_map(np.array(points), source, target).tolist() == images

    @pytest.mark.parametrize("source, coords, target", [
        (SpaceChart(ChartKind.T, R0=1.0), [1000.0, 0, 0, 1.0], SpaceChart(ChartKind.T, R0=1.0)),
        (SpaceChart(ChartKind.T, R0=1.0), [1000.0, 0, 0, 1.0], L),
        (L, [0.0, 0, 0, 1e200], T),
        (L, [math.nan, 0, 0, 1.0], L),
        (M, [0.0, math.inf, 1.0, 1.0], L),
    ])
    def test_float_range(self, source, coords, target):
        with pytest.raises(FloatRange, match=source.kind.value + " chart"):
            chart_map(coords, source, target)
        with pytest.raises(FloatRange, match="batch row 3: " + source.kind.value + " chart"):
            chart_map(_batch_with(coords), source, target)

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

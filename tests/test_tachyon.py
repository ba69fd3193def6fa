import math

import numpy as np
import pytest
from conftest import ARC_UNITS, max_abs_diff, mul

from circledirac import (
    Biquaternion,
    I2,
    PlaneWave,
    WaveFunction,
    ZeroArcElement,
    bound_solution,
    component_map,
    dashed_energy,
    de_broglie,
    embed,
    mass_term,
    residual,
    tachyon_double,
    tachyon_fourvector,
    tachyon_quaternion,
    unembed,
    unit_reflector,
)
from circledirac.reflector import ARC_TIME_UNITS
from circledirac.tachyon import transform_operator, transform_wave


# the rotor (1 + i_1)/sqrt(2) of tachyon_quaternion, as a 4-tuple
ROTOR = (1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 0.0, 0.0)


def rand_bq(rng):
    return Biquaternion(*(complex(a, b) for a, b in
                          zip(rng.standard_normal(4), rng.standard_normal(4))))


class TestFourVector:
    def test_swap(self):
        out = tachyon_fourvector(np.array([1.0, 2.0, 3.0, 4.0]))
        assert out.tolist() == [2.0, 1.0, 3.0, 4.0]

    def test_transverse_fixed(self):
        x = np.array([0.0, 0.0, 3.0, 4.0])
        assert tachyon_fourvector(x).tolist() == x.tolist()

    def test_double_is_half_turn(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert unembed(tachyon_double(embed(x))).tolist() == [-1.0, -2.0, 3.0, 4.0]

    def test_batch_is_rowwise(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = tachyon_fourvector(x)
        assert out.shape == (2, 3, 4)
        assert [tachyon_fourvector(row).tolist() for row in x.reshape(6, 4)] == \
            out.reshape(6, 4).tolist()

    @pytest.mark.parametrize("shape", [(), (3,), (5,), (4, 3)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 4\), got shape"):
            tachyon_fourvector(np.ones(shape))


class TestQuaternionMap:
    def test_component_map_definition(self):
        x = Biquaternion(1 + 2j, 3 - 1j, 0.5, -2j)
        assert component_map(x) == Biquaternion(-(3 - 1j), 1 + 2j, 0.5, -2j)

    def test_rotor_equals_component_map(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            x = rand_bq(rng)
            worst = max(worst, tachyon_quaternion(x).max_abs_diff(component_map(x)))
        assert worst <= 1e-14

    def test_embedded_plane_vector(self):
        x0, x1 = 0.9, -0.4
        out = tachyon_quaternion(embed((x0, x1, 0.0, 0.0)))
        assert out.max_abs_diff(Biquaternion(-x1, -1j * x0)) < 1e-15

    def test_transverse_unit_fixed(self):
        assert tachyon_quaternion(I2).max_abs_diff(I2) < 1e-15

    def test_double_application_exact(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            x = rand_bq(rng)
            assert tachyon_double(x) == component_map(component_map(x))
            assert tachyon_double(x) == Biquaternion(-x.c0, -x.c1, x.c2, x.c3)

    def test_two_sandwiches_near_double(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            x = rand_bq(rng)
            twice = tachyon_quaternion(tachyon_quaternion(x))
            assert twice.max_abs_diff(tachyon_double(x)) <= 1e-14


class TestArrayForms:
    """component_map, tachyon_quaternion and tachyon_double on (..., 4) arrays."""

    @staticmethod
    def _batch(seed, shape=(60,)):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape + (4,)) + 1j * rng.standard_normal(shape + (4,))

    def test_component_map_matches_scalar_exactly(self):
        x = self._batch(27, (3, 20))
        out = component_map(x)
        assert out.shape == x.shape
        for (c0, c1, c2, c3), z in zip(x.reshape(-1, 4), out.reshape(-1, 4)):
            assert Biquaternion(*z) == Biquaternion(-c1, c0, c2, c3)

    def test_double_matches_scalar_exactly(self):
        x = self._batch(28)
        for (c0, c1, c2, c3), z in zip(x, tachyon_double(x)):
            assert Biquaternion(*z) == Biquaternion(-c0, -c1, c2, c3)

    def test_quaternion_matches_scalar(self):
        x = self._batch(29)
        out = tachyon_quaternion(x)
        for v, z in zip(x, out):
            # array_mul may fuse multiply-adds: agreement to rounding
            assert max_abs_diff(mul(mul(ROTOR, v), ROTOR), z) <= 1e-15

    def test_fault_flips_the_array_form_too(self, monkeypatch):
        x = self._batch(30)
        monkeypatch.setenv("CIRCLEDIRAC_FAULT", "tachyon-sign")
        faulted = component_map(x)
        assert np.array_equal(faulted[:, 1], -x[:, 0])
        for (c0, c1, c2, c3), z in zip(x, faulted):
            assert Biquaternion(*z) == Biquaternion(-c1, -c0, c2, c3)


class TestReflectorTransform:
    def test_blockwise_component_maps(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            top, bottom = rand_bq(rng), rand_bq(rng)
            wave = WaveFunction((top.coeffs, bottom.coeffs), (1.0, 2.0, 3.0, 4.0))
            out = transform_wave(wave)
            assert Biquaternion(*out.prefactor[0]).max_abs_diff(component_map(top)) <= 1e-14
            expected_bottom = Biquaternion(bottom.c1, -bottom.c0, bottom.c2, bottom.c3)
            assert Biquaternion(*out.prefactor[1]).max_abs_diff(expected_bottom) <= 1e-14
            assert np.array_equal(out.k, (2.0, 1.0, 3.0, 4.0))

    def test_transformed_wave_solves_transformed_system(self):
        # covariance: transform wave, operator, mass and potential together
        # and the analytic residual stays at zero
        mu, eA = 0.6, -0.3
        pw = PlaneWave(nu=eA + math.sqrt(1 + mu * mu), mu=mu, mass=1.0, eA=eA)
        wave = transform_wave(bound_solution(pw))
        op = transform_operator(ARC_TIME_UNITS)
        a_pot, e = pw.potential()
        a_dashed = tachyon_quaternion(a_pot)
        m_dashed = tachyon_quaternion(mass_term(pw.mass))
        points = np.random.default_rng(29).uniform(-2, 2, size=(10, 4))
        assert residual(wave, a_dashed, e, m_dashed, points, operator=op).analytic <= 1e-12

    def test_operator_matches_biquaternion_sandwiches(self):
        u = [mul(mul(ROTOR, unit), ROTOR) for unit in ARC_UNITS]
        expected = np.array([unit_reflector(v) for v in (u[1], u[0], u[2], u[3])])
        assert transform_operator(ARC_TIME_UNITS).tobytes() == expected.tobytes()

    def test_rejects_operator_shape(self):
        for operator in (ARC_TIME_UNITS[0], ARC_TIME_UNITS[:3]):
            with pytest.raises(ValueError, match=r"operator needs shape \(4, 2, 4\)"):
                transform_operator(operator)


def dashed(s0, s1, eta, mu):
    """(s0', s1', eta', mu') from the exchanged (s0, s1, 0, 0) and (eta, mu, 0, 0)."""
    (s0d, s1d, _, _), (etad, mud, _, _) = tachyon_fourvector([[s0, s1, 0, 0], [eta, mu, 0, 0]])
    return s0d, s1d, etad, mud


class TestDashedKinematics:
    def test_plain_exchanges(self):
        assert dashed(s0=0.5, s1=1.5, eta=1.25, mu=0.75) == (1.5, 0.5, 0.75, 1.25)

    def test_dot_product_invariant(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            s0, s1, eta, mu = rng.uniform(-3, 3, size=4)
            s0d, s1d, etad, mud = dashed(s0, s1, eta, mu)
            assert etad * s0d + mud * s1d == eta * s0 + mu * s1


class TestDashedEnergy:
    def test_equal_arcs(self):
        assert dashed_energy(1.0, 1.0, 1.25, 0.75) == 1.25 + 0.75

    def test_orbit_values(self):
        eta, mu = de_broglie(1.0, 0.6)
        out = dashed_energy(1.0, 0.6, eta, mu)
        assert out == pytest.approx((1.25 + 0.75 * 0.6) / 0.6)

    def test_rest_frame(self):
        assert dashed_energy(1.0, 0.5, 2.0, 0.0) == 4.0

    def test_rejects_zero_arc(self):
        with pytest.raises(ZeroArcElement):
            dashed_energy(1.0, 0.0, 1.0, 1.0)

    def test_dashed_ratio(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ds0, ds1 = rng.uniform(0.1, 2.0, size=2)
            eta, mu = rng.uniform(-2, 2, size=2)
            v = (eta * ds0 + mu * ds1) / ds0
            assert dashed_energy(ds0, ds1, eta, mu) == pytest.approx(v * ds0 / ds1)

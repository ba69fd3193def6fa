import numpy as np
import pytest
from conftest import (ARC_UNITS, BARE_UNITS, analytic, central_difference, max_abs_diff, mul,
                      scalar_lhs)

from circledirac import (
    Biquaternion,
    I0,
    I1,
    I2,
    NonUnitRotor,
    array_mul,
    embed,
    mass_term,
    sandwich,
    unit_reflector,
)
from circledirac.planewave import WaveFunction, _phase_derivatives, _signed_sum
from circledirac.reflector import ARC_TIME_UNITS, reflector_mul_array

ROTOR = Biquaternion(2 ** -0.5, 2 ** -0.5)


def rand_bq(rng):
    return Biquaternion(*(complex(a, b) for a, b in
                          zip(rng.standard_normal(4), rng.standard_normal(4))))


def blocks(first, second):
    """The ``(2, 4)`` array of two biquaternion blocks, first block on top."""
    return np.array((first.coeffs, second.coeffs))


def block_matrix(c, diagonal=False):
    """4x4 matrix oracle of a ``(2, 4)`` array from ``Biquaternion.to_matrix``: [[0, top],
    [bottom, 0]] for a reflector, [[upper, 0], [0, lower]] for a ``diagonal`` product."""
    first, second = (Biquaternion(*row).to_matrix() for row in c)
    zero = np.zeros((2, 2))
    return np.block([[first, zero], [zero, second]] if diagonal else
                    [[zero, first], [second, zero]])


class TestBlockProducts:
    def test_identity_blocks_swap(self):
        rng = np.random.default_rng(0)
        x, y = rand_bq(rng), rand_bq(rng)
        out = reflector_mul_array(blocks(I0, I0), blocks(x, y))
        assert np.array_equal(out, blocks(y, x))

    # exact against array_mul: numpy's complex products may differ from Python's in the last bit
    def test_operator_pattern(self):
        # (d, conj d) acting on (phi1, phi2) gives diag(d phi2, conj(d) phi1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            d, p1, p2 = rand_bq(rng), rand_bq(rng), rand_bq(rng)
            upper, lower = reflector_mul_array(unit_reflector(d), blocks(p1, p2))
            assert np.abs(upper - array_mul(d.coeffs, p2.coeffs)).max() == 0.0
            assert np.abs(lower - array_mul(d.conj.coeffs, p1.coeffs)).max() == 0.0

    def test_mass_on_the_right(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m, p1, p2 = rand_bq(rng), rand_bq(rng), rand_bq(rng)
            upper, lower = reflector_mul_array(blocks(p1, p2), blocks(m, -m.conj))
            assert np.abs(upper + array_mul(p1.coeffs, m.conj.coeffs)).max() == 0.0
            assert np.abs(lower - array_mul(p2.coeffs, m.coeffs)).max() == 0.0

    def test_matrix_oracle(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(500):
            a = blocks(rand_bq(rng), rand_bq(rng))
            b = blocks(rand_bq(rng), rand_bq(rng))
            lhs = block_matrix(reflector_mul_array(a, b), diagonal=True)
            rhs = block_matrix(a) @ block_matrix(b)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-13


class TestSandwich:
    def test_identity_rotor(self):
        rng = np.random.default_rng(5)
        x = rand_bq(rng)
        assert sandwich(I0, x) == x

    def test_boost_plane_example(self):
        x0, x1 = 0.3, -1.2
        out = sandwich(ROTOR, embed((x0, x1, 0.0, 0.0)))
        expected = Biquaternion(-x1, -1j * x0, 0.0, 0.0)
        assert out.max_abs_diff(expected) < 1e-14

    def test_transverse_unit_fixed(self):
        assert sandwich(ROTOR, I2).max_abs_diff(I2) < 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitRotor):
            sandwich(Biquaternion(2.0), I1)
        rotors = np.tile(np.array(ROTOR.coeffs), (5, 1))
        rotors[3] *= 1.0 + 1e-9
        with pytest.raises(NonUnitRotor, match=r"^row 3: rotor norm form"):
            sandwich(rotors, np.ones((5, 4)))
        with pytest.raises(NonUnitRotor):
            sandwich(rotors[3], np.ones(4))

    def test_norm_form_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = embed(rng.uniform(-2, 2, size=4))
            assert abs(sandwich(ROTOR, x).norm_form() - x.norm_form()) < 1e-13

    def test_reflector_blocks(self):
        # one rotor per block row: the diagonal-rotor action transform_wave applies to prefactors
        rng = np.random.default_rng(7)
        rc = ROTOR.conj
        for _ in range(20):
            top, bottom = rand_bq(rng), rand_bq(rng)
            out = sandwich(blocks(ROTOR, rc), blocks(top, bottom))
            assert np.array_equal(out, (mul(mul(ROTOR, top), ROTOR), mul(mul(rc, bottom), rc)))
            diag = block_matrix(blocks(ROTOR, rc), diagonal=True)
            expected = diag @ block_matrix(blocks(top, bottom)) @ block_matrix(blocks(rc, ROTOR),
                                                                              diagonal=True)
            assert np.max(np.abs(block_matrix(out) - expected)) < 1e-13

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
        raw = rng.standard_normal((60, 4))
        rotors = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        for r, rows in ((ROTOR, [ROTOR] * 60), (rotors, rotors)):
            out = sandwich(r, x)
            assert out.shape == (60, 4)
            for q, v, z in zip(rows, x, out):
                # array_mul may fuse multiply-adds: agreement to rounding
                assert max_abs_diff(mul(mul(q, v), q), z) <= 1e-15

    def test_rejects_non_coefficients(self):
        with pytest.raises(TypeError):
            sandwich(ROTOR, 2.0)
        with pytest.raises(TypeError):
            sandwich(ROTOR, np.ones((4, 3)))
        with pytest.raises(TypeError):
            sandwich(np.array(ROTOR.coeffs), 2.0)


ZERO = Biquaternion()
ORIGIN = np.zeros(4)


def constant(phi):
    """The wave of constant value phi ``(2, 4)``: its derivatives are exact zeros."""
    return WaveFunction(phi, np.zeros(4))


def lhs(wave, a, e, point, units=ARC_TIME_UNITS, h=1e-3):
    """(D - i e A) Phi at one point from the residual's signed sum at zero mass, whose
    Phi M term is zero: the ``(2, 4)`` block-diagonal array on each route
    ``(route, 2, 4)``, central difference first."""
    return _signed_sum(wave, a, e, ZERO, point[None], h, units)[..., 0]


def rhs(phi, m):
    """Phi M from the residual's signed sum, for the constant wave of value phi ``(2, 4)``
    at zero potential: its derivative and potential terms are zero, so the sum is -Phi M."""
    return -_signed_sum(constant(phi), ZERO, 0.0, m, ORIGIN[None], 1e-3, ARC_TIME_UNITS)[0, ..., 0]


def batch_central_difference(wave, points, h):
    """The residual's central differences ``(4, 2, N, 4)`` of the wave at points ``(N, 4)``:
    its derivative scalars times the prefactor."""
    d = _phase_derivatives(wave, points, h)[1][0]
    return d[:, None, :, None] * wave.prefactor[None, :, None, :]


def test_arc_time_units_are_read_only_unit_reflectors():
    assert np.array_equal(ARC_TIME_UNITS, [unit_reflector(u) for u in ARC_UNITS])
    with pytest.raises(ValueError, match="read-only"):
        ARC_TIME_UNITS[0, 0, 0] = 0.0


def test_unit_reflector_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    out = unit_reflector(u)
    assert out.shape == (2, 3, 2, 4)
    for index in np.ndindex(2, 3):
        assert out[index].tobytes() == unit_reflector(Biquaternion(*u[index])).tobytes()
    assert np.array_equal(unit_reflector(u.real), unit_reflector(u.real.astype(complex)))


class TestDiracSides:
    """Both sides of the Dirac system from the residual's assembly at one point."""

    def test_constant_wave_zero_potential(self):
        c = Biquaternion(0.5, 1.0, -2.0, 0.25)
        out = lhs(constant(blocks(c, c)), ZERO, 1.0, ORIGIN, h=1e-4)
        assert np.abs(out).max() < 1e-11

    def test_rhs_zero_wave(self):
        out = rhs(np.zeros((2, 4), dtype=complex), mass_term(1.0).coeffs)
        assert np.abs(out).max() == 0.0

    def test_rhs_scalar_mass_sign(self):
        # constant wave (1, 1) against scalar mass -i m
        one = Biquaternion(1.0)
        m = mass_term(2.0)
        out = rhs(blocks(one, one), m.coeffs)
        # -phi1 * conj(-2i) = 2i and phi2 * (-2i)
        assert np.array_equal(out, blocks(Biquaternion(2j), Biquaternion(-2j)))

    def test_rhs_matrix_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, p1, p2 = rand_bq(rng), rand_bq(rng), rand_bq(rng)
            out = block_matrix(rhs(blocks(p1, p2), m.coeffs), diagonal=True)
            phi = block_matrix(blocks(p1, p2))
            m_refl = block_matrix(blocks(m, -m.conj))
            assert np.max(np.abs(out - phi @ m_refl)) < 1e-13

    def test_lhs_potential_term_matrix_oracle(self):
        # the potential left-multiplies the wave components: for a constant
        # wave the whole left side is -i e A_reflector . Phi as matrices
        rng = np.random.default_rng(9)
        e = 0.7
        for _ in range(50):
            a, p1, p2 = rand_bq(rng), rand_bq(rng), rand_bq(rng)
            a_refl = block_matrix(unit_reflector(a))
            phi = block_matrix(blocks(p1, p2))
            expected = -1j * e * (a_refl @ phi)
            for out in lhs(constant(blocks(p1, p2)), a, e, ORIGIN):
                assert np.max(np.abs(block_matrix(out, diagonal=True) - expected)) < 1e-13


class TestArrayAssembly:
    """The array kernels and derivative routes against the scalar reference of conftest."""

    @pytest.mark.parametrize("operator", [ARC_UNITS, BARE_UNITS])
    @pytest.mark.parametrize("route", [1, 0], ids=["deriv0", "deriv1"])
    def test_lhs_matches_scalar_loop(self, operator, route):
        # both sides get the same derivative values, so this checks the assembly: the
        # analytic route against conftest's analytic, the central difference against the
        # residual's own derivative scalars times the prefactor; the derivative routes
        # meet the references in test_batch_central_difference_matches_scalar and test_planewave
        rng = np.random.default_rng(44)
        h = 1e-3
        for _ in range(20):
            k = rng.uniform(-2, 2, size=4)
            wave = WaveFunction((rand_bq(rng).coeffs, rand_bq(rng).coeffs), k)
            a, e, point = rand_bq(rng), rng.uniform(-1, 1), rng.uniform(-2, 2, size=4)
            if route:
                deriv = analytic
            else:
                d = _phase_derivatives(wave, point[None], h)[1][0, :, 0].tolist()

                def deriv(wave, j, point, mu):
                    return tuple(d[mu] * c for c in wave.prefactor[j].tolist())
            units = np.array([unit_reflector(u) for u in operator])
            out = lhs(wave, a, e, point, units, h)[route]
            ref = np.array(scalar_lhs(operator, deriv, a, e, wave, point))
            assert np.abs(out - ref).max() <= 1e-13

    def test_reflector_mul_array_matches_scalar(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            a_top, a_bottom, b_top, b_bottom = (rand_bq(rng) for _ in range(4))
            out = reflector_mul_array(blocks(a_top, a_bottom), blocks(b_top, b_bottom))
            assert np.abs(out - (mul(a_top, b_bottom), mul(a_bottom, b_top))).max() <= 1e-14

    def test_batch_central_difference_matches_scalar(self):
        rng = np.random.default_rng(46)
        wave = WaveFunction((rand_bq(rng).coeffs, rand_bq(rng).coeffs), rng.uniform(-2, 2, size=4))
        points = rng.uniform(-2, 2, size=(5, 4))
        out, reference = batch_central_difference(wave, points, 0.01), central_difference(0.01)
        assert out.shape == (4, 2, 5, 4)
        for n, p in enumerate(points):
            for mu in range(4):
                for j in (0, 1):
                    assert max_abs_diff(out[mu, j, n], reference(wave, j, p, mu)) <= 1e-12


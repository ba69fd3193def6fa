import copy
import math
import pickle
import re

import numpy as np
import pytest
from conftest import conj, minkowski, mul
from hypothesis import given, settings
from hypothesis import strategies as st

from circledirac import (
    Biquaternion,
    I0,
    I1,
    I2,
    I3,
    ONE,
    PlaneWave,
    array_conj,
    array_embed,
    array_mul,
    array_norm_form,
    array_to_matrix,
    bound_solution,
    component_map,
    embed,
    mass_term,
    residual,
    sandwich,
    tachyon_double,
    tachyon_quaternion,
    unembed,
    unit_reflector,
)

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
biquaternions = st.builds(Biquaternion, complexes, complexes, complexes, complexes)
fourvectors = st.builds(lambda *x: np.array(x), finite, finite, finite, finite)


def rand_bq(rng):
    return Biquaternion(*(complex(a, b) for a, b in
                          zip(rng.standard_normal(4), rng.standard_normal(4))))


class TestMultiplicationTable:
    def test_cyclic(self):
        assert I1 * I2 == I3
        assert I2 * I3 == I1
        assert I3 * I1 == I2

    def test_anticyclic(self):
        assert I2 * I1 == -I3
        assert I3 * I2 == -I1
        assert I1 * I3 == -I2

    def test_unit_squares(self):
        for u in (I1, I2, I3):
            assert u * u == -ONE

    def test_identity_element(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rand_bq(rng)
            assert I0 * a == a
            assert a * I0 == a

    def test_rotor_squared_is_i1(self):
        r = Biquaternion(2 ** -0.5, 2 ** -0.5)
        assert (r * r).max_abs_diff(I1) < 1e-15

    def test_anticommutation_exact(self):
        units = (I1, I2, I3)
        for r in range(3):
            for s in range(3):
                if r != s:
                    assert (units[r] * units[s] + units[s] * units[r]).max_abs() == 0.0


class TestConjugation:
    def test_units(self):
        assert I2.conj == -I2
        assert I0.conj == I0

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rand_bq(rng)
            assert a.conj.conj == a

    def test_antihomomorphism_exact_on_integers(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = Biquaternion(*(complex(x, y) for x, y in
                               zip(rng.integers(-9, 10, 4), rng.integers(-9, 10, 4))))
            b = Biquaternion(*(complex(x, y) for x, y in
                               zip(rng.integers(-9, 10, 4), rng.integers(-9, 10, 4))))
            assert (a * b).conj == b.conj * a.conj

    @given(biquaternions, biquaternions)
    @settings(max_examples=150)
    def test_antihomomorphism(self, a, b):
        assert (a * b).conj.max_abs_diff(b.conj * a.conj) < 1e-12


class TestNormForm:
    def test_i1(self):
        assert I1.norm_form() == 1.0

    def test_rest_mass(self):
        m = 1.75
        assert embed((m, 0.0, 0.0, 0.0)).norm_form() == pytest.approx(-m * m)

    def test_zero(self):
        assert Biquaternion().norm_form() == 0.0

    def test_timelike_example(self):
        assert embed((2.0, 1.0, 0.0, 0.0)).norm_form() == pytest.approx(-3.0)

    def test_is_scalar_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rand_bq(rng)
            p = a * a.conj
            assert max(abs(p.c1), abs(p.c2), abs(p.c3)) <= 1e-12 * max(1.0, p.max_abs())
            assert p.c0 == pytest.approx(a.norm_form())


class TestEmbed:
    def test_temporal_slot(self):
        b = embed((1.0, 0.0, 0.0, 0.0))
        assert b == Biquaternion(-1j)

    def test_zero(self):
        assert embed((0.0, 0.0, 0.0, 0.0)) == Biquaternion()

    @given(fourvectors)
    @settings(max_examples=150)
    def test_minkowski_form(self, x):
        assert abs(embed(x).norm_form() - minkowski(x)) < 1e-13

    def test_unembed_roundtrip(self):
        x = np.array([0.4, -1.2, 0.7, 2.0])
        assert unembed(embed(x)).tolist() == x.tolist()

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                       5e-324, -1e-310, 1e308, -1e308])
    @pytest.mark.parametrize("slot", range(4))
    def test_bits_are_array_embeds(self, value, slot):
        x = [0.25, -0.5, 1.5, 2.0]
        x[slot] = value
        with np.errstate(invalid="ignore"):   # array_embed's -1j * inf forms 0 * inf
            want = array_embed(x).tobytes()
        for given in (x, tuple(x), np.array(x)):
            assert np.asarray(embed(given)).tobytes() == want

    @pytest.mark.parametrize("x", [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0), 1.0])
    def test_rejects_other_lengths(self, x):
        for fn, arg in ((embed, x), (array_embed, x), (array_embed, [x, x])):
            with pytest.raises(ValueError, match=re.escape(f"(..., 4), got shape {np.shape(arg)}")):
                fn(arg)

    @pytest.mark.parametrize("shape", [(2, 4), (1, 4)])
    def test_embed_rejects_a_batch(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(4,), got shape {shape}")):
            embed(np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (), (3,), (5,)])
    def test_unembed_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            unembed(np.zeros(shape, dtype=complex))

    def test_unembed_rejects_off_slice(self):
        with pytest.raises(ValueError):
            unembed(Biquaternion(1.0))  # real temporal slot

    @pytest.mark.parametrize("slot", range(4))
    def test_unembed_rejects_nan_off_slice(self, slot):
        # the off-slice part of each coefficient: c0's real part, c1..c3's imaginary parts
        coeffs = [-0.4j, 1.0, 2.0, 3.0]
        coeffs[slot] += complex(math.nan, 0.0) if slot == 0 else complex(0.0, math.nan)
        with pytest.raises(ValueError, match="off-slice nan"):
            unembed(Biquaternion(*coeffs))


@given(biquaternions, biquaternions, biquaternions)
@settings(max_examples=200)
def test_associativity(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert left.max_abs_diff(right) <= 1e-13 * max(1.0, left.max_abs())


@given(biquaternions, biquaternions)
@settings(max_examples=150)
def test_matrix_representation_is_faithful(a, b):
    lhs = (a * b).to_matrix()
    rhs = a.to_matrix() @ b.to_matrix()
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_inverse():
    # conj(a)/norm_form(a) inverts a, except where the norm form vanishes
    a = Biquaternion(1.0, 0.5, -0.25, 2.0)
    assert (a * (a.conj / a.norm_form())).max_abs_diff(ONE) < 1e-14
    null = Biquaternion(1.0, 1j)  # norm form 1 + (i)^2 = 0: a zero divisor
    assert abs(null.norm_form()) == 0.0


def test_scalar_arithmetic():
    a = Biquaternion(1.0, 2.0, 3.0, 4.0)
    assert 2.0 * a == a * 2.0 == a + a
    assert a / 2.0 + a / 2.0 == a
    assert (1j * a).c1 == 2j


class TestArrayCore:
    """The (..., 4) array kernels against the plain-Python reference of conftest."""

    def test_product_matches_scalar(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        b = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        out = array_mul(a, b)
        for x, y, z in zip(a, b, out):
            # numpy may fuse multiply-adds, so agreement is to rounding, not bits
            ref = Biquaternion(*mul(x, y))
            assert ref.max_abs_diff(Biquaternion(*z)) <= 1e-14

    def test_unit_table_exact(self):
        units = np.array([u.coeffs for u in (I0, I1, I2, I3)])
        table = array_mul(units[:, None, :], units[None, :, :])
        for i, u in enumerate((I0, I1, I2, I3)):
            for j, v in enumerate((I0, I1, I2, I3)):
                assert Biquaternion(*table[i, j]) == Biquaternion(*mul(u, v))

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 1, 4)) + 0j
        b = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        out = array_mul(a, b)
        assert out.shape == (3, 5, 4)
        assert np.array_equal(out[2, 4], array_mul(a[2, 0], b[4]))

    def test_conj_matches_scalar_exactly(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        out = array_conj(a)
        for x, z in zip(a, out):
            assert Biquaternion(*z) == Biquaternion(*conj(x))
        assert np.array_equal(array_conj(out), a)

    def test_norm_form_matches_scalar(self):
        rng = np.random.default_rng(44)
        a = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
        out = array_norm_form(a)
        assert out.shape == (100,)
        for x, n in zip(a, out):
            # fused multiply-adds again: agreement to rounding
            assert abs(n - mul(x, conj(x))[0]) <= 1e-14 * max(1.0, abs(n))

    def test_embed_matches_scalar_exactly(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(-3.0, 3.0, size=(100, 4))
        out = array_embed(x)
        for v, z in zip(x, out):
            assert Biquaternion(*z) == embed(v)
        assert np.array_equal(array_embed(x[7]), out[7])

    def test_embedded_norm_is_minkowski_form(self):
        rng = np.random.default_rng(46)
        x = rng.uniform(-3.0, 3.0, size=(100, 4))
        n = array_norm_form(array_embed(x))
        assert n.real.tolist() == [minkowski(v) for v in x]
        assert np.all(n.imag == 0.0)

    def test_to_matrix_matches_scalar_exactly(self):
        rng = np.random.default_rng(47)
        a = rng.standard_normal((2, 30, 4)) + 1j * rng.standard_normal((2, 30, 4))
        out = array_to_matrix(a)
        assert out.shape == (2, 30, 2, 2)
        for x, m in zip(a.reshape(-1, 4), out.reshape(-1, 2, 2)):
            b = Biquaternion(*x)
            c0, c1, c2, c3 = b.coeffs
            assert np.array_equal(m, [[c0 - 1j * c3, -1j * c1 - c2], [-1j * c1 + c2, c0 + 1j * c3]])
            assert np.array_equal(b.to_matrix(), m)


class TestReadOnlyView:
    """A Biquaternion is a read-only view of one (4,) complex array."""

    @pytest.mark.parametrize("name", ["c0", "c1", "c2", "c3", "coeffs", "other"])
    def test_attribute_assignment_raises(self, name):
        b = Biquaternion(1.0, 2.0)
        with pytest.raises(AttributeError):
            setattr(b, name, 2.0)
        assert b.coeffs == (1.0, 2.0, 0.0, 0.0)

    def test_array_is_read_only(self):
        b = Biquaternion(1.0, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(b)[1] = 5.0
        assert b.c1 == 2.0

    def test_units_survive_a_write_attempt(self):
        with pytest.raises(AttributeError):
            I1.c1 = 2.0
        x = Biquaternion(1.0, 2.0, 3.0, 4.0)
        assert tachyon_double(x) == Biquaternion(-1.0, -2.0, 3.0, 4.0)

    def test_value_semantics(self):
        assert len({Biquaternion(0.0), Biquaternion(-0.0)}) == 1
        assert Biquaternion(1) == Biquaternion(1 + 0j)
        b = Biquaternion(1, 2j, -0.5, 3 + 4j)
        assert repr(b) == "Biquaternion((1+0j), 2j, (-0.5+0j), (3+4j))"
        assert [type(c) for c in (*b.coeffs, b.c0, b.c1, b.c2, b.c3)] == [complex] * 8
        assert copy.deepcopy(b) == b == pickle.loads(pickle.dumps(b))

    def test_numpy_sees_the_array(self):
        assert np.array([I1, I2]).shape == (2, 4)
        assert np.array_equal(np.array([I1, I2]), [I1.coeffs, I2.coeffs])
        with pytest.raises(TypeError):
            np.ones(4) * I1
        with pytest.raises(TypeError):
            I1 + np.ones(4)


# an off-slice value with every coefficient inexact, and a unit rotor of the (0, 1) plane
X = Biquaternion(0.3 - 1j, 1.5 + 0.1j, -2j, 0.25 + 0.5j)
ROTOR = Biquaternion(0.8, 0.6)


class TestEitherRepresentation:
    """Each boundary takes a Biquaternion or its (4,) array and gives the same bits."""

    @pytest.mark.parametrize("fn", [component_map, tachyon_quaternion, tachyon_double,
                                    lambda x: sandwich(ROTOR, x),
                                    lambda x: sandwich(np.array(ROTOR.coeffs), x)],
                             ids=["component_map", "tachyon_quaternion", "tachyon_double",
                                  "sandwich", "sandwich-array-rotor"])
    def test_result_has_the_type_given(self, fn):
        out, out_array = fn(X), fn(np.array(X.coeffs))
        assert type(out) is Biquaternion and type(out_array) is np.ndarray
        assert np.asarray(out).tobytes() == out_array.tobytes()

    def test_sandwich_rotor_either_way(self):
        assert sandwich(np.array(ROTOR.coeffs), X) == sandwich(ROTOR, X)

    def test_unit_reflector(self):
        out = unit_reflector(X)
        assert out.tobytes() == unit_reflector(np.array(X.coeffs)).tobytes()
        assert out.tobytes() == np.array([X.coeffs, X.conj.coeffs]).tobytes()

    def test_unembed(self):
        b = embed((0.4, -1.2, 0.7, 2.0))
        assert unembed(b).tolist() == unembed(np.array(b.coeffs)).tolist() == [0.4, -1.2, 0.7, 2.0]
        assert unembed(np.array(b.coeffs)).dtype == float

    def test_residual_potential_and_mass(self):
        pw = PlaneWave(nu=1.35, mu=0.75, mass=1.0, eA=0.1)
        wave, (a, e), m = bound_solution(pw), pw.potential(), mass_term(pw.mass)
        points = np.random.default_rng(12).uniform(-2.0, 2.0, size=(10, 4))
        ref = residual(wave, a, e, m, points)
        for a_pot, mass in ((np.array(a.coeffs), m), (a, np.array(m.coeffs)),
                            (np.asarray(a), np.asarray(m))):
            assert residual(wave, a_pot, e, mass, points) == ref

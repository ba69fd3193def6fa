import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from circledirac import qed
from circledirac import (
    FloatRange,
    InvalidQuantumNumber,
    NonpositiveMass,
    SpeedDomain,
    ZeroCharge,
    coefficient_d,
    coefficient_d_prime,
    replacement_map,
    rho_residual,
    solve_rho,
)

ALPHA = 1.0 / 137.0


class TestCoefficientD:
    def test_ground(self):
        assert coefficient_d(1) == pytest.approx(3.0 / (4.0 * math.pi))
        assert coefficient_d(1) == pytest.approx(0.238732, abs=1e-6)

    def test_second_level(self):
        assert coefficient_d(2) == pytest.approx(3.0 / (16.0 * math.pi))

    def test_inverse_square_scaling(self):
        for n in range(1, 12):
            assert coefficient_d(n) * n * n == pytest.approx(coefficient_d(1), rel=1e-15)

    def test_rejects(self):
        with pytest.raises(InvalidQuantumNumber):
            coefficient_d(0)

    @pytest.mark.parametrize("n", [True, 2.0, 1.5, "1"])
    def test_rejects_non_integer(self, n):
        with pytest.raises(InvalidQuantumNumber):
            coefficient_d(n)

    def test_accepts_numpy_integers(self):
        assert coefficient_d(np.int64(2)) == coefficient_d(2)


class TestCoefficientDPrime:
    def test_reduces_to_d_exactly(self):
        for n_theta in range(1, 11):
            for alpha in (ALPHA, 0.3, 0.9):
                assert coefficient_d_prime(alpha, n_theta, 0) \
                    == coefficient_d(n_theta)

    def test_zero_coupling_matches_principal(self):
        # alpha = 0, one vibration: bracket (1 + 1 + 2) = 4 = n^2 with n = 2
        assert coefficient_d_prime(0.0, 1, 1) == pytest.approx(coefficient_d(2))

    def test_rejects_speed_domain(self):
        with pytest.raises(SpeedDomain):
            coefficient_d_prime(1.0, 1, 0)
        with pytest.raises(SpeedDomain, match="alpha=-5.0"):
            coefficient_d_prime(-5.0, 1, 1)

    def test_array_grid_matches_scalar_calls(self):
        grid = coefficient_d_prime(ALPHA, np.arange(1, 11)[:, None], np.arange(0, 11))
        assert grid.shape == (10, 11)
        assert grid.tolist() == [[coefficient_d_prime(ALPHA, n_theta, n_r)
                                  for n_r in range(0, 11)] for n_theta in range(1, 11)]
        assert coefficient_d(np.arange(1, 11)).tolist() == [coefficient_d(n) for n in range(1, 11)]


class TestReplacementMap:
    def test_zero_coupling(self):
        assert replacement_map(0.0, 3) == 3.0

    @pytest.mark.parametrize("n_theta", [0, True, 2.0, 1.5])
    def test_rejects_non_integer(self, n_theta):
        with pytest.raises(InvalidQuantumNumber):
            replacement_map(0.1, n_theta)

    @pytest.mark.parametrize("alpha", [-5.0, -1e-300, 3.0, 4.5, math.nan])
    def test_rejects_speed_domain(self, alpha):
        with pytest.raises(SpeedDomain, match=f"alpha={alpha}, n_theta=3"):
            replacement_map(alpha, 3)

    def test_array_names_first_offending_row(self):
        n_theta = np.array([1, 2, 3, 4])
        with pytest.raises(SpeedDomain, match=r"^row 2: need 0 <= alpha < n_theta for a bound orbit, got alpha=-1.0, n_theta=3$"):
            replacement_map(np.array([0.5, 1.5, -1.0, 9.0]), n_theta)
        with pytest.raises(InvalidQuantumNumber, match=r"^row 1: n_theta must be an integer >= 1, got 0$"):
            replacement_map(0.5, np.array([1, 0, -1]))
        with pytest.raises(InvalidQuantumNumber, match="array of dtype float64"):
            replacement_map(0.5, np.array([1.0, 2.0]))

    def test_no_vibration_is_identity_on_radicand(self):
        root = replacement_map(0.5, 2)
        assert (root + 0) ** 2 + 0.25 == pytest.approx(4.0, rel=1e-15)


class TestSolveRho:
    def test_zero_potential(self):
        sol = solve_rho(0.0, 1.0, 0.5, 0.1)
        assert sol.rho_plus == sol.rho_minus == 0.0
        assert sol.residual_plus == sol.residual_minus == 0.0

    def test_massless_branches(self):
        d_prime = 0.1
        sol = solve_rho(2.0, 0.0, 0.5, d_prime)
        assert sol.rho_minus == 0.0
        assert sol.rho_plus == pytest.approx(2.0 ** 3 * 0.25 * d_prime, rel=1e-15)

    def test_branch_ordering(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            sol = solve_rho(rng.uniform(0.01, 3.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.2, 2.0), 0.2)
            assert sol.rho_plus >= sol.rho_minus

    def test_residual_evaluator_detects_non_roots(self):
        d_prime = 0.2
        sol = solve_rho(1.5, 1.0, 0.5, d_prime)
        assert abs(rho_residual(sol.rho_plus + 0.1, 1.5, 1.0, 0.5, d_prime)) > 1e-3

    def test_rejects_zero_charge(self):
        with pytest.raises(ZeroCharge):
            solve_rho(1.0, 1.0, 0.0, 0.1)
        with pytest.raises(ZeroCharge):
            rho_residual(1.0, 1.0, 1.0, 0.0, 0.1)

    @pytest.mark.parametrize("A", [1e52, -1e52, 1e60, 1.4e77, 1e100, -1e200, math.nan])
    def test_non_finite_fields_raise(self, A):
        with pytest.raises(FloatRange, match="A="):
            solve_rho(A, 1.0, math.sqrt(ALPHA), coefficient_d(1))

    @pytest.mark.parametrize("A, mass", [(1e-200, 1.0), (-1e-200, 1.0), (5e-324, 1.0),
                                         (-5e-324, 1.0), (1e-110, 0.0)])
    def test_underflowing_roots_are_zero(self, A, mass):
        # the exact roots lie below half the least subnormal, so both read 0.0, as at A = 0
        e, d = math.sqrt(ALPHA), coefficient_d(1)
        sol = solve_rho(A, mass, e, d)
        assert list(vars(sol).values()) == [A, 0.0, 0.0, 0.0, 0.0]
        batch = solve_rho(np.array([A, 1.5, -A]), mass, e, d)
        fields = np.stack(list(vars(batch).values()))
        assert fields[1:, [0, 2]].tolist() == [[0.0, 0.0]] * 4
        assert fields[:, 1].tolist() == list(vars(solve_rho(1.5, mass, e, d)).values())

    def test_roots_match_mpmath_across_the_range(self):
        # A log-uniform over 1e-170..1e50, both signs: the roots run from below the
        # least subnormal to about 1e150
        rng = np.random.default_rng(2024)
        n = 4000
        A = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-170.0, 50.0, n)
        mass = rng.uniform(0.0, 2.0, n)
        mass[rng.random(n) < 0.15] = 0.0
        e = rng.uniform(0.05, 2.0, n)
        d = rng.uniform(0.01, 0.3, n)
        sol = solve_rho(A, mass, e, d)
        with mpmath.workprec(256):
            for i in range(n):
                want = _mp_roots(*(float(x[i]) for x in (A, mass, e, d)))
                for got, exact in zip((sol.rho_plus[i], sol.rho_minus[i]), want):
                    error = abs(mpmath.mpf(float(got)) - exact)
                    if abs(exact) >= 2.0 ** -1022:
                        # within 4 ulps of the exact root
                        assert error <= 4 * math.ulp(float(exact)), (i, A[i], got, exact)
                    else:
                        # subnormal or smaller: within 2^-1074 beyond the relative error
                        # of the steps in the normal range, so 0.0 only where
                        # |exact| < 2^-1074; a massless root is +0.0, never -0.0
                        bound = 2.0 ** -1074 + 4 * 2.0 ** -53 * abs(exact)
                        assert error <= bound, (i, A[i], got, exact)
                        assert exact != 0 or math.copysign(1.0, got) == 1.0, (i, A[i], got)

    @pytest.mark.parametrize("A", [1e-100, 1e50, -1e50])
    def test_large_finite_potential(self, A):
        sol = solve_rho(A, 1.0, math.sqrt(ALPHA), coefficient_d(1))
        fields = (sol.rho_plus, sol.rho_minus, sol.residual_plus, sol.residual_minus)
        assert all(math.isfinite(v) for v in fields)


def _mp_roots(A, mass, e, d_prime):
    """(rho_plus, rho_minus) in mpmath at the working precision, in cancellation-free forms.

    t = A + s for A > 0 and A - s otherwise adds two magnitudes; the root with
    A's sign is (e^2 d'/2) t A^2 and the other the root product -m^2 d'^2 e^2 A^4
    divided by it.
    """
    A, mass, e, d_prime = (mpmath.mpf(x) for x in (A, mass, e, d_prime))
    s = mpmath.sqrt(A * A + 4 * mass * mass / (e * e))
    t = A + s if A > 0 else A - s
    big = e * e * d_prime / 2 * t * A * A
    small = -2 * d_prime * mass * mass / t * A * A
    return (big, small) if A > 0 else (small, big)


def _scalar_rho_residual(rho, A, mass, e, d):
    """The residual in plain Python floats, its powers products, kept as a reference."""
    A2 = A * A
    return rho * rho / (d * e * e) - A2 * A * rho - mass * mass * d * (A2 * A2)


def _scalar_solve_rho(A, mass, e, d_prime):
    """The solve_rho body one point at a time in plain Python floats (checks dropped)."""
    if A == 0.0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    s = math.sqrt(A * A + 4.0 * mass * mass / (e * e))
    t = A + s if A > 0.0 else A - s
    big = e * e * d_prime / 2.0 * t * A * A
    small = -2.0 * d_prime * mass * mass / t * A * A + 0.0
    rho_p, rho_m = (big, small) if A > 0.0 else (small, big)
    return (A, rho_p, rho_m, _scalar_rho_residual(rho_p, A, mass, e, d_prime),
            _scalar_rho_residual(rho_m, A, mass, e, d_prime))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


class TestArrayKernel:
    def test_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(43)
        n = 12000
        A = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
        A[rng.random(n) < 0.05] = 0.0
        A[: n // 3] = rng.uniform(-3.0, 3.0, n // 3)
        mass = rng.uniform(0.0, 2.0, n)
        mass[rng.random(n) < 0.1] = 0.0
        e = rng.uniform(0.2, 2.0, n)
        d = rng.uniform(0.01, 0.3, n)
        sol = solve_rho(A, mass, e, d)
        got = np.stack((sol.A, sol.rho_plus, sol.rho_minus, sol.residual_plus, sol.residual_minus))
        want = np.array([_scalar_solve_rho(*args) for args in
                         zip(A.tolist(), mass.tolist(), e.tolist(), d.tolist())]).T
        assert got.shape == (5, n)
        assert (_bits(got) == _bits(want)).all()
        for i in range(0, n, 600):
            scalar = solve_rho(float(A[i]), float(mass[i]), float(e[i]), float(d[i]))
            assert all(type(value) is float for value in vars(scalar).values())
            assert (_bits(list(vars(scalar).values())) == _bits(want[:, i])).all()

    def test_broadcasting(self):
        sol = solve_rho(np.array([[0.5], [-2.0]]), 1.0, np.array([0.3, 0.7, 1.1]), 0.2)
        assert sol.rho_plus.shape == (2, 3)
        assert sol.rho_minus[1, 2] == solve_rho(-2.0, 1.0, 1.1, 0.2).rho_minus

    def test_array_error_names_first_offending_row(self):
        A = np.array([1.0, 2.0, 1e60, 0.5, 1e70])
        with pytest.raises(FloatRange, match=r"^row 2: charge-density roots or residuals at "
                                             r"A=1e\+60 \(mass=1.0, e=0.5, d_prime=0.2\)"):
            solve_rho(A, 1.0, 0.5, 0.2)
        with pytest.raises(FloatRange, match=r"^row \(1, 0\): .* at A=1e\+100 "):
            solve_rho(np.array([[1.0, 2.0], [1e100, 3.0]]), 1.0, 0.5, 0.2)
        with pytest.raises(ZeroCharge, match="^row 1: charge e must be nonzero$"):
            solve_rho(A, 1.0, np.array([0.5, 0.0, 0.5, 0.5, 0.5]), 0.2)
        with pytest.raises(ValueError, match="^row 3: d_prime must be positive, got -0.1$"):
            solve_rho(1.0, 1.0, 0.5, np.array([0.1, 0.2, 0.3, -0.1]))

    def test_rejects_negative_mass(self):
        # m = 0 is the massless branch; a negative or NaN mass is no rest mass
        assert solve_rho(1.5, 0.0, 0.5, 0.2).rho_minus == 0.0
        for mass in (-1.0, -5e-324, math.nan):
            with pytest.raises(NonpositiveMass, match=f"^mass must be non-negative, got {mass}$"):
                solve_rho(1.5, mass, 0.5, 0.2)
        with pytest.raises(NonpositiveMass, match=r"^row 2: mass must be non-negative, got -1.0$"):
            solve_rho(1.5, np.array([1.0, 0.0, -1.0, -2.0]), 0.5, 0.2)

    def test_residual_of_overflowing_power_is_not_finite(self):
        assert not math.isfinite(rho_residual(1.0, 1e100, 1.0, 0.5, 0.2))
        assert rho_residual(np.array([1.0, 2.0]), 1.5, 1.0, 0.5, 0.2).tolist() == \
            [rho_residual(1.0, 1.5, 1.0, 0.5, 0.2), rho_residual(2.0, 1.5, 1.0, 0.5, 0.2)]


def test_imports_nothing_from_spectrum():
    # a command that needs only the charge density can load qed without the spectrum
    imported = set()
    for node in ast.walk(ast.parse(Path(qed.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "spectrum" not in imported

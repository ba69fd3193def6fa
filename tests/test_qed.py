import math

import numpy as np
import pytest

from circledirac import (
    FloatRange,
    InvalidQuantumNumber,
    QuantumNumbers,
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
                assert coefficient_d_prime(QuantumNumbers(n_theta, 0), alpha) \
                    == coefficient_d(n_theta)

    def test_zero_coupling_matches_principal(self):
        # alpha = 0, one vibration: bracket (1 + 1 + 2) = 4 = n^2 with n = 2
        assert coefficient_d_prime(QuantumNumbers(1, 1), 0.0) == pytest.approx(coefficient_d(2))

    def test_positive_over_grid(self):
        for n_theta in range(1, 11):
            for n_r in range(0, 11):
                assert coefficient_d_prime(QuantumNumbers(n_theta, n_r), ALPHA) > 0.0

    def test_rejects_speed_domain(self):
        with pytest.raises(SpeedDomain):
            coefficient_d_prime(QuantumNumbers(1, 0), 1.0)


class TestReplacementMap:
    def test_zero_coupling(self):
        assert replacement_map(3, 0.0) == 3.0

    def test_bracket_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            n_theta = int(rng.integers(1, 11))
            n_r = int(rng.integers(0, 11))
            alpha = rng.uniform(0.0, 0.99) * n_theta
            root = replacement_map(n_theta, alpha)
            bracket = n_theta ** 2 + n_r ** 2 + 2 * n_r * root
            assert (root + n_r) ** 2 + alpha ** 2 == pytest.approx(bracket, rel=1e-14)

    @pytest.mark.parametrize("n_theta", [0, True, 2.0, 1.5])
    def test_rejects_non_integer(self, n_theta):
        with pytest.raises(InvalidQuantumNumber):
            replacement_map(n_theta, 0.1)

    def test_no_vibration_is_identity_on_radicand(self):
        root = replacement_map(2, 0.5)
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

    def test_residuals_on_grid(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(-3.0, 3.0)
            mass = rng.uniform(0.0, 2.0)
            e = rng.uniform(0.2, 2.0)
            d_prime = coefficient_d_prime(
                QuantumNumbers(int(rng.integers(1, 6)), int(rng.integers(0, 6))), ALPHA)
            sol = solve_rho(a, mass, e, d_prime)
            for rho, res in ((sol.rho_plus, sol.residual_plus),
                             (sol.rho_minus, sol.residual_minus)):
                scale = max(rho * rho / (d_prime * e * e), abs(a ** 3 * rho),
                            mass * mass * d_prime * a ** 4, 1e-300)
                worst = max(worst, abs(res) / scale)
        assert worst <= 1e-12

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

    @pytest.mark.parametrize("A", [1e52, -1e52, 1e60, 1.4e77, 1e100, -1e200, 1e-200, math.nan])
    def test_non_finite_fields_raise(self, A):
        with pytest.raises(FloatRange, match="A="):
            solve_rho(A, 1.0, math.sqrt(ALPHA), coefficient_d(1))

    @pytest.mark.parametrize("A", [1e-100, 1e50, -1e50])
    def test_large_finite_potential(self, A):
        sol = solve_rho(A, 1.0, math.sqrt(ALPHA), coefficient_d(1))
        fields = (sol.rho_plus, sol.rho_minus, sol.residual_plus, sol.residual_minus)
        assert all(math.isfinite(v) for v in fields)

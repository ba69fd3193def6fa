import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledirac import floattext, spectrum
from circledirac import (
    CircleDiracError,
    FloatRange,
    InvalidQuantumNumber,
    NonpositiveMass,
    SpectrumTable,
    SpeedDomain,
    bohr_solve,
    coefficient_d_prime,
    coupled_solve,
    energy_closed_form,
    lines_to_csv,
    lines_to_json,
    replacement_map,
    sommerfeld_reference,
    spectrum_table,
)

ALPHA = 1.0 / 137.0
CODATA_ALPHA = 7.2973525693e-3
ELECTRON_MASS_EV = 510998.9461


# every function that names a level by (alpha, n_theta, n_r), with its own integer checks
LEVEL_FUNCTIONS = [coupled_solve, energy_closed_form, sommerfeld_reference, coefficient_d_prime]


class TestQuantumNumbers:
    def test_principal(self):
        table = spectrum_table(ALPHA, 1.0, 2, 3)
        assert (table.n == table.n_theta + table.n_r).all()
        assert table.n[(table.n_theta == 2) & (table.n_r == 3)].tolist() == [5]

    def test_validation(self):
        for level in LEVEL_FUNCTIONS:
            with pytest.raises(InvalidQuantumNumber):
                level(0.3, 0, 0)
            with pytest.raises(InvalidQuantumNumber):
                level(0.3, 1, -1)

    @pytest.mark.parametrize("n_theta, n_r", [
        (True, 0), (1, False), (1.0, 0), (1, 2.0), (1.5, 0), ("1", 0), (None, 0),
    ])
    def test_rejects_non_integers(self, n_theta, n_r):
        for level in LEVEL_FUNCTIONS:
            with pytest.raises(InvalidQuantumNumber):
                level(0.3, n_theta, n_r)

    def test_numpy_integers_stored_as_int(self):
        state = coupled_solve(0.3, np.int64(3), np.uint8(2))
        assert type(state.bohr.n_theta) is int and state.bohr.n_theta == 3
        assert vars(state) == vars(coupled_solve(0.3, 3, 2))
        for level in LEVEL_FUNCTIONS[1:]:
            assert level(0.3, np.int64(3), np.uint8(2)) == level(0.3, 3, 2)

    # (alpha, n_theta, n_r) with the error the level functions raise, n_theta checked
    # first, then n_r, then alpha
    @pytest.mark.parametrize("alpha, n_theta, n_r, error, message", [
        (5.0, 0, -1, InvalidQuantumNumber, "n_theta must be an integer >= 1, got 0"),
        (5.0, True, -1, InvalidQuantumNumber, "n_theta must be an integer >= 1, got True"),
        (5.0, 1, -1, InvalidQuantumNumber, "n_r must be an integer >= 0, got -1"),
        (math.nan, 2, 1.0, InvalidQuantumNumber, "n_r must be an integer >= 0, got 1.0"),
        (np.array([0.1, 5.0]), np.array([1, 0]), np.array([0, -1]), InvalidQuantumNumber,
         "row 1: n_theta must be an integer >= 1, got 0"),
        (5.0, 1, 0, SpeedDomain, "need 0 <=? alpha < n_theta for a bound orbit, "
                                 "got alpha=5.0, n_theta=1"),
    ])
    def test_error_precedence(self, alpha, n_theta, n_r, error, message):
        for level in LEVEL_FUNCTIONS:
            with pytest.raises(error, match=f"^{message}$"):
                level(alpha, n_theta, n_r)

    def test_integers_first_raises(self):
        # with the integers first, the float lands on n_theta and is refused
        with pytest.raises(InvalidQuantumNumber, match="^n_theta must be an integer >= 1, got 0.3$"):
            coefficient_d_prime(1, 0.3, 0)
        with pytest.raises(InvalidQuantumNumber, match="^n_theta must be an integer >= 1, got 0.3$"):
            replacement_map(2, 0.3)


class TestCircleQuantization:
    def test_circle_wave_energy(self):
        # the rest circle's radius is R0 = n_theta, and the vibration's energy eta = n_r/R0
        c = coupled_solve(0.3, 3, 2)
        assert c.bohr.R0_l == 3.0
        assert c.eta_l == 2 / 3

    def test_rejects(self):
        with pytest.raises(InvalidQuantumNumber):
            bohr_solve(0.3, 0)

    @pytest.mark.parametrize("n_theta", [True, 4.0, 1.5, "1"])
    def test_rejects_non_integers(self, n_theta):
        with pytest.raises(InvalidQuantumNumber):
            bohr_solve(0.3, n_theta)


class TestBohrSolve:
    def test_orbit_speed(self):
        assert bohr_solve(ALPHA, 1).v_b == ALPHA
        assert bohr_solve(ALPHA, 3).v_b == pytest.approx(ALPHA / 3)

    def test_weak_coupling_limit(self):
        b = bohr_solve(1e-8, 1)
        assert b.nu_b == pytest.approx(1.0, abs=1e-15)

    def test_strong_orbit_frozen_values(self):
        b = bohr_solve(0.6, 1)
        assert b.v_b == 0.6
        assert b.eta_b == pytest.approx(1.25)
        assert b.mu_b == pytest.approx(0.75)
        assert b.nu_b == pytest.approx(0.8)
        assert b.R1_b == pytest.approx(0.8 / 0.6)
        assert b.eA_b == pytest.approx(-0.45)
        assert b.R0_l == 1.0

    def test_total_energy_chain(self):
        # nu = eta + eA agrees with the closed form sqrt(1 - v^2)
        for alpha in (ALPHA, 0.3, 0.6):
            b = bohr_solve(alpha, 1)
            assert b.nu_b == pytest.approx(b.eta_b + b.eA_b, rel=1e-14)
            assert b.nu_b == pytest.approx(math.sqrt(1 - alpha * alpha), rel=1e-14)

    def test_rejects_speed_domain(self):
        with pytest.raises(SpeedDomain):
            bohr_solve(1.0, 1)
        with pytest.raises(SpeedDomain):
            bohr_solve(2.5, 2)


class TestCoupledSolve:
    def test_ground_level(self):
        c = coupled_solve(1.0 / 137.0, 1, 0)
        assert c.nu_m == pytest.approx(0.99997336, abs=5e-9)
        assert c.nu_m == pytest.approx(math.sqrt(1 - (1.0 / 137.0) ** 2), rel=1e-15)

    def test_frozen_strong_coupling_state(self):
        # alpha=0.6, one vibration: K = 3, v_m = 1/sqrt(10)
        c = coupled_solve(0.6, 1, 1)
        assert c.eta_l == pytest.approx(1.0)
        assert c.v_m == pytest.approx(1 / math.sqrt(10), rel=1e-15)
        assert c.nu_m == pytest.approx(math.sqrt(0.9), rel=1e-15)
        assert c.mu_m == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert c.vprime_m == pytest.approx(3.0, rel=1e-14)
        # heavy electron at the orbital speed
        assert c.nu_h == pytest.approx(1.8)
        assert c.eta_h == pytest.approx(1.8 / 0.64, rel=1e-14)
        assert c.mu_h == pytest.approx(1.8 * 0.6 / 0.64, rel=1e-14)
        assert c.m_h == pytest.approx(2.25, rel=1e-14)

    def test_near_critical_level_matches_oracle(self):
        # alpha one ulp below 1: v_m rounds to 1, so nu_m comes from K alone; the worst
        # relative error measured on this grid is 3.1e-16, at (1, 1)
        alpha = 0.9999999999999999
        assert coupled_solve(alpha, 1, 0).nu_m == pytest.approx(
            sommerfeld_reference(alpha, 1, 0), rel=4e-16)
        n_theta, n_r = np.arange(1, 31)[:, None], np.arange(31)
        got = coupled_solve(alpha, n_theta, n_r).nu_m
        want = sommerfeld_reference(alpha, n_theta, n_r)
        assert (abs(got - want) <= 4e-16 * want).all()

    def test_heavy_electron_relations(self):
        for alpha in (ALPHA, 0.3, 0.6):
            for n_r in range(0, 9):
                c = coupled_solve(alpha, 2, n_r)
                assert c.mu_h / c.eta_h == pytest.approx(c.bohr.v_b, rel=1e-13)
                assert c.eta_h ** 2 - c.mu_h ** 2 == pytest.approx(c.m_h ** 2, rel=1e-13)
                assert c.eta_h * c.nu_h == pytest.approx(c.m_h ** 2, rel=1e-13)


class TestTwoRoutes:
    @pytest.mark.parametrize("alpha, n_theta, n_r", [(1.0, 1, 0), (2.5, 2, 3), (7.0, 7, 1)])
    def test_reference_speed_domain(self, alpha, n_theta, n_r):
        with pytest.raises(SpeedDomain):
            sommerfeld_reference(alpha, n_theta, n_r)

    def test_reference_agreement(self):
        for n_theta in range(1, 6):
            for n_r in range(0, 6):
                b = energy_closed_form(ALPHA, n_theta, n_r)
                assert abs(b - sommerfeld_reference(ALPHA, n_theta, n_r)) <= 1e-14

    def test_free_limit(self):
        for n_theta in (1, 2, 5):
            for n_r in (0, 1, 4):
                assert energy_closed_form(0.0, n_theta, n_r) == 1.0

    def test_huge_quantum_numbers_overflow_quietly(self):
        # k*k or (root + n_r)^2 overflows to inf, alpha^2/inf is 0 and the level is the
        # rest mass, without a RuntimeWarning (which the test configuration makes an error)
        assert energy_closed_form(0.3, 10**200, 0) == 1.0
        assert energy_closed_form(0.3, 1, 10**200) == 1.0

    def test_fine_structure_splitting(self):
        # same principal number, different angular number
        delta = energy_closed_form(ALPHA, 2, 0) - energy_closed_form(ALPHA, 1, 1)
        oracle = ALPHA ** 4 / 32.0
        assert delta == pytest.approx(oracle, rel=0.01)


def _python_csv(table):
    """The table's CSV as Python spells it, row by row."""
    want = [",".join(SpectrumTable._fields)]
    for row in zip(*(column.tolist() for column in table)):
        want.append(",".join([str(x) for x in row[:3]] + [format(x, ".17g") for x in row[3:]]))
    return "\n".join(want) + "\n"


def _python_json(table):
    """The table's JSON as ``json.dumps`` writes its row dicts."""
    return json.dumps([dict(zip(SpectrumTable._fields, row))
                       for row in zip(*(column.tolist() for column in table))], allow_nan=False)


class TestSpectrumTable:
    def test_row_count_and_order(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 3, 3)
        assert len(table.n) == 12
        keys = list(zip(table.n.tolist(), table.n_theta.tolist()))
        assert keys == sorted(keys)

    def test_degeneracy_count(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 4, 3)
        for n in (2, 3, 4):
            assert np.count_nonzero(table.n == n) == n

    def test_ground_binding(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 1, 0)
        assert table.binding_ev[0] == pytest.approx(-13.61, abs=0.01)

    def test_rows_match_reference(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 3, 3)
        assert (table.abs_diff <= 1e-12 * ELECTRON_MASS_EV).all()

    def test_fine_structure_pair_differs(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 2, 1)
        energy = dict(zip(zip(table.n_theta.tolist(), table.n_r.tolist()), table.energy_ev))
        assert energy[(2, 0)] != energy[(1, 1)]

    def test_csv_format(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 1, 1)
        text = lines_to_csv(table)
        rows = text.split("\n")
        assert rows[0] == "n_theta,n_r,n,energy_natural,energy_ev,binding_ev,reference_ev,abs_diff"
        assert text.endswith("\n") and "\r" not in text
        first = rows[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[3]) == table.energy_natural[0]

    def test_columns_in_csv_column_order(self):
        table = spectrum_table(0.37, ELECTRON_MASS_EV, 7, 13)
        assert ",".join(SpectrumTable._fields) == lines_to_csv(table).split("\n")[0]
        assert all(column.shape == (7 * 14,) for column in table)
        assert (table.n == table.n_theta + table.n_r).all()
        assert [column.dtype.kind for column in table] == ["i"] * 3 + ["f"] * 5

    @pytest.mark.parametrize("max_n_theta, max_n_r", [(7, 13), (13, 0), (1, 12)])
    def test_rectangular_grid_order(self, max_n_theta, max_n_r):
        table = spectrum_table(0.37, ELECTRON_MASS_EV, max_n_theta, max_n_r)
        assert len(table.n) == max_n_theta * (max_n_r + 1)
        keys = list(zip(table.n.tolist(), table.n_theta.tolist()))
        assert keys == sorted(keys)
        assert set(zip(table.n_theta.tolist(), table.n_r.tolist())) == {
            (k, r) for k in range(1, max_n_theta + 1) for r in range(max_n_r + 1)}

    # CODATA coupling; 1e-300, where every energy is exactly the mass and the bindings
    # underflow; and near-critical coupling
    TEXT_ALPHAS = [CODATA_ALPHA, 1e-300, 1 - 1e-12]

    @pytest.mark.parametrize("mass_ev", [1e-300, ELECTRON_MASS_EV, 1e308])
    def test_csv_text_is_the_per_field_join(self, mass_ev):
        for alpha in self.TEXT_ALPHAS:
            table = spectrum_table(alpha, mass_ev, 6, 5)
            assert lines_to_csv(table) == _python_csv(table)

    @pytest.mark.parametrize("mass_ev", [1e-300, ELECTRON_MASS_EV, 1e308])
    def test_json_text_is_json_dumps(self, mass_ev):
        tables = [spectrum_table(alpha, mass_ev, 6, 5) for alpha in self.TEXT_ALPHAS]
        tables.append(spectrum_table(0.37, mass_ev, 30, 30))
        empty = SpectrumTable(*(column[:0] for column in tables[0]))
        for table in (empty, *tables):
            assert lines_to_json(table) == _python_json(table)

    # A chunk holds STEP rows of five doubles.  Tables of one row less than a chunk, one
    # chunk, one row more and two chunks and a row, and one of 10 001 rows, whose n_theta
    # column needs five digits, so that _int_bytes writes it on both sides of every seam
    STEP = floattext._CHUNK // 5

    @pytest.mark.parametrize("rows", [STEP - 1, STEP, STEP + 1, 2 * STEP + 1, 10001])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunks_join_at_the_seams(self, fmt, rows):
        table = spectrum_table(0.37, ELECTRON_MASS_EV, rows, 0)
        if fmt == "csv":
            chunks, want, marker = list(spectrum._csv_chunks(table)), _python_csv(table), "\n"
        else:
            chunks, want, marker = list(spectrum._json_chunks(table)), _python_json(table), "{"
        assert "".join(chunks) == want
        # the head, each chunk's rows, then the tail
        head, *body, tail = chunks
        assert (head, tail) == ((",".join(SpectrumTable._fields) + "\n", "") if fmt == "csv"
                                else ("[", "]"))
        assert [piece.count(marker) for piece in body] == [
            min(self.STEP, rows - first) for first in range(0, rows, self.STEP)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_values(self, bad):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 2, 1)
        for name in SpectrumTable._fields[3:]:
            column = getattr(table, name).copy()
            column[-1] = bad
            with pytest.raises(ValueError, match="not JSON compliant"):
                lines_to_json(table._replace(**{name: column}))

    @pytest.mark.parametrize("alpha", [1e-6, CODATA_ALPHA, 0.5, 0.999])
    @pytest.mark.parametrize("max_n_theta, max_n_r", [(1, 0), (1, 7), (7, 0), (12, 9)])
    def test_rows_equal_single_level_routes(self, alpha, max_n_theta, max_n_r):
        table = spectrum_table(alpha, ELECTRON_MASS_EV, max_n_theta, max_n_r)
        assert len(table.n) == max_n_theta * (max_n_r + 1)
        for nt, nr, energy, reference in zip(table.n_theta.tolist(), table.n_r.tolist(),
                                              table.energy_natural.tolist(),
                                              table.reference_ev.tolist()):
            assert energy == coupled_solve(alpha, nt, nr).nu_m
            assert reference == sommerfeld_reference(alpha, nt, nr) * ELECTRON_MASS_EV

    def test_rejects_speed_domain(self):
        with pytest.raises(SpeedDomain):
            spectrum_table(1.0, ELECTRON_MASS_EV, 2, 1)

    def test_rejects_infinite_mass(self):
        with pytest.raises(FloatRange, match="^mass_ev must be finite, got inf$"):
            spectrum_table(0.3, math.inf, 1, 1)

    @pytest.mark.parametrize("mass_ev", [-1.0, 0.0, -0.0, math.nan])
    def test_rejects_nonpositive_mass(self, mass_ev):
        with pytest.raises(NonpositiveMass, match=f"^mass_ev must be positive, got {mass_ev}$"):
            spectrum_table(0.1, mass_ev, 1, 0)

    @pytest.mark.parametrize("max_n_theta, max_n_r", [
        (spectrum.MAX_LEVELS + 1, 0), (1000, 1000), (10 ** 30, 10 ** 30)])
    def test_rejects_tables_above_the_cap(self, max_n_theta, max_n_r):
        with pytest.raises(CircleDiracError, match=f"more than the cap MAX_LEVELS = "
                                                   f"{spectrum.MAX_LEVELS}$"):
            spectrum_table(0.1, 1.0, max_n_theta, max_n_r)

    @pytest.mark.parametrize("max_n_theta, max_n_r", [
        (2.0, 1), (True, 1), (0, 1), (2, -1), (2, 1.0), (2, False), ("2", 1),
    ])
    def test_rejects_bad_bounds(self, max_n_theta, max_n_r):
        with pytest.raises(InvalidQuantumNumber, match="max_n_"):
            spectrum_table(0.1, 1.0, max_n_theta, max_n_r)


class TestSharedChecks:
    def test_array_errors_name_first_offending_row(self):
        with pytest.raises(SpeedDomain, match=r"^row 1: need 0 < alpha < n_theta for a bound "
                                              r"orbit, got alpha=1.5, n_theta=1$"):
            coupled_solve(np.array([0.1, 1.5, 0.2, 3.0]), 1, 0)
        with pytest.raises(SpeedDomain, match=r"^row \(0, 1\): need 0 <= alpha .* "
                                              r"got alpha=1.0, n_theta=1$"):
            energy_closed_form(np.array([0.5, 1.0]), np.array([[1], [2]]), 0)
        with pytest.raises(InvalidQuantumNumber, match="^row 1: n_r must be an integer >= 0, got -1$"):
            coupled_solve(0.3, 1, np.array([0, -1]))
        with pytest.raises(InvalidQuantumNumber, match="array of dtype bool"):
            coupled_solve(0.3, np.array([True]), 0)

    def test_tiny_coupling_leaves_the_float_range(self):
        # the orbit radius n_theta^2/alpha and the speed vprime_m = 2/alpha overflow
        with pytest.raises(FloatRange, match=r"^bound orbit at alpha=5e-324 \(n_theta=1\) "
                                             r"leaves the float range$"):
            bohr_solve(5e-324, 1)
        with pytest.raises(FloatRange, match=r"^coupled state at alpha=1e-308 \(n_theta=1, "
                                             r"n_r=1\) leaves the float range$"):
            coupled_solve(1e-308, 1, 1)
        assert math.isfinite(bohr_solve(1e-308, 1).R1_b)
        assert math.isfinite(coupled_solve(1e-308, 1, 0).vprime_m)

    def test_tiny_coupling_names_first_offending_row(self):
        with pytest.raises(FloatRange, match=r"^row \(1, 2\): bound orbit at alpha=5e-324 "):
            bohr_solve(np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 5e-324]]), 1)
        with pytest.raises(FloatRange, match=r"^row 2: coupled state at alpha=1e-308 "
                                             r"\(n_theta=1, n_r=1\) leaves the float range$"):
            coupled_solve(np.array([0.1, 0.2, 1e-308, 1e-308]), 1, 1)


def _scalar_chain(alpha, n_theta, n_r):
    """Route A one level at a time in Python floats: (v_m, nu_m)."""
    v = alpha / n_theta
    K = (math.sqrt(1.0 - v * v) + n_r / n_theta) / v
    root_k = math.sqrt(1.0 + K * K)
    v_m = 1.0 / root_k
    return v_m, K / root_k if K < 1.0 else math.sqrt(1.0 - v_m * v_m)


def _scalar_closed_form(alpha, n_theta, n_r):
    """Route B one level at a time in Python floats, its square a product."""
    d = math.sqrt(n_theta * n_theta - alpha * alpha) + n_r
    return 1.0 / math.sqrt(1.0 + alpha * alpha / (d * d))


def _mpmath_level(a, k, r):
    """The oracle's formula as mpf operators in the current mpmath context, unrounded."""
    a_mp, k_mp = mpmath.mpf(a), mpmath.mpf(k)
    root = mpmath.sqrt(k_mp * k_mp - a_mp * a_mp)
    return 1 / mpmath.sqrt(1 + (a_mp / (mpmath.mpf(r) + root)) ** 2)


def _wrapped_mpmath_reference(alpha, n_theta, n_r):
    """The oracle as mpf operators under ``workdps(40)``, one level at a time."""
    grid = np.broadcast_arrays(np.asarray(alpha, dtype=float), n_theta, n_r)
    with mpmath.workdps(40):
        levels = [float(_mpmath_level(*level))
                  for level in zip(*(x.ravel().tolist() for x in grid))]
    return np.array(levels).reshape(grid[0].shape)


class TestOracleBits:
    """sommerfeld_reference has the bits of the wrapped-mpmath formula, level by level."""

    ALPHAS = [1e-300, 1e-6, CODATA_ALPHA, 0.37, 0.999, 1 - 1e-7, 1 - 1e-10, 1 - 1e-12,
              *np.random.default_rng(46).uniform(0.0, 1.0, 6).tolist()]

    def test_grid_bits(self):
        n_theta, n_r = np.arange(1, 31)[:, None], np.arange(31)
        for alpha in self.ALPHAS:
            got = sommerfeld_reference(alpha, n_theta, n_r)
            want = _wrapped_mpmath_reference(alpha, n_theta, n_r)
            assert (got.view(np.int64) == want.view(np.int64)).all(), alpha

    def test_random_levels_bits(self):
        rng = np.random.default_rng(47)
        n_theta = rng.integers(1, 40, 400)
        alpha = rng.uniform(0.0, 1.0, 400) * n_theta
        n_r = rng.integers(0, 40, 400)
        # near-critical coupling, where k^2 - alpha^2 cancels
        critical = np.arange(1, 31)
        n_theta = np.concatenate((n_theta, critical))
        alpha = np.concatenate((alpha, critical * (1 - 1e-12)))
        n_r = np.concatenate((n_r, rng.integers(0, 40, 30)))
        got = sommerfeld_reference(alpha, n_theta, n_r)
        want = _wrapped_mpmath_reference(alpha, n_theta, n_r)
        assert (got.view(np.int64) == want.view(np.int64)).all()
        single = [sommerfeld_reference(*row) for row in zip(
            alpha.tolist(), n_theta.tolist(), n_r.tolist())]
        assert (np.array(single).view(np.int64) == want.view(np.int64)).all()

    def test_global_context_left_alone(self):
        n_theta, n_r = np.arange(1, 6)[:, None], np.arange(6)
        plain = sommerfeld_reference(0.37, n_theta, n_r)
        prec = mpmath.mp.prec
        with mpmath.workdps(20):
            inner_prec = mpmath.mp.prec
            inside = sommerfeld_reference(0.37, n_theta, n_r)
            assert mpmath.mp.prec == inner_prec
        assert mpmath.mp.prec == prec
        assert (inside.view(np.int64) == plain.view(np.int64)).all()


def _count_arbiter(monkeypatch):
    """Wrap the libmp arbiter; the list it returns gets the level count of each call."""
    calls, arbiter = [], spectrum._libmp_levels

    def counted(levels):
        calls.append(len(levels))
        return arbiter(levels)

    monkeypatch.setattr(spectrum, "_libmp_levels", counted)
    return calls


# (alpha, n_theta, n_r) of a level just inside each edge of the double-word pass's domain,
# and of one just outside it; below alpha's edge every level is exactly 1 and certified
DOMAIN_EDGES = {
    "alpha": ((2.0 ** -300, 1, 0), (math.nextafter(2.0 ** -300, 0.0), 1, 0)),
    "n_theta": ((0.37, 2 ** 53, 0), (0.37, 2 ** 53 + 1, 0)),
    "n_r": ((0.37, 1, 2 ** 53), (0.37, 1, 2 ** 53 + 1)),
}


class TestOracleCertificate:
    """Double-word levels are returned only when certified; the libmp arbiter decides the rest."""

    GRID = np.arange(1, 31)[:, None], np.arange(31)

    def test_forced_fallback_gives_the_same_bits(self, monkeypatch):
        # a half-width of 1 certifies no level
        want = [sommerfeld_reference(alpha, *self.GRID) for alpha in TestOracleBits.ALPHAS]
        calls = _count_arbiter(monkeypatch)
        monkeypatch.setattr(spectrum, "_HALF_WIDTH", 1.0)
        got = [sommerfeld_reference(alpha, *self.GRID) for alpha in TestOracleBits.ALPHAS]
        assert calls == [30 * 31] * len(TestOracleBits.ALPHAS)
        for g, w in zip(got, want):
            assert (g.view(np.int64) == w.view(np.int64)).all()

    def test_arbiter_leaves_the_global_context_alone(self, monkeypatch):
        plain = sommerfeld_reference(0.37, *self.GRID)
        calls = _count_arbiter(monkeypatch)
        monkeypatch.setattr(spectrum, "_HALF_WIDTH", 1.0)
        with mpmath.workdps(20):
            prec = mpmath.mp.prec
            inside = sommerfeld_reference(0.37, *self.GRID)
            assert mpmath.mp.prec == prec
        assert calls == [30 * 31]
        assert (inside.view(np.int64) == plain.view(np.int64)).all()

    @pytest.mark.parametrize("alpha", [CODATA_ALPHA, 0.37, 1 - 1e-12])
    def test_table_grid_never_reaches_the_arbiter(self, alpha, monkeypatch):
        calls = _count_arbiter(monkeypatch)
        sommerfeld_reference(alpha, np.arange(1, 101)[:, None], np.arange(101))
        assert calls == []

    def test_straddling_levels_reach_the_arbiter(self, monkeypatch):
        # a half-width of 2^-58 leaves some levels too close to a rounding boundary
        calls = _count_arbiter(monkeypatch)
        monkeypatch.setattr(spectrum, "_HALF_WIDTH", 2.0 ** -58)
        got = sommerfeld_reference(CODATA_ALPHA, *self.GRID)
        assert len(calls) == 1 and 0 < calls[0] < 30 * 31
        want = _wrapped_mpmath_reference(CODATA_ALPHA, *self.GRID)
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("alpha", [0.37, 2.0 ** 67, 2.0 ** 68 * (1 - 1e-12)])
    def test_exact_squares_bound_the_fixed_point(self, alpha, monkeypatch):
        # libmp's k*k is exact at 136 bits up to k = 2^68 - 1 and rounds from k = 2^68 on,
        # the edge of _libmp_shift's bound; both sides lie beyond the double-word pass's
        # k <= 2^53, so the arbiter decides every level and keeps the wrapped-mpmath bits
        calls = _count_arbiter(monkeypatch)
        for n_theta in [2 ** 68 - 1, 2 ** 68]:
            got = sommerfeld_reference(alpha, n_theta, np.arange(4))
            assert calls == [4]
            want = _wrapped_mpmath_reference(alpha, n_theta, np.arange(4))
            assert (got.view(np.int64) == want.view(np.int64)).all()
            calls.clear()

    @pytest.mark.parametrize("edge", DOMAIN_EDGES)
    def test_domain_edges_keep_the_bits(self, edge, monkeypatch):
        calls = _count_arbiter(monkeypatch)
        for level, arbitrated in zip(DOMAIN_EDGES[edge], ([], [] if edge == "alpha" else [1])):
            got = np.float64(sommerfeld_reference(*level))
            assert calls == arbitrated
            assert got.view(np.int64) == _wrapped_mpmath_reference(*level).view(np.int64)
            calls.clear()

    def test_double_word_shift_bounds_its_error(self):
        # 2^-(_DW_SHIFT + 1) bounds the relative error of the pass's hi + lo, measured against
        # 100 digits on random, near-critical and domain-edge levels, and is within a factor
        # 32 of the worst error seen
        assert spectrum._DW_SHIFT == 99
        rng = np.random.default_rng(49)
        n_theta = rng.integers(1, 60, 400)
        near = 1 - 10.0 ** -rng.uniform(1, 16, 400)
        alpha = n_theta * np.where(np.arange(400) % 2, near, rng.uniform(size=400))
        levels = [*zip(alpha.tolist(), n_theta.tolist(), rng.integers(0, 60, 400).tolist()),
                  *(inside for inside, _ in DOMAIN_EDGES.values()),
                  (2.0 ** 53 - 1, 2 ** 53, 0)]
        a, k, r = (np.array(column, dtype=float) for column in zip(*levels))
        hi, lo = spectrum._double_word_levels(a, k, r)
        worst = mpmath.mpf(0)
        with mpmath.workdps(100):
            for level, h, l in zip(levels, hi.tolist(), lo.tolist()):
                exact = _mpmath_level(*level)
                worst = max(worst, abs(mpmath.mpf(h) + mpmath.mpf(l) - exact) / exact)
        bound = mpmath.ldexp(1, -spectrum._DW_SHIFT - 1)
        assert bound / 32 < worst <= bound

    def test_precision_is_mpmaths_forty_digits(self):
        # spectrum writes the precision as a literal so that importing it never loads mpmath
        assert mpmath.libmp.dps_to_prec(40) == spectrum._PREC

    def test_shift_bounds_libmp_error(self):
        # 2^-(_SHIFT + 1) bounds the relative error of the unrounded 40-digit level,
        # measured against 100 digits, including near-critical coupling
        assert spectrum._SHIFT == 132
        rng = np.random.default_rng(48)
        n_theta = [*rng.integers(1, 60, 200).tolist(), *(2 ** e - 1 for e in range(1, 69)),
                   *(2 ** int(e) - 1 for e in rng.integers(7, 69, 32))]
        near = 1 - 10.0 ** -rng.uniform(1, 13, 300)
        alpha = [float(k * (near[i] if i % 2 else rng.uniform())) for i, k in enumerate(n_theta)]
        assert all(a < k for a, k in zip(alpha, n_theta))
        n_r = rng.integers(0, 60, 300).tolist()
        worst = mpmath.mpf(0)
        for level in zip(alpha, n_theta, n_r):
            with mpmath.workdps(40):
                low = _mpmath_level(*level)
            with mpmath.workdps(100):
                exact = _mpmath_level(*level)
                worst = max(worst, abs(low - exact) / exact)
        assert 0 < worst <= mpmath.ldexp(1, -spectrum._SHIFT - 1)


class TestOneExpression:
    """The level written once: tiny couplings, and the bound evaluator's refusals."""

    TINY_ALPHAS = [0.0, 5e-324, 1e-310, 1e-300, math.nextafter(2.0 ** -300, 0.0)]

    def test_tiny_alpha_is_one_without_the_arbiter(self, monkeypatch):
        # below 2^-300 libmp's level is exactly 1 for every k and n_r, and is certified so
        calls = _count_arbiter(monkeypatch)
        n_theta, n_r = [1, 2, 7, 2 ** 53, 2 ** 53 + 1, 2 ** 70], [0, 1, 100, 2 ** 53 + 1, 2 ** 60]
        for alpha in self.TINY_ALPHAS:
            grid = sommerfeld_reference(alpha, np.arange(1, 101)[:, None], np.arange(101))
            assert (grid == 1.0).all()
            for k in n_theta:
                for r in n_r:
                    want = _wrapped_mpmath_reference(alpha, k, r)
                    got = np.float64(sommerfeld_reference(alpha, k, r))
                    assert want == 1.0 and got.view(np.int64) == want.view(np.int64)
        assert calls == []

    def test_bound_evaluator_refuses_inexact_differences(self):
        bounds = spectrum._bounds(dict.fromkeys(spectrum._DW_CONSTANTS, 2.0 ** -106))
        assert bounds.diff_of_squares(0.0, 0.0) == 2.0 ** -106
        for k, a in [(2.0 ** -106, 0.0), (0.0, 2.0 ** -106), (1e-300, 1e-300)]:
            with pytest.raises(ValueError, match="exact operands"):
                bounds.diff_of_squares(k, a)
        # diff_of_squares is the one subtraction
        assert not hasattr(bounds, "sub")


@st.composite
def _levels(draw):
    n_theta = draw(st.integers(1, 50))
    alpha = draw(st.one_of(st.floats(0.0, n_theta, exclude_max=True),
                           st.floats(0.0, 2.2250738585072014e-308),   # zero and subnormals
                           st.floats(n_theta - 1e-12, n_theta, exclude_max=True)))
    return alpha, n_theta, draw(st.integers(0, 50))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_levels())
def test_reference_has_the_wrapped_mpmath_bits(level):
    got = sommerfeld_reference(*level)
    want = _wrapped_mpmath_reference(*level)
    assert np.float64(got).view(np.int64) == want.view(np.int64)


class TestArrayKernels:
    def test_bit_identical_to_scalar_references(self):
        rng = np.random.default_rng(44)
        n = 12000
        n_theta = rng.integers(1, 21, n)
        n_r = rng.integers(0, 21, n)
        alpha = rng.uniform(1e-6, 0.999, n) * n_theta
        alpha[: n // 4] = 10.0 ** rng.uniform(-12.0, -1.0, n // 4)
        state = coupled_solve(alpha, n_theta, n_r)
        closed = energy_closed_form(alpha, n_theta, n_r)
        rows = list(zip(alpha.tolist(), n_theta.tolist(), n_r.tolist()))
        chain = np.array([_scalar_chain(*row) for row in rows]).T
        want_closed = np.array([_scalar_closed_form(*row) for row in rows])
        bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
        assert (bits(np.stack((state.v_m, state.nu_m))) == bits(chain)).all()
        assert (bits(closed) == bits(want_closed)).all()
        for i in range(0, n, 600):
            a, k, r = rows[i]
            scalar = coupled_solve(a, k, r)
            assert (scalar.v_m, scalar.nu_m) == tuple(chain[:, i])
            assert energy_closed_form(a, k, r) == want_closed[i]

    def test_route_b_bit_identical_at_domain_edge(self):
        # without vibration and near alpha = n_theta the denominator (root + n_r)^2
        # is small, and its last bit reaches the level: a square by the C pow and
        # by a product give different levels there on about 1 input in 4000
        rng = np.random.default_rng(45)
        n_theta = rng.integers(1, 21, 40000)
        alpha = rng.uniform(0.9, 0.999999, 40000) * n_theta
        want = [_scalar_closed_form(a, k, 0) for a, k in zip(alpha.tolist(), n_theta.tolist())]
        assert energy_closed_form(alpha, n_theta, 0).tolist() == want

    def test_scalar_calls_return_plain_numbers(self):
        state = coupled_solve(0.3, np.int64(2), 1)
        fields = [value for name, value in vars(state).items() if name != "bohr"]
        fields += [value for name, value in vars(state.bohr).items() if name != "n_theta"]
        assert all(type(value) is float for value in fields)
        assert type(state.bohr.n_theta) is int
        assert type(energy_closed_form(0.3, 2, 1)) is float
        assert type(sommerfeld_reference(0.3, 2, 1)) is float

    def test_grid_fields_match_single_levels(self):
        alphas = np.array([ALPHA, 0.3])[:, None, None]
        n_theta, n_r = np.arange(1, 4)[:, None], np.arange(0, 3)
        state = coupled_solve(alphas, n_theta, n_r)
        reference = sommerfeld_reference(ALPHA, n_theta, n_r)
        assert state.nu_m.shape == (2, 3, 3) and state.bohr.nu_b.shape == (2, 3, 1)
        for i, alpha in enumerate((ALPHA, 0.3)):
            for j in range(3):
                for k in range(3):
                    single = coupled_solve(alpha, j + 1, k)
                    assert state.nu_m[i, j, k] == single.nu_m
                    assert state.m_h[i, j, k] == single.m_h
                    assert state.bohr.R1_hat[i, j, 0] == single.bohr.R1_hat
                    if i == 0:
                        assert reference[j, k] == sommerfeld_reference(ALPHA, j + 1, k)


def _oracle_binding(alpha, n_theta, n_r, mass_ev):
    """E - m at 50 digits, as an mpf."""
    a = mpmath.mpf(alpha)
    root = mpmath.sqrt(n_theta * n_theta - a * a)
    level = 1 / mpmath.sqrt(1 + (a / (n_r + root)) ** 2)
    return mpmath.mpf(mass_ev) * (level - 1)


class TestBindingEnergy:
    @pytest.mark.parametrize("alpha", [1e-6, CODATA_ALPHA, 0.3, 0.999])
    def test_relative_error_on_grid(self, alpha):
        worst = 0.0
        with mpmath.workdps(50):
            table = spectrum_table(alpha, ELECTRON_MASS_EV, 40, 40)
            for nt, nr, binding in zip(table.n_theta.tolist(), table.n_r.tolist(),
                                       table.binding_ev.tolist()):
                oracle = _oracle_binding(alpha, nt, nr, ELECTRON_MASS_EV)
                worst = max(worst, float(abs(binding - oracle) / abs(oracle)))
        assert worst <= 1e-13

    def test_high_n_splitting_survives(self):
        table = spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 40, 1)
        binding = dict(zip(zip(table.n_theta.tolist(), table.n_r.tolist()),
                           table.binding_ev.tolist()))
        split = binding[(40, 0)] - binding[(39, 1)]
        with mpmath.workdps(50):
            oracle = float(_oracle_binding(CODATA_ALPHA, 40, 0, ELECTRON_MASS_EV)
                           - _oracle_binding(CODATA_ALPHA, 39, 1, ELECTRON_MASS_EV))
        assert split != 0.0
        assert split == pytest.approx(oracle, rel=1e-6)

import cmath
import dataclasses
import functools
import hashlib
import math
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from conftest import (ARC_UNITS, BARE_UNITS, BASELINE_KERNELS, add, analytic, central_difference,
                      conj, max_abs_diff, mul, scalar_lhs, scalar_rhs, scale, sub)

from circledirac import (
    Biquaternion,
    ChartKind,
    I0,
    DispersionViolation,
    NonpositiveMass,
    PlaneWave,
    SpaceChart,
    SuperluminalSpeed,
    WaveFunction,
    bound_solution,
    chart_map,
    de_broglie,
    free_solution,
    mass_term,
    plane_wave_solution,
    planewave,
    residual,
    tachyon_quaternion,
    transform_operator,
    transform_wave,
    unit_reflector,
)
from circledirac.biquaternion import array_conj, array_embed, array_mul
from circledirac.reflector import ARC_TIME_UNITS

RNG = np.random.default_rng(11)
POINTS = [RNG.uniform(-2.0, 2.0, size=4) for _ in range(10)]
ZERO_POT = Biquaternion()

# 3-4-5 wave: (nu - eA)^2 = 1 + mu^2 holds exactly in binary
PW = PlaneWave(nu=1.25, mu=0.75, mass=1.0)


def _args(pw):
    a, e = pw.potential()
    return a, e, mass_term(pw.mass)


class TestFreeSolution:
    def test_zero_phase(self):
        wave = free_solution(1.0)
        assert Biquaternion(*wave.at(np.zeros(4))[0]) == Biquaternion(1.0)

    def test_second_component_quarter_phase(self):
        # at rest the second component is i * phi1
        wave = free_solution(2.0)
        phi1, phi2 = wave.at(np.array([0.3, 0, 0, 1.0]))
        assert np.abs(phi2 - 1j * phi1).max() == 0.0

    def test_single_valued_on_quantized_circle(self):
        # phase returns to 1 after a full turn exactly when mass*R0 is an integer
        wave = free_solution(1.0)
        for n_theta in (1, 2, 3):
            p = np.array([2.0 * math.pi * n_theta, 0, 0, 1.0])
            assert np.abs(wave.at(p)[0] - (1, 0, 0, 0)).max() < 1e-12
        off = np.array([2.0 * math.pi * 2.5, 0, 0, 1.0])
        assert np.abs(wave.at(off)[0] - (1, 0, 0, 0)).max() > 1.0

    def test_residual_vanishes(self):
        rep = residual(free_solution(1.0), ZERO_POT, 1.0, mass_term(1.0), POINTS, h=1e-5)
        assert rep.analytic <= 1e-12
        assert rep.fd <= 1e-10

    def test_rejects_mass(self):
        with pytest.raises(NonpositiveMass):
            free_solution(0.0)


class TestBoundSolution:
    def test_pythagorean_dispersion_exact(self):
        assert PW.dispersion_residual() == 0.0

    def test_reduces_to_free(self):
        rest = PlaneWave(nu=2.0, mu=0.0, mass=2.0)
        wave = bound_solution(rest)
        free = free_solution(2.0)
        p = np.array([0.7, 0.1, 0.2, 1.0])
        assert np.array_equal(wave.at(p), free.at(p))

    def test_rejects_off_shell(self):
        with pytest.raises(DispersionViolation) as exc:
            bound_solution(PlaneWave(nu=1.5, mu=0.75, mass=1.0))
        assert exc.value.residual > 0.1


class TestConstruction:
    EDGES = [
        (0.0, -0.0, 1.0, -0.0), (-0.0, 0.0, 2.0, 0.0), (3, 4, 5, 0),
        (1e308, 1e308, 5e-324, -1e308), (math.inf, 0.0, 1.0, 0.0), (math.nan, 1.0, 1.0, 0.0),
        (1.0, 1e-320, 1e-310, 2.0), (-2.5, -0.75, math.inf, 0.5),
    ]

    def test_prefactor_and_k_are_the_biquaternion_forms(self):
        rng = np.random.default_rng(35)
        randoms = [tuple(rng.uniform(-3.0, 3.0, 4) + (0.0, 0.0, 3.5, 0.0)) for _ in range(50)]
        for nu, mu, mass, eA in self.EDGES + randoms:
            wave = plane_wave_solution(nu, mu, mass, eA)
            phi2 = Biquaternion(1j * (nu - eA) / mass, mu / mass)
            assert wave.prefactor.tobytes() == np.array((I0, phi2), dtype=complex).tobytes()
            assert wave.k.tobytes() == np.array((-nu, mu, 0.0, 0.0)).tobytes()
            assert not wave.prefactor.flags.writeable and not wave.k.flags.writeable

    def test_potential_is_the_embedded_eA(self):
        for eA in (0.0, -0.0, -0.4, np.float64(0.3), 1e308, math.inf):
            a_pot, e = PlaneWave(1.0, 0.0, 1.0, eA).potential()
            with np.errstate(invalid="ignore"):   # array_embed's -1j * inf forms 0 * inf
                want = array_embed((eA, 0.0, 0.0, 0.0))
            assert np.asarray(a_pot).tobytes() == want.tobytes() and e == 1.0

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, -math.inf])
    def test_rejects_mass(self, mass):
        with pytest.raises(NonpositiveMass, match=rf"^mass must be positive, got {mass}$"):
            plane_wave_solution(1.0, 0.0, mass)


class TestResidualHarness:
    def test_linearity(self):
        wave = plane_wave_solution(PW.nu + 0.1, PW.mu, PW.mass)
        scaled = WaveFunction(2.0 * wave.prefactor, wave.k)
        a, e, m = _args(PW)
        r1 = residual(wave, a, e, m, POINTS, h=1e-4)
        r2 = residual(scaled, a, e, m, POINTS, h=1e-4)
        assert r2.analytic == pytest.approx(2.0 * r1.analytic, rel=1e-10)

    def test_wrong_frequency_detected(self):
        wave = plane_wave_solution(PW.nu + 0.1, PW.mu, PW.mass)
        rep = residual(wave, *_args(PW), POINTS, h=1e-5)
        assert rep.analytic >= 0.01

    def test_dispersion_violation_scale(self):
        # off-shell by >= 1e-3 must leave a residual >= 1e-4
        for delta in (1e-3, 1e-2):
            wave = plane_wave_solution(PW.nu + delta, PW.mu, PW.mass)
            rep = residual(wave, *_args(PW), [np.zeros(4)], h=1e-5)
            assert rep.analytic >= 1e-4


BATCH = np.random.default_rng(13).uniform(-2.0, 2.0, size=(50, 4))
ON_SHELL = bound_solution(PW)
OFF_SHELL = plane_wave_solution(PW.nu + 0.1, PW.mu, PW.mass)


def pointwise(wave, deriv, points):
    """Reference: the worst scalar (D - i e A) Phi - Phi M over the points, one at a time."""
    a, e, m = _args(PW)
    return max(max_abs_diff(left, right) for p in points for left, right in
               zip(scalar_lhs(ARC_UNITS, deriv, a, e, wave, p), scalar_rhs(wave, m, p)))


class TestBatchedResidual:
    """The one-pass residual against the per-point scalar reference of conftest."""

    @pytest.mark.parametrize("h", [1e-5, 0.05])
    @pytest.mark.parametrize("wave", [ON_SHELL, OFF_SHELL], ids=["on-shell", "off-shell"])
    def test_matches_pointwise(self, wave, h):
        rep = residual(wave, *_args(PW), BATCH, h=h)
        ref_an = pointwise(wave, analytic, BATCH)
        ref_fd = pointwise(wave, central_difference(h), BATCH)
        if wave is ON_SHELL:
            assert rep.analytic <= 1e-12 and ref_an <= 1e-12
        else:
            assert rep.analytic == pytest.approx(ref_an, rel=1e-9)
        if h == 0.05:
            assert rep.fd == pytest.approx(ref_fd, rel=1e-9)
        else:
            assert abs(rep.fd - ref_fd) <= 1e-9

    @pytest.mark.parametrize("empty", [[], np.empty((0, 4))])
    def test_empty_point_list(self, empty):
        rep = residual(ON_SHELL, *_args(PW), empty)
        assert (rep.fd, rep.analytic) == (0.0, 0.0)

    @pytest.mark.parametrize("wave", [ON_SHELL, OFF_SHELL], ids=["on-shell", "off-shell"])
    def test_independent_of_order_and_split(self, wave):
        args = _args(PW)
        whole = residual(wave, *args, BATCH, h=1e-5)
        assert residual(wave, *args, BATCH[::-1], h=1e-5) == whole
        assert residual(wave, *args, list(BATCH), h=1e-5) == whole
        for k in (1, 17, 49):
            head = residual(wave, *args, BATCH[:k], h=1e-5)
            tail = residual(wave, *args, BATCH[k:], h=1e-5)
            assert whole.fd == max(head.fd, tail.fd)
            assert whole.analytic == max(head.analytic, tail.analytic)

    def test_wave_needs_prefactor_and_wavevector_shapes(self):
        for prefactor, k, shapes in ((np.ones(4), np.ones(4), r"\(4,\) and \(4,\)"),
                                     (np.ones((2, 3)), np.ones(4), r"\(2, 3\) and \(4,\)"),
                                     (np.ones((2, 4)), np.ones(3), r"\(2, 4\) and \(3,\)")):
            with pytest.raises(ValueError, match=r"needs a \(2, 4\) prefactor and a \(4,\) "
                                                 r"wavevector, got " + shapes):
                WaveFunction(prefactor, k)

    @pytest.mark.parametrize("shape", [(6, 5), (6, 3), (3,), ()])
    def test_at_rejects_points_without_four_coordinates(self, shape):
        with pytest.raises(ValueError, match=rf"points need shape \(\.\.\., 4\), got "
                                             rf"{re.escape(str(shape))}"):
            ON_SHELL.at(np.zeros(shape))

    def test_wave_is_frozen(self):
        prefactor, k = np.array(ON_SHELL.prefactor), np.array(ON_SHELL.k)
        wave = WaveFunction(prefactor, k)
        for array in (wave.prefactor, wave.k):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            wave.k = np.zeros(4)
        prefactor[:] = 7.0
        k[:] = 7.0
        assert np.array_equal(wave.prefactor, ON_SHELL.prefactor)
        assert np.array_equal(wave.k, ON_SHELL.k)

    def test_prefactor_in_any_memory_order(self):
        """A Fortran-ordered prefactor and a transposed view are stored C-ordered, and the
        residual reports the C-ordered wave's bits."""
        args = _args(CHARGED)
        wave = bound_solution(CHARGED)
        want = residual(wave, *args, BATCH)
        transposed = np.ascontiguousarray(wave.prefactor.T).T
        for prefactor in (np.asfortranarray(wave.prefactor), transposed):
            assert not prefactor.flags.c_contiguous
            other = WaveFunction(prefactor, wave.k)
            assert other.prefactor.flags.c_contiguous
            got = residual(other, *args, BATCH)
            assert struct.pack("<2d", got.fd, got.analytic) == struct.pack(
                "<2d", want.fd, want.analytic)

    def test_rejects_bad_step_and_shape(self):
        for h in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                residual(ON_SHELL, *_args(PW), BATCH, h=h)
        with pytest.raises(ValueError):
            residual(ON_SHELL, *_args(PW), np.zeros((3, 3)))
        for operator in (ARC_TIME_UNITS[0], ARC_TIME_UNITS[:3]):  # (2, 4) would broadcast
            with pytest.raises(ValueError, match=r"operator needs shape \(4, 2, 4\)"):
                residual(ON_SHELL, *_args(PW), BATCH, operator=operator)


def _chart_points(n):
    """n off-cone points of L mapped onto a T chart, then n more onto an S chart: ``(2n, 4)``."""
    rng = np.random.default_rng(21)
    source = SpaceChart(ChartKind.L)
    batches = []
    for target in (SpaceChart(ChartKind.T, R0=1.3), SpaceChart(ChartKind.S, R0=0.7, R1=1.9)):
        pts = rng.uniform(-2.0, 2.0, size=(n, 4))
        pts[:, 3] = rng.uniform(0.3, 3.0, size=n)
        pts[:, 0] = pts[:, 3] * rng.uniform(-0.9, 0.9, size=n)
        batches.append(chart_map(pts, source, target))
    return np.concatenate(batches)


CHART_POINTS = _chart_points(256)
# a wave with a potential, so every term of the system is nonzero
CHARGED = PlaneWave(nu=-0.4 + math.sqrt(0.8 ** 2 + 1.1 ** 2), mu=1.1, mass=0.8, eA=-0.4)


class TestPointsInnermost:
    """The residual's numpy loops run along the points: no bit may depend on the batch length."""

    @pytest.mark.parametrize("h", [1e-5, 0.05])
    @pytest.mark.parametrize("transformed", [False, True], ids=["plain", "transformed"])
    @pytest.mark.parametrize("shift", [0.0, 0.1], ids=["on-shell", "off-shell"])
    def test_batch_is_the_max_over_single_points(self, shift, transformed, h):
        pw = CHARGED
        wave = plane_wave_solution(pw.nu + shift, pw.mu, pw.mass, pw.eA)
        a, e, m = _args(pw)
        operator = ARC_TIME_UNITS
        if transformed:
            wave, a, m = transform_wave(wave), tachyon_quaternion(a), tachyon_quaternion(m)
            operator = transform_operator(operator)
        whole = residual(wave, a, e, m, CHART_POINTS, h=h, operator=operator)
        singles = [residual(wave, a, e, m, p[None], h=h, operator=operator)
                   for p in CHART_POINTS]
        assert whole.fd == max(r.fd for r in singles)
        assert whole.analytic == max(r.analytic for r in singles)
        assert whole.analytic > 0.0

    def test_at_batch_columns_are_single_points(self):
        wave = transform_wave(bound_solution(CHARGED))
        batch = wave.at(CHART_POINTS)
        assert batch.shape == (2, len(CHART_POINTS), 4)
        for n, p in enumerate(CHART_POINTS):
            assert np.array_equal(batch[:, n], wave.at(p))
        grid = CHART_POINTS.reshape(2, -1, 4)
        assert np.array_equal(wave.at(grid), batch.reshape(2, 2, -1, 4))

    def test_at_has_the_bits_of_a_numpy_sum_of_products(self):
        """at sums k_mu x_mu in coordinate order; numpy's per-point sum of the
        elementwise products gives the same bits, at zeros, subnormals and 1e300 too."""
        rng = np.random.default_rng(23)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300, 1.0])
        points = np.concatenate((rng.choice(special, size=(512, 4)), CHART_POINTS,
                                 np.where(rng.random((256, 4)) < 0.5, rng.choice(special, (256, 4)),
                                          rng.uniform(-3.0, 3.0, (256, 4)))))
        charged = bound_solution(CHARGED)
        for k in (charged.k, transform_wave(charged).k, rng.uniform(-2.0, 2.0, 4),
                  np.array([-0.0, 5e-324, 1e300, -1.5])):
            wave = WaveFunction(charged.prefactor, k)
            with np.errstate(all="ignore"):
                phases = np.exp(1j * (points * k).sum(axis=-1))
                assert wave.at(points).tobytes() == (wave.prefactor[:, None, :]
                                                     * phases[:, None]).tobytes()


def _with_prefactor_slot(wave, index, value):
    prefactor = np.array(wave.prefactor)
    prefactor[index] = value
    return WaveFunction(prefactor, wave.k)


class _DriftingWave(WaveFunction):
    """A wave whose phase moves along x3 at 0.5 while its k3 reads 0."""

    def _phase(self, p):
        return super()._phase(p) + 0.5 * p[..., 3]


class TestStillDirections:
    """residual differences all four coordinates: one the wave does not move along adds
    exact zeros, or the NaN or inf that a non-finite input gives."""

    CHARGED_WAVE = bound_solution(CHARGED)
    INF_UNIT = np.array(ARC_TIME_UNITS)
    INF_UNIT[3, 1, 3] = math.inf
    # wave, points, keywords, and the report (fd, analytic); in the last two a still
    # coordinate's own terms are NaN
    EDGES = {
        "all-k-nonzero": (WaveFunction(CHARGED_WAVE.prefactor, (-0.9, 1.1, 0.3, -0.7)), BATCH[:6],
                          {}, (1.259588226390085, 1.2595882263660614)),
        "k-zero": (WaveFunction(CHARGED_WAVE.prefactor, np.zeros(4)), BATCH[:6], {}, (1.1, 1.1)),
        "inf-point": (CHARGED_WAVE, np.concatenate((BATCH[:2], [[0.3, -0.2, math.inf, 1.0]])),
                      {}, (math.nan, math.nan)),
        "inf-prefactor": (_with_prefactor_slot(CHARGED_WAVE, (1, 1), math.inf), BATCH[:6],
                          {}, (math.nan, math.nan)),
        "huge-prefactor": (_with_prefactor_slot(CHARGED_WAVE, (0, 2), 1e308 + 1e308j), BATCH[:6],
                           {}, (math.inf, math.inf)),
        "inf-operator-unit": (CHARGED_WAVE, BATCH[:6], {"operator": INF_UNIT},
                              (math.nan, math.nan)),
        "k-zero-subnormal-step": (WaveFunction(CHARGED_WAVE.prefactor, np.zeros(4)), BATCH[:6],
                                  {"h": 5e-324}, (math.nan, 1.1)),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_edge_reports(self, name):
        wave, points, keywords, expected = self.EDGES[name]
        with np.errstate(all="ignore"):
            rep = residual(wave, *_args(CHARGED), points, **keywords)
        for got, want in zip((rep.fd, rep.analytic), expected):
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_fd_sees_a_phase_moving_along_a_zero_k(self):
        """The central difference reads the shifted phases, not k: a route that read k
        would report about 5e-11."""
        wave = _DriftingWave(self.CHARGED_WAVE.prefactor, self.CHARGED_WAVE.k)
        rep = residual(wave, *_args(CHARGED), BATCH[:6])
        assert rep.fd >= 1e-3
        assert rep.analytic <= 1e-12   # the drift is a constant phase at each point

    def test_non_finite_input_stays_nan(self):
        a, e, m = _args(CHARGED)
        wave = bound_solution(CHARGED)
        with np.errstate(all="ignore"):
            reports = [residual(wave, a, e, m, points) for points in
                       ([[math.inf, 0.1, 0.2, 1.0]], [[0.1, math.nan, 0.2, 1.0]],
                        [[0.1, 0.2, 0.3, 1.0], [0.0, -math.inf, 0.0, 1.0]])]
            # a mass of 1e-320 makes the second component's prefactor infinite
            reports.append(residual(plane_wave_solution(1.0, 0.5, 1e-320), ZERO_POT, 1.0,
                                    mass_term(1e-320), POINTS))
        for rep in reports:
            assert math.isnan(rep.fd) and math.isnan(rep.analytic)


# sha256 of the reports below: residual's bits for every kind of wave it is given
RESIDUAL_DIGEST = "29d5d7a768850795bd4c3616a2b9752de7f4a990a19036f85ef1584ed9e3c432"


def test_residual_bits_pinned():
    """Seeded waves on and off shell, at both step sizes, each also tachyon-transformed and
    checked against the transformed system: the digest of every report's two floats."""
    rng = np.random.default_rng(20)
    dashed_operator = transform_operator(ARC_TIME_UNITS)
    digest = hashlib.sha256()
    for _ in range(150):
        mass, mu, eA = rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        nu = eA + math.sqrt(mass * mass + mu * mu)
        points = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 9)), 4))
        a, e = PlaneWave(nu, mu, mass, eA).potential()
        m = mass_term(mass)
        for shift in (0.0, rng.uniform(-0.5, 0.5)):
            wave = plane_wave_solution(nu + shift, mu, mass, eA)
            for h in (1e-5, 0.05):
                for rep in (residual(wave, a, e, m, points, h=h),
                            residual(transform_wave(wave), tachyon_quaternion(a), e,
                                     tachyon_quaternion(m), points, h=h,
                                     operator=dashed_operator)):
                    digest.update(struct.pack("<2d", rep.fd, rep.analytic))
    assert digest.hexdigest() == RESIDUAL_DIGEST


GENERAL_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "residual-general.txt"


def _general_residual_lines():
    """One line ``label fd analytic`` per report, both floats as ``float.hex``, for waves off
    the (x0, x1) plane that RESIDUAL_DIGEST's cases keep to: every k_mu nonzero, a potential
    whose lower block is not its own conjugate and a general mass, under the arc-time and
    the bare operator.  With K = i(sum_mu k_mu u_mu - e a), the wave (P_top, conj(K) P_top
    m^-1) solves the system for any P_top once N(K) = -N(m), N the norm form, so the mass
    is scaled to that; the off-shell wave is the same with k_0 moved."""
    rng = np.random.default_rng(24)
    lines = []
    for n in range(25):
        k = rng.uniform(-2.0, 2.0, size=4)
        a, m0, top = (tuple(complex(*c) for c in rng.uniform(-1.0, 1.0, size=(4, 2)))
                      for _ in range(3))
        e = rng.uniform(-1.0, 1.0)
        points = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 9)), 4))
        shift = rng.uniform(0.1, 0.5)
        for name, units in (("arc", ARC_UNITS), ("bare", BARE_UNITS)):
            k_sum = sub(functools.reduce(add, (scale(c, u) for c, u in zip(k, units))),
                        scale(e, a))
            m = scale(cmath.sqrt(mul(k_sum, conj(k_sum))[0] / mul(m0, conj(m0))[0]), m0)
            inverse_m = scale(1.0 / mul(m, conj(m))[0], conj(m))
            bottom = mul(mul(scale(1j, conj(k_sum)), top), inverse_m)
            operator = unit_reflector(np.array(units))
            for shell, k0 in (("on", k[0]), ("off", k[0] + shift)):
                wave = WaveFunction((top, bottom), (k0, *k[1:]))
                for h in (1e-5, 0.05):
                    rep = residual(wave, np.array(a), e, np.array(m), points, h=h,
                                   operator=operator)
                    lines.append(f"{n:02d}-{name}-{shell}-h{h:g} {rep.fd.hex()} "
                                 f"{rep.analytic.hex()}")
    return lines


def test_general_residual_golden():
    """residual's bits on general waves, line by line against the committed golden file."""
    assert _general_residual_lines() == GENERAL_GOLDEN.read_text().splitlines()


def test_general_residual_golden_cases_are_on_and_off_shell():
    for line in GENERAL_GOLDEN.read_text().splitlines():
        label, _, analytic_error = line.split()
        analytic_error = float.fromhex(analytic_error)
        if "-on-" in label:
            assert analytic_error <= 1e-13, line
        else:
            assert analytic_error >= 1e-2, line


class TestDeBroglie:
    def test_rest(self):
        assert de_broglie(1.5, 0.0) == (1.5, 0.0)

    def test_three_four_five(self):
        eta, mu = de_broglie(1.0, 0.6)
        assert eta == pytest.approx(1.25)
        assert mu == pytest.approx(0.75)

    def test_fine_structure_speed(self):
        alpha = 1.0 / 137.0
        eta, mu = de_broglie(1.0, alpha)
        assert eta == pytest.approx(1.0 / math.sqrt(1.0 - alpha * alpha), rel=1e-15)
        assert mu / eta == pytest.approx(alpha, rel=1e-15)

    def test_mass_shell(self):
        for v in (0.1, 0.5, 0.99):
            eta, mu = de_broglie(2.0, v)
            assert eta * eta - mu * mu == pytest.approx(4.0, rel=1e-12)

    def test_rejects_superluminal(self):
        with pytest.raises(SuperluminalSpeed):
            de_broglie(1.0, 1.0)

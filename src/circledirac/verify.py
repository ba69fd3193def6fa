"""Seeded, deterministic verification suites behind the command line.

Each suite re-checks one module's algebraic identities against
independent oracles and returns a :class:`VerificationReport`.  Given
the same seed the report is bit-identical across runs: all randomness
flows through a numpy generator seeded with (seed, suite index), and no
timestamps or locale-dependent formatting enter the output.

Most cases report a maximum error that must stay below a tolerance.
Detection cases (where a fault must produce a LARGE residual, or an
ordering must be strict) report the ratio required/actual instead, with
tolerance 1, so that "max_error <= tolerance" uniformly means pass.

Each case draws its inputs in one generator call, runs the library code
it checks once over the whole batch (through the ``(..., 4)`` array forms
of :mod:`circledirac.biquaternion` and friends, the ``(N, 4)`` batch form
of :func:`~circledirac.circle_spaces.chart_map`, and the broadcasting
array forms of the spectrum solvers and of
:func:`~circledirac.qed.solve_rho`) and hands its per-sample error array
to :func:`_case`, the one verdict rule: it takes the maximum, so a NaN
sample fails the case.  Detection cases hand their actuals to
:func:`_detect`, which turns them into ratios for :func:`_case`.  Each
suite yields its cases, and :func:`run_suite` names the report after the
suite's key in ``_SUITES``.  The spectrum suite solves its 3 x 8 x 9
level grid with one call per route and checks the mpmath oracle with one
call over an 8 x 9 grid.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import circle_spaces as cs
from . import qed
from . import spectrum as sp
from .biquaternion import (Biquaternion, I1, I2, I3, ONE, array_conj, array_embed,
                           array_mul, array_norm_form, array_to_matrix)
from .planewave import PlaneWave, bound_solution, free_solution, mass_term, plane_wave_solution, residual
from .reflector import reflector_mul_array, sandwich
from .tachyon import component_map, tachyon_double, tachyon_fourvector, tachyon_quaternion

__all__ = [
    "CaseResult",
    "VerificationReport",
    "SUITE_NAMES",
    "run_suite",
    "reports_to_json",
    "reports_to_csv",
    "sommerfeld_expansion",
]

_TINY = 1e-300


@dataclass(frozen=True)
class CaseResult:
    id: str
    max_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[CaseResult, ...]

    @property
    def overall(self) -> bool:
        return all(case.passed for case in self.cases)


def _case(case_id: str, errors, tol: float) -> CaseResult:
    """The verdict: the worst of ``errors`` (an array or a number) against ``tol``.

    A NaN sample makes the maximum NaN, which fails the case.
    """
    error = float(np.max(errors))
    return CaseResult(case_id, error, float(tol), error <= tol)


def _detect(case_id: str, actual, required: float) -> CaseResult:
    """Pass when every ``actual`` is at least ``required`` > 0 (ratio semantics).

    Each sample's ratio is required/actual, or inf where actual is not
    positive (NaN included).  Division by a positive number is monotone, so
    the worst ratio has the bits of ``required / np.min(actual)``.
    """
    actual = np.asarray(actual, dtype=float)
    with np.errstate(divide="ignore"):
        return _case(case_id, np.where(actual > 0.0, required / actual, math.inf), 1.0)


def _complex_pairs(draws: np.ndarray) -> np.ndarray:
    """Coefficients ``(..., 4)`` from draws ``(..., 2, 4)``: real parts, then imaginary.

    A ``(n, 2, 4)`` draw holds the same values, in the same order, as n
    pairs of ``(4,)`` draws for the real and the imaginary parts.
    """
    return draws[..., 0, :] + 1j * draws[..., 1, :]


def _row_rel(diff: np.ndarray, ref: np.ndarray, axis=-1) -> np.ndarray:
    """Each row's max|diff| / max(max|ref|, tiny), rows reduced over ``axis``."""
    scale = np.maximum(np.max(np.abs(ref), axis=axis), _TINY)
    return np.max(np.abs(diff), axis=axis) / scale


# -- algebra -----------------------------------------------------------------

def suite_algebra(rng: np.random.Generator) -> Iterator[CaseResult]:
    x = _complex_pairs(rng.standard_normal((1000, 3, 2, 4)))
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    left = array_mul(array_mul(a, b), c)
    right = array_mul(a, array_mul(b, c))
    yield _case("mul-associative", _row_rel(left - right, left), 1e-14)

    units = np.array([I1, I2, I3])
    products = array_mul(units[:, None], units[None, :])       # [r, s] = i_r i_s
    diag = np.arange(3)
    squares = products[diag, diag] + np.asarray(ONE)
    anti = (products + products.swapaxes(0, 1))[~np.eye(3, dtype=bool)]
    yield _case("unit-anticommutation", np.abs(np.concatenate((squares, anti))), 0.0)

    x = rng.uniform(-3.0, 3.0, size=(1000, 4))
    n = array_norm_form(array_embed(x))
    x0, x1, x2, x3 = x.T
    expected = -x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    yield _case("minkowski-embed", np.abs(n - expected) / np.maximum(np.abs(expected), 1.0), 1e-14)

    x = _complex_pairs(rng.integers(-9, 10, size=(200, 2, 2, 4)))
    a, b = x[:, 0], x[:, 1]
    err = np.abs(array_conj(array_mul(a, b)) - array_mul(array_conj(b), array_conj(a)))
    yield _case("conj-antihomomorphism", err, 0.0)

    x = _complex_pairs(rng.standard_normal((500, 2, 2, 4)))
    a, b = x[:, 0], x[:, 1]
    lhs = array_to_matrix(array_mul(a, b))
    rhs = array_to_matrix(a) @ array_to_matrix(b)
    yield _case("matrix-representation", _row_rel(lhs - rhs, lhs, axis=(-2, -1)), 1e-13)


# -- charts ------------------------------------------------------------------

def _rand_off_cone_points(rng: np.random.Generator, count: int) -> np.ndarray:
    pts = np.empty((count, 4))
    pts[:, 3] = rng.uniform(0.3, 3.0, size=count)                 # x3 wedge
    pts[:, 0] = pts[:, 3] * rng.uniform(-0.9, 0.9, size=count)    # |x0| < x3
    pts[:, 1] = rng.uniform(-2.0, 2.0, size=count)
    pts[:, 2] = rng.uniform(-2.0, 2.0, size=count)
    return pts


def suite_charts(rng: np.random.Generator) -> Iterator[CaseResult]:
    chart_l = cs.SpaceChart(cs.ChartKind.L)
    targets = {
        "T": cs.SpaceChart(cs.ChartKind.T, R0=0.7),
        "M": cs.SpaceChart(cs.ChartKind.M, R1=1.3),
        "S": cs.SpaceChart(cs.ChartKind.S, R0=0.7, R1=1.3),
    }
    points = _rand_off_cone_points(rng, 1000)
    for name, chart in targets.items():
        there = cs.chart_map(points, chart_l, chart)
        back = cs.chart_map(there, chart, chart_l)
        # the opposite round trip, starting from the circular chart
        again = cs.chart_map(back, chart_l, chart)
        yield _case(f"roundtrip-L-{name}", np.abs(np.stack((back - points, again - there))), 1e-12)

    angles = rng.uniform((-2.5, -math.pi), (2.5, math.pi), size=(100, 2))
    units = cs.rotated_basis_array(angles[:, 0], angles[:, 1])           # (100, 4, 2, 4)
    products = reflector_mul_array(units[:, :, None], units[:, None, :])  # [:, i, j] = u_i u_j
    diag = np.arange(4)
    squares = products[:, diag, diag] - np.array((ONE, ONE))
    i, j = np.triu_indices(4, 1)
    anti = products[:, i, j] + products[:, j, i]
    yield _case("rotated-basis-relations", np.abs(np.concatenate((squares, anti), axis=1)), 1e-13)

    thetas = rng.uniform(-2.5, 2.5, size=100)
    det = np.linalg.det(cs.temporal_derivative_matrix(thetas))
    yield _case("derivative-matrix-unimodular", np.abs(det - 1.0), 1e-13)

    r, s, big_r = rng.uniform((0.1, -5.0, 0.1), (4.0, 5.0, 4.0), size=(1000, 3)).T
    r = r * rng.choice([-1.0, 1.0], size=1000)
    s_back = cs.arc_map_inverse(r, cs.arc_map(r, s, big_r), big_r)
    yield _case("arc-map-inverse", np.abs(s_back - s) / np.maximum(np.abs(s), 1.0), 1e-14)

    e = 0.5
    big_r1 = 1.7
    r1 = rng.uniform(0.05, 5.0, size=(200, 1))
    a = array_embed(np.hstack((e / r1, np.zeros((200, 3)))))
    scaled = cs.scale_potential(a, r1, big_r1)
    expected = array_embed((e / big_r1, 0.0, 0.0, 0.0))
    err = np.abs(scaled - expected) / np.max(np.abs(expected))
    yield _case("inverse-distance-flattens", err, 1e-14)


# -- dirac -------------------------------------------------------------------

def suite_dirac(rng: np.random.Generator) -> Iterator[CaseResult]:
    points = rng.uniform(-2.0, 2.0, size=(10, 4))
    zero_pot = Biquaternion()
    m1 = mass_term(1.0)

    free = free_solution(1.0)
    rep = residual(free, zero_pot, 1.0, m1, points, h=1e-5)
    yield _case("free-analytic", rep.analytic, 1e-12)
    yield _case("free-fd", rep.fd, 1e-8)

    pw = PlaneWave(nu=1.25, mu=0.75, mass=1.0, eA=0.0)
    wave = bound_solution(pw)
    rep = residual(wave, *pw.potential(), m1, points, h=1e-5)
    yield _case("bound-analytic", rep.analytic, 1e-12)
    yield _case("bound-fd", rep.fd, 1e-8)

    mu = 0.6
    eA = -0.3
    pw2 = PlaneWave(nu=eA + math.sqrt(1.0 + mu * mu), mu=mu, mass=1.0, eA=eA)
    wave2 = bound_solution(pw2)
    rep2 = residual(wave2, *pw2.potential(), m1, points, h=1e-5)
    yield _case("bound-potential-analytic", rep2.analytic, 1e-12)
    yield _case("bound-potential-fd", rep2.fd, 1e-8)

    r_coarse = residual(wave, *pw.potential(), m1, points, h=0.05).fd
    r_fine = residual(wave, *pw.potential(), m1, points, h=0.025).fd
    order = math.log2(r_coarse / r_fine)
    yield _case("fd-convergence-order", abs(order - 2.0), 0.1)

    off = plane_wave_solution(pw.nu + 0.1, pw.mu, pw.mass, pw.eA)
    rep_off = residual(off, *pw.potential(), m1, points, h=1e-5)
    yield _detect("offshell-detected", rep_off.analytic, 1e-4)


# -- tachyon -----------------------------------------------------------------

def suite_tachyon(rng: np.random.Generator) -> Iterator[CaseResult]:
    x = _complex_pairs(rng.standard_normal((1000, 2, 4)))
    yield _case("rotor-vs-component-map", np.abs(tachyon_quaternion(x) - component_map(x)), 1e-14)

    x = _complex_pairs(rng.standard_normal((200, 2, 4)))
    err = np.abs(tachyon_double(x) - component_map(component_map(x)))
    yield _case("double-application-exact", err, 0.0)

    s0, s1, eta, mu = rng.uniform(-3.0, 3.0, size=(1000, 4)).T
    zero = np.zeros_like(s0)
    s0d, s1d = tachyon_fourvector(np.stack((s0, s1, zero, zero), axis=-1)).T[:2]
    etad, mud = tachyon_fourvector(np.stack((eta, mu, zero, zero), axis=-1)).T[:2]
    err = np.abs((etad * s0d + mud * s1d) - (eta * s0 + mu * s1))
    yield _case("dot-product-invariance", err, 1e-13)

    draws = rng.standard_normal((1000, 3, 4))
    r = draws[:, 0] / np.linalg.norm(draws[:, 0], axis=-1, keepdims=True)
    x = _complex_pairs(draws[:, 1:])
    n_before = array_norm_form(x)
    n_after = array_norm_form(sandwich(r, x))
    err = np.abs(n_after - n_before) / np.maximum(np.abs(n_before), 1.0)
    yield _case("general-rotor-norm-preserved", err, 1e-13)


# -- spectrum ----------------------------------------------------------------

def sommerfeld_expansion(alpha: float, n_theta: int, n_r: int) -> float:
    """Fourth-order expansion of the level in alpha (independent oracle).

    n_theta and n_r may be integer arrays that broadcast together.
    """
    n = n_theta + n_r
    a2, n2 = alpha * alpha, n * n
    return 1.0 - a2 / (2.0 * n * n) - (a2 * a2 / (2.0 * (n2 * n2))) * (n / n_theta - 0.75)


def suite_spectrum(rng: np.random.Generator) -> Iterator[CaseResult]:
    alpha = 1.0 / 137.0
    # every level (alpha, n_theta, n_r) of the 3 x 8 x 9 grid, solved once by each route
    alphas = np.array((alpha, 0.3, 0.6))[:, None, None]
    n_theta, n_r = np.arange(1, 9)[:, None], np.arange(0, 9)
    state = sp.coupled_solve(alphas, n_theta, n_r)
    closed = sp.energy_closed_form(alphas, n_theta, n_r)
    yield _case("two-route-agreement", np.abs(state.nu_m - closed), 1e-12)

    ref = sp.sommerfeld_reference(alpha, n_theta, n_r)
    yield _case("reference-agreement", np.abs(closed[0] - ref), 1e-12)

    b = sp.bohr_solve(np.array([(alpha, 0.3, 0.9 * n) for n in range(1, 9)]), n_theta)
    web = np.stack(np.broadcast_arrays(1.0 * b.R0_l, b.nu_b * b.R0_b,
                                       b.eta_b * b.R0_b + b.mu_b * b.R1_hat))
    yield _case("quantization-web", np.abs(web - n_theta) / n_theta, 1e-13)

    err = np.abs(state.nu_m[:2, :, 0] - state.bohr.nu_b[:2, :, 0])
    yield _case("no-vibration-reduction", err, 1e-13)

    steps = np.concatenate((np.diff(closed, axis=2).ravel(), np.diff(closed, axis=1).ravel()))
    yield _detect("energy-monotonicity", steps, 1e-15)

    err = np.abs(closed[0, :5, :6] - sommerfeld_expansion(alpha, n_theta[:5], n_r[:6]))
    yield _case("fourth-order-expansion", err, 1e-12)

    m_h2 = state.m_h * state.m_h
    err = (np.abs(state.mu_h / state.eta_h - state.bohr.v_b),
           np.abs(m_h2 - (state.eta_h * state.eta_h - state.mu_h * state.mu_h)) / m_h2,
           np.abs(state.eta_h * state.nu_h - m_h2) / m_h2)
    yield _case("heavy-electron-closure", err, 1e-13)

    expected = 1.0 / state.mu_m
    err = np.abs(state.vprime_m - expected) / np.abs(expected)
    yield _case("dashed-energy-consistency", err, 1e-12)


# -- qed ---------------------------------------------------------------------

def suite_qed(rng: np.random.Generator) -> Iterator[CaseResult]:
    alpha = 1.0 / 137.0
    # d' at n_theta = 1..10 (rows) and n_r = 0..10 (columns), shared by every case
    d_prime = qed.coefficient_d_prime(alpha, np.arange(1, 11)[:, None], np.arange(0, 11))

    a, mass, e = rng.uniform((-3.0, 0.0, 0.2), (3.0, 2.0, 2.0), size=(1000, 3)).T
    n_theta, n_r = rng.integers((1, 0), (6, 6), size=(1000, 2)).T
    d = d_prime[n_theta - 1, n_r]
    sol = qed.solve_rho(a, mass, e, d)
    rho = np.stack((sol.rho_plus, sol.rho_minus), axis=1)
    res = np.stack((sol.residual_plus, sol.residual_minus), axis=1)
    a, mass, e, d = a[:, None], mass[:, None], e[:, None], d[:, None]
    a2 = a * a
    scale = np.maximum(np.maximum(rho * rho / (d * e * e), np.abs(a2 * a * rho)),
                       np.maximum(mass * mass * d * (a2 * a2), _TINY))
    yield _case("root-residuals", np.abs(res) / scale, 1e-12)

    yield _detect("d-prime-positive", d_prime, 1e-6)

    d_plain = qed.coefficient_d(np.arange(1, 11))
    yield _case("d-prime-reduces-to-d", np.abs(d_prime[:, 0] - d_plain), 0.0)

    n_theta, n_r = rng.integers((1, 0), (11, 11), size=(500, 2)).T
    a = rng.uniform(0.0, 0.99, size=500) * n_theta
    root = qed.replacement_map(a, n_theta)
    bracket = n_theta * n_theta + n_r * n_r + 2.0 * n_r * root
    shifted = (root + n_r) * (root + n_r) + a * a
    yield _case("bracket-identity", np.abs(shifted - bracket) / bracket, 1e-14)

    a, mass, e = rng.uniform((-3.0, 0.0, 0.2), (3.0, 2.0, 2.0), size=(200, 3)).T
    sol = qed.solve_rho(a, mass, e, d_prime[0, 1])
    yield _case("branch-ordering", np.maximum(0.0, sol.rho_minus - sol.rho_plus), 0.0)


# -- registry ----------------------------------------------------------------

_SUITES = {
    "algebra": (1, suite_algebra),
    "charts": (2, suite_charts),
    "dirac": (3, suite_dirac),
    "tachyon": (4, suite_tachyon),
    "spectrum": (5, suite_spectrum),
    "qed": (6, suite_qed),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> VerificationReport:
    """Run one suite to the end; the report holds its cases in the order yielded."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    index, suite = _SUITES[name]
    return VerificationReport(name, tuple(suite(np.random.default_rng([seed, index]))))


def _case_record(case: CaseResult) -> dict:
    """JSON record of a case; a non-finite ``max_error`` (a failed case) is ``null``."""
    return {"id": case.id, "max_error": case.max_error if math.isfinite(case.max_error) else None,
            "tolerance": case.tolerance, "passed": case.passed}


def reports_to_json(reports: list[VerificationReport]) -> str:
    """Strict JSON (RFC 8259): never ``NaN`` or ``Infinity``."""
    payload = {
        "reports": [
            {
                "suite": r.suite,
                "overall": r.overall,
                "cases": [_case_record(c) for c in r.cases],
            }
            for r in reports
        ],
        "overall": all(r.overall for r in reports),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def reports_to_csv(reports: list[VerificationReport]) -> str:
    rows = ["suite,case,max_error,tolerance,pass"]
    for r in reports:
        for c in r.cases:
            rows.append(f"{r.suite},{c.id},{c.max_error!r},{c.tolerance!r},{str(c.passed).lower()}")
    return "\n".join(rows) + "\n"

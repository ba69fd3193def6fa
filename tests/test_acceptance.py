"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import circledirac as cd
from circledirac import qed
from circledirac.reflector import reflector_mul_array
from circledirac.spectrum import QuantumNumbers
ALPHA = 1.0 / 137.0
CODATA_ALPHA = 7.2973525693e-3
ELECTRON_MASS_EV = 510998.9461


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rand_bq(rng):
    return cd.Biquaternion(*(complex(a, b) for a, b in
                             zip(rng.standard_normal(4), rng.standard_normal(4))))


def test_01_fine_structure_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for n_theta in range(1, 6):
        for n_r in range(0, 6):
            route_a = cd.coupled_solve(ALPHA, QuantumNumbers(n_theta, n_r), mass=1.0).nu_m
            route_b = cd.energy_closed_form(ALPHA, n_theta, n_r, mass=1.0)
            reference = cd.sommerfeld_reference(ALPHA, n_theta, n_r, mass=1.0)
            worst = max(worst, abs(route_a - route_b), abs(route_a - reference))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "fine-structure-spectrum", ok,
           f"max rel err {worst:.3e} <= 1e-12, runtime {elapsed * 1e3:.0f} ms < 1 s")


def test_02_ground_state_binding():
    lines = cd.spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 1, 0)
    oracle = ELECTRON_MASS_EV * (math.sqrt(1.0 - CODATA_ALPHA ** 2) - 1.0)
    diff = abs(lines[0].binding_ev - oracle)
    ok = diff <= 1e-6
    report(2, "ground-state-binding", ok,
           f"binding {lines[0].binding_ev:.6f} eV vs oracle {oracle:.6f} eV, |diff| {diff:.2e} <= 1e-6")


def test_03_fine_structure_splitting():
    delta = cd.energy_closed_form(ALPHA, 2, 0) - cd.energy_closed_form(ALPHA, 1, 1)
    oracle = ALPHA ** 4 / 32.0
    rel = abs(delta - oracle) / oracle
    ok = rel <= 0.01
    report(3, "fine-structure-splitting", ok,
           f"E(2,0)-E(1,1) = {delta:.6e} vs alpha^4/32 = {oracle:.6e}, rel err {rel:.2e} <= 1e-2")


def test_04_no_vibration_reduction():
    worst = 0.0
    for n_theta in range(1, 9):
        c = cd.coupled_solve(ALPHA, QuantumNumbers(n_theta, 0), mass=1.0)
        worst = max(worst, abs(c.nu_m - c.bohr.nu_b))
    ok = worst <= 1e-13
    report(4, "no-vibration-reduction", ok, f"max |coupled - orbital| {worst:.3e} <= 1e-13")


def test_05_tachyon_rotor_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    exact = True
    for _ in range(1000):
        x = rand_bq(rng)
        worst = max(worst, cd.tachyon_quaternion(x).max_abs_diff(cd.component_map(x)))
        expected = cd.Biquaternion(-x.c0, -x.c1, x.c2, x.c3)
        exact = exact and (cd.tachyon_double(x) == expected)
    ok = worst <= 1e-14 and exact
    report(5, "tachyon-rotor-identity", ok,
           f"sandwich vs map max err {worst:.3e} <= 1e-14, double application exact: {exact}")


def test_06_dirac_residuals():
    rng = np.random.default_rng(43)
    points = [rng.uniform(-2.0, 2.0, size=4) for _ in range(10)]
    m = cd.mass_term(1.0)

    free_rep = cd.residual(cd.free_solution(1.0), cd.Biquaternion(), 1.0, m, points, h=1e-5)
    pw = cd.PlaneWave(nu=1.25, mu=0.75, mass=1.0)
    a_pot, e = pw.potential()
    wave = cd.bound_solution(pw)
    bound_rep = cd.residual(wave, a_pot, e, m, points, h=1e-5)

    coarse = cd.residual(wave, a_pot, e, m, points, h=0.05).fd
    fine = cd.residual(wave, a_pot, e, m, points, h=0.025).fd
    order = math.log2(coarse / fine)

    analytic = max(free_rep.analytic, bound_rep.analytic)
    fd = max(free_rep.fd, bound_rep.fd)
    ok = analytic <= 1e-12 and fd <= 1e-8 and abs(order - 2.0) <= 0.1
    report(6, "dirac-residuals", ok,
           f"analytic {analytic:.2e} <= 1e-12, fd(h=1e-5) {fd:.2e} <= 1e-8, "
           f"order {order:.3f} in 2.0 +- 0.1")


def test_07_quantization_web():
    worst = 0.0
    for n_theta in range(1, 9):
        for alpha in (ALPHA, 0.3, 0.9 * n_theta):
            b = cd.bohr_solve(alpha, n_theta, mass=1.0)
            worst = max(worst,
                        abs(1.0 * b.R0_l - n_theta) / n_theta,
                        abs(b.nu_b * b.R0_b - n_theta) / n_theta,
                        abs(b.eta_b * b.R0_b + b.mu_b * b.R1_hat - n_theta) / n_theta)
    ok = worst <= 1e-13
    report(7, "quantization-web", ok, f"max rel defect {worst:.3e} <= 1e-13")


def test_08_charge_density_roots():
    rng = np.random.default_rng(44)
    worst_res = 0.0
    for _ in range(1000):
        a = rng.uniform(-3.0, 3.0)
        mass = rng.uniform(0.0, 2.0)
        e = rng.uniform(0.2, 2.0)
        qn = QuantumNumbers(int(rng.integers(1, 6)), int(rng.integers(0, 6)))
        d_prime = qed.coefficient_d_prime(qn, ALPHA)
        sol = qed.solve_rho(a, mass, e, d_prime)
        for rho, res in ((sol.rho_plus, sol.residual_plus),
                         (sol.rho_minus, sol.residual_minus)):
            scale = max(rho * rho / (d_prime * e * e), abs(a ** 3 * rho),
                        mass * mass * d_prime * a ** 4, 1e-300)
            worst_res = max(worst_res, abs(res) / scale)

    positive = all(qed.coefficient_d_prime(QuantumNumbers(nt, nr), ALPHA) > 0
                   for nt in range(1, 11) for nr in range(0, 11))
    exact_reduction = all(qed.coefficient_d_prime(QuantumNumbers(nt, 0), ALPHA)
                          == qed.coefficient_d(nt) for nt in range(1, 11))

    worst_bracket = 0.0
    for _ in range(200):
        nt = int(rng.integers(1, 11))
        nr = int(rng.integers(0, 11))
        alpha = rng.uniform(0.0, 0.99) * nt
        root = qed.replacement_map(nt, alpha)
        bracket = nt * nt + nr * nr + 2.0 * nr * root
        worst_bracket = max(worst_bracket, abs((root + nr) ** 2 + alpha * alpha - bracket) / bracket)

    ok = worst_res <= 1e-12 and positive and exact_reduction and worst_bracket <= 1e-14
    report(8, "charge-density-roots", ok,
           f"root residual {worst_res:.3e} <= 1e-12, d' > 0: {positive}, "
           f"d'(n_r=0) == d exact: {exact_reduction}, bracket identity {worst_bracket:.3e} <= 1e-14")


def test_09_chart_bijections():
    rng = np.random.default_rng(45)
    chart_l = cd.SpaceChart(cd.ChartKind.L)
    targets = {
        "T": cd.SpaceChart(cd.ChartKind.T, R0=0.7),
        "M": cd.SpaceChart(cd.ChartKind.M, R1=1.3),
        "S": cd.SpaceChart(cd.ChartKind.S, R0=0.7, R1=1.3),
    }
    worst_trip = 0.0
    for _ in range(1000):
        x3 = rng.uniform(0.3, 3.0)
        p = np.array([x3 * rng.uniform(-0.9, 0.9),
                      rng.uniform(-2, 2), rng.uniform(-2, 2), x3])
        for chart in targets.values():
            q = cd.chart_map(p, chart_l, chart)
            worst_trip = max(worst_trip, float(np.max(np.abs(cd.chart_map(q, chart, chart_l) - p))))

    angles = rng.uniform((-2.5, -math.pi), (2.5, math.pi), size=(100, 2))
    units = cd.rotated_basis_array(angles[:, 0], angles[:, 1])           # (100, 4, 2, 4)
    products = reflector_mul_array(units[:, :, None], units[:, None, :])  # [:, i, j] = u_i u_j
    identity = np.array((cd.ONE.coeffs, cd.ONE.coeffs))
    worst_basis = 0.0
    for i in range(4):
        worst_basis = max(worst_basis, float(np.abs(products[:, i, i] - identity).max()))
        for j in range(i + 1, 4):
            worst_basis = max(worst_basis, float(abs(products[:, i, j] + products[:, j, i]).max()))

    ok = worst_trip <= 1e-12 and worst_basis <= 1e-13
    report(9, "chart-bijections", ok,
           f"round trips {worst_trip:.3e} <= 1e-12, basis relations {worst_basis:.3e} <= 1e-13")


def test_10_cli_determinism_and_mutation():
    env = dict(os.environ)
    env.pop("CIRCLEDIRAC_FAULT", None)
    args = [sys.executable, "-m", "circledirac", "verify", "--suite", "all",
            "--seed", "42", "--format", "json"]
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    env_fault = dict(env, CIRCLEDIRAC_FAULT="tachyon-sign")
    faulted = subprocess.run(args, capture_output=True, env=env_fault)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout
          and faulted.returncode == 2)
    report(10, "cli-determinism-and-mutation", ok,
           f"exit {first.returncode}/{second.returncode}, byte-identical: "
           f"{first.stdout == second.stdout}, sign-flip fault exit {faulted.returncode} == 2")

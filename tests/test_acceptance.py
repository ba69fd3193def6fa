"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import circledirac as cd
from circledirac import verify

ALPHA = 1.0 / 137.0
CODATA_ALPHA = 7.2973525693e-3
ELECTRON_MASS_EV = 510998.9461


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def report_cases(num, name, suite, *case_ids):
    """Report a criterion from verify cases at seed 42, each with its max_error and tolerance."""
    cases = {case.id: case for case in verify.run_suite(suite, 42).cases}
    ok = all(cases[case_id].passed for case_id in case_ids)
    report(num, name, ok, ", ".join(f"{case_id} {cases[case_id].max_error:.3e} <= "
                                    f"{cases[case_id].tolerance:g}" for case_id in case_ids))


def test_01_fine_structure_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for n_theta in range(1, 6):
        for n_r in range(0, 6):
            route_a = cd.coupled_solve(ALPHA, n_theta, n_r).nu_m
            route_b = cd.energy_closed_form(ALPHA, n_theta, n_r)
            reference = cd.sommerfeld_reference(ALPHA, n_theta, n_r)
            worst = max(worst, abs(route_a - route_b), abs(route_a - reference))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "fine-structure-spectrum", ok,
           f"max rel err {worst:.3e} <= 1e-12, runtime {elapsed * 1e3:.0f} ms < 1 s")


def test_02_ground_state_binding():
    binding = cd.spectrum_table(CODATA_ALPHA, ELECTRON_MASS_EV, 1, 0).binding_ev[0]
    oracle = ELECTRON_MASS_EV * (math.sqrt(1.0 - CODATA_ALPHA ** 2) - 1.0)
    diff = abs(binding - oracle)
    ok = diff <= 1e-6
    report(2, "ground-state-binding", ok,
           f"binding {binding:.6f} eV vs oracle {oracle:.6f} eV, |diff| {diff:.2e} <= 1e-6")


def test_03_fine_structure_splitting():
    delta = cd.energy_closed_form(ALPHA, 2, 0) - cd.energy_closed_form(ALPHA, 1, 1)
    oracle = ALPHA ** 4 / 32.0
    rel = abs(delta - oracle) / oracle
    ok = rel <= 0.01
    report(3, "fine-structure-splitting", ok,
           f"E(2,0)-E(1,1) = {delta:.6e} vs alpha^4/32 = {oracle:.6e}, rel err {rel:.2e} <= 1e-2")


def test_04_no_vibration_reduction():
    report_cases(4, "no-vibration-reduction", "spectrum", "no-vibration-reduction")


def test_05_tachyon_rotor_identity():
    report_cases(5, "tachyon-rotor-identity", "tachyon",
                 "rotor-vs-component-map", "double-application-exact")


def test_06_dirac_residuals():
    report_cases(6, "dirac-residuals", "dirac", "free-analytic", "bound-analytic",
                 "free-fd", "bound-fd", "fd-convergence-order")


def test_07_quantization_web():
    report_cases(7, "quantization-web", "spectrum", "quantization-web")


def test_08_charge_density_roots():
    report_cases(8, "charge-density-roots", "qed", "root-residuals", "d-prime-positive",
                 "d-prime-reduces-to-d", "bracket-identity")


def test_09_chart_bijections():
    report_cases(9, "chart-bijections", "charts", "roundtrip-L-T", "roundtrip-L-M",
                 "roundtrip-L-S", "rotated-basis-relations")


def test_10_cli_determinism_and_mutation():
    env = dict(os.environ)
    env.pop("CIRCLEDIRAC_FAULT", None)
    args = [sys.executable, "-m", "circledirac", "verify", "--suite", "all",
            "--seed", "42", "--format", "json"]
    env_fault = dict(env, CIRCLEDIRAC_FAULT="tachyon-sign")
    # two at a time: start-up (mostly importing numpy) dominates each run
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second, faulted = pool.map(
            lambda run_env: subprocess.run(args, capture_output=True, env=run_env, timeout=120),
            (env, env, env_fault))
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout
          and faulted.returncode == 2)
    report(10, "cli-determinism-and-mutation", ok,
           f"exit {first.returncode}/{second.returncode}, byte-identical: "
           f"{first.stdout == second.stdout}, sign-flip fault exit {faulted.returncode} == 2")

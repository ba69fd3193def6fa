import functools
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from conftest import perfbench_literal

from circledirac import verify
from circledirac.cli import main
from circledirac.verify import VerificationReport, reports_to_csv, reports_to_json

KNOWN_CASES = perfbench_literal("workloads.py", "KNOWN_CASES")
CASES = [(suite, case) for suite, ids in KNOWN_CASES.items() for case in ids]
SEEDS = range(20)


@functools.cache
def _report(suite, seed):
    """One run of each (suite, seed), shared by every test that reads it.

    ``CIRCLEDIRAC_FAULT`` is read as set, so a run under a fault fails the
    cases that fault breaks, each under its own id.
    """
    return verify.run_suite(suite, seed)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("seed", SEEDS)
def test_every_seed_reports_the_known_cases_passing(seed):
    """Every seed reports the known suites and ids; each case passes under its own id below."""
    reports = [_report(suite, seed) for suite in verify.SUITE_NAMES]
    assert [r.suite for r in reports] == list(KNOWN_CASES)
    assert {r.suite: tuple(c.id for c in r.cases) for r in reports} == KNOWN_CASES
    assert sum(len(r.cases) for r in reports) == 37


@pytest.mark.parametrize("suite, case_id", CASES, ids=[f"{s}:{c}" for s, c in CASES])
def test_case_passes_on_every_seed(suite, case_id):
    for seed in SEEDS:
        case = next(c for c in _report(suite, seed).cases if c.id == case_id)
        assert case.passed and math.isfinite(case.max_error), (seed, case)


def test_tachyon_sign_fault_fails_both_coefficient_cases(monkeypatch):
    monkeypatch.setenv("CIRCLEDIRAC_FAULT", "tachyon-sign")
    cases = {c.id: c for c in verify.run_suite("tachyon", 42).cases}
    assert not cases["rotor-vs-component-map"].passed
    assert not cases["double-application-exact"].passed
    assert cases["dot-product-invariance"].passed


@pytest.mark.parametrize("seed", [True, False, -1, 1.5])
def test_run_suite_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
        verify.run_suite("algebra", seed)


def _non_finite_reports():
    return [VerificationReport("x", (
        verify._detect("inf-case", 0.0, 1.0),
        verify._detect("inf-sample", np.array([2.0, 3.0, 0.0, 5.0]), 1.0),
        verify._case("nan-case", math.nan, 1e-12),
        verify._case("nan-sample", np.array([1e-14, math.nan, 0.0]), 1e-12),
        verify._case("fine", np.array([0.25, 0.5]), 1.0)))]


def test_non_finite_errors_fail_and_print_null(monkeypatch):
    reports = _non_finite_reports()
    assert [c.passed for c in reports[0].cases] == [False, False, False, False, True]
    payload = json.loads(reports_to_json(reports), parse_constant=_reject_constant)
    assert [c["max_error"] for c in payload["reports"][0]["cases"]] == [None] * 4 + [0.5]
    assert payload["overall"] is False
    assert reports_to_csv(reports).splitlines()[1:] == ["x,inf-case,inf,1.0,false",
                                                       "x,inf-sample,inf,1.0,false",
                                                       "x,nan-case,nan,1e-12,false",
                                                       "x,nan-sample,nan,1e-12,false",
                                                       "x,fine,0.5,1.0,true"]

    monkeypatch.setattr(verify, "run_suite", lambda name, seed=0: _non_finite_reports()[0])
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--format", "json"])
    assert code == 2
    json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.parametrize("bad", [-0.0, -1e-300, math.nan])
def test_detect_fails_on_one_nonpositive_sample(bad):
    case = verify._detect("d", np.array([1.0, 2.0, bad, 4.0]), 1e-6)
    assert case.max_error == math.inf and not case.passed


def test_detect_ratio_is_required_over_the_smallest_actual_bit_for_bit():
    """The worst per-sample ratio is ``required / actual.min()``: the detection rows' bits."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        actual = np.exp(rng.uniform(-600.0, 600.0, size=rng.integers(1, 64)))
        required = float(np.exp(rng.uniform(-40.0, 40.0)))
        ratio = verify._detect("d", actual, required).max_error
        assert ratio.hex() == float(required / actual.min()).hex()

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BASELINE_KERNELS
from circledirac import spectrum as sp
from circledirac import circle_spaces as cs
from circledirac.cli import ROUND_TRIP_TOL, _build_parser, main
from circledirac.spectrum import MAX_LEVELS, _HALF_WIDTH


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class _Discard(io.TextIOBase):
    """A text stream that drops what is written and counts the writes."""

    def __init__(self):
        self.writes = 0

    def writable(self):
        return True

    def write(self, text):
        self.writes += 1
        return len(text)


class TestSpectrumCommand:
    def test_default_table(self):
        code, out, _ = run_cli("spectrum")
        rows = out.strip().split("\n")
        assert code == 0
        assert len(rows) == 1 + 12  # header + 3 x 4 levels
        assert rows[0].startswith("n_theta,")

    def test_ground_binding_column(self):
        code, out, _ = run_cli("spectrum", "--max-ntheta", "1", "--max-nr", "0")
        assert code == 0
        binding = float(out.strip().split("\n")[1].split(",")[5])
        assert binding == pytest.approx(-13.61, abs=0.01)

    def test_json_format(self):
        code, out, _ = run_cli("spectrum", "--format", "json", "--max-ntheta", "2", "--max-nr", "0")
        rows = json.loads(out)
        assert code == 0
        assert [r["n_theta"] for r in rows] == [1, 2]
        header = run_cli("spectrum", "--max-ntheta", "2", "--max-nr", "0")[1].split("\n")[0]
        assert all(",".join(row) == header for row in rows)

    def test_json_rows_equal_csv_rows(self):
        grid = ("--alpha", "0.37", "--max-ntheta", "7", "--max-nr", "13")
        code_csv, text, _ = run_cli("spectrum", *grid)
        code_json, out, _ = run_cli("spectrum", "--format", "json", *grid)
        header, *rows = text.strip().split("\n")
        parsed = [dict(zip(header.split(","), map(json.loads, row.split(",")))) for row in rows]
        assert code_csv == code_json == 0 and len(parsed) == 7 * 14
        assert json.loads(out) == parsed

    # sha256 of stdout: the table's bytes are the command's contract, so a
    # change to the row type or its formatting must leave them alone
    DIGESTS = {
        (): "46027fd7aeb39846f43b5e735e24b71470d14c4df16cd74ce48fa9eb0e4cf489",
        ("--format", "json"): "beca44d20d720223b6f5b2f4958dff4234435917749bd47b105dcac4915047a5",
        ("--alpha", "0.37", "--max-ntheta", "30", "--max-nr", "30"):
            "ac28c1ccb504485cd81cd46d7bc1fc346f7134b2582bb435937bddb2926daa0e",
        ("--alpha", "0.37", "--max-ntheta", "30", "--max-nr", "30", "--format", "json"):
            "4095822308bf5f79af70abeb5cbf3cd53814227b6641b5baf986c9e776748a6f",
        # near-critical coupling, where 1 - v_m^2 cancels in route A's energy
        ("--alpha", "0.999999999999", "--max-ntheta", "1", "--max-nr", "1"):
            "ec60cf07a4f44d27d6836300730b76fdb4d8a73aab7e4fb65a0fcd1193a36c3a",
        ("--alpha", "0.9999999999999974", "--max-ntheta", "1", "--max-nr", "1"):
            "668eb2b802fb663a73f0544eb5f2c572adb4f4e109129284a9bd890b5e984451",
        ("--alpha", "0.9999999999999999", "--max-ntheta", "1", "--max-nr", "1"):
            "8e80ebfb858963b595fcfb178e692cfe702345f5db35a9b009e2ead22dd19e2a",
    }

    @pytest.mark.parametrize("argv, digest", DIGESTS.items())
    def test_output_digest(self, argv, digest):
        code, out, _ = run_cli("spectrum", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.fixture(scope="class")
    def baseline_runs(self):
        """Each pinned command in a fresh interpreter under numpy's baseline kernels."""
        env = {**os.environ, **BASELINE_KERNELS}
        env.pop("CIRCLEDIRAC_FAULT", None)

        def run(argv):
            return subprocess.run([sys.executable, "-m", "circledirac", "spectrum", *argv],
                                  capture_output=True, env=env, timeout=120)

        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(self.DIGESTS, pool.map(run, self.DIGESTS)))

    @pytest.mark.parametrize("argv, digest", DIGESTS.items())
    def test_output_digest_under_baseline_kernels(self, argv, digest, baseline_runs):
        proc = baseline_runs[argv]
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_table_is_written_chunk_by_chunk(self):
        stream = _Discard()
        with redirect_stdout(stream):
            assert main(["spectrum", "--max-ntheta", "100", "--max-nr", "100"]) == 0
        assert stream.writes > 1

    # Writing a 300 x 300 table, computed beforehand, peaked at 1.8 MB (csv) and 2.5 MB
    # (json) of traced memory; whole-text writing peaked at 24.4 MB and 43.4 MB.  The 3.5 MB
    # bound leaves 1 MB of headroom, and any table-sized buffer breaks it: the text is
    # 10 MB (csv) or 18 MB (json), the five float columns stacked 3.6 MB and the three
    # integer columns copied 2.2 MB
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writing_holds_no_table_sized_buffer(self, fmt, monkeypatch):
        table = sp.spectrum_table(0.37, 510998.9461, 300, 300)
        monkeypatch.setattr(sp, "spectrum_table", lambda *args: table)
        argv = ["spectrum", "--max-ntheta", "300", "--max-nr", "300", "--format", fmt]
        with redirect_stdout(_Discard()):   # the formatter's tables, built once, are not traced
            main(argv)
        tracemalloc.start()
        try:
            with redirect_stdout(_Discard()):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3.5e6

    def test_rejects_alpha_out_of_range(self):
        code, _, err = run_cli("spectrum", "--alpha", "1.5")
        assert code == 1
        assert "alpha" in err

    def test_rejects_nonpositive_tolerance(self):
        code, _, _ = run_cli("spectrum", "--tol", "0")
        assert code == 1

    def test_boundary_alpha_is_valid(self):
        code, _, _ = run_cli("spectrum", "--alpha", "0.999", "--max-ntheta", "1", "--max-nr", "0")
        assert code == 0

    def test_unreachable_tolerance_exits_two(self):
        # rows still print, but the acceptance threshold cannot be met
        code, out, _ = run_cli("spectrum", "--tol", "1e-30")
        assert code == 2
        assert len(out.strip().split("\n")) == 13


class TestVerifyCommand:
    def test_single_suite(self):
        code, out, _ = run_cli("verify", "--suite", "algebra", "--seed", "42")
        assert code == 0
        assert out.startswith("suite,case,max_error,tolerance,pass")

    def test_all_suites_json(self):
        code, out, _ = run_cli("verify", "--suite", "all", "--seed", "42", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert [r["suite"] for r in payload["reports"]] == \
            ["algebra", "charts", "dirac", "tachyon", "spectrum", "qed"]
        for report in payload["reports"]:
            assert report["overall"] is True
            for case in report["cases"]:
                assert case["passed"] is True

    def test_deterministic_given_seed(self):
        runs = {run_cli("verify", "--suite", "all", "--seed", "7", "--format", "json")[1]
                for _ in range(2)}
        assert len(runs) == 1

    # sha256 of stdout: the reports of every case, with their tolerances, are
    # the command's contract, so a change to a suite must leave them alone
    @pytest.mark.parametrize("fmt, digest, seed", [
        pytest.param(fmt, digest, seed, id=f"{fmt}-{seed}") for fmt, digest, seed in [
            ("csv", "f55dc99e11f4848bb02aa1693e0018ff57d7e5d4e0875c3ad3a1d7f2ec27a6ee", 42),
            ("json", "6ea11fb6fb031c6a1f68abfe963160db87aed50a3c96dcb8d39d3cba52da8e23", 42),
            ("csv", "d84996e085b3afb52acaeec0b1766767b0ab3c81675ddc4c166d8ae8389605df", 0),
            ("json", "9e2ab1dff759807787b0121172961fabdca469e571fa23b0f8ee62bbbf5644c6", 0),
            ("csv", "7b78503ac340ee43e9e89e4c63473cad6e9986a83d0071fc3ed4b0f978719e2c", 7),
            ("json", "42acda37f5df06af2b042abb0c245630f07eff0468731276b69ad84b688e5f6f", 7),
        ]])
    def test_output_digest(self, fmt, digest, seed):
        code, out, _ = run_cli("verify", "--suite", "all", "--seed", str(seed), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seed_changes_report(self):
        a = run_cli("verify", "--suite", "algebra", "--seed", "1")[1]
        b = run_cli("verify", "--suite", "algebra", "--seed", "2")[1]
        assert a != b

    def test_unknown_suite_is_usage_error(self):
        code, _, _ = run_cli("verify", "--suite", "nonsense")
        assert code == 1


class TestMapCommand:
    def test_forward(self):
        code, out, _ = run_cli("map", "--space", "T", "--R0", "1",
                               "--point", '{"chart":"L","coords":[0,0,0,1]}')
        assert code == 0
        rec = json.loads(out)
        assert rec["chart"] == "T"
        assert rec["coords"] == [0.0, 0.0, 0.0, 1.0]

    def test_round_trip(self):
        code, out, _ = run_cli("map", "--space", "S", "--R0", "0.7", "--R1", "1.3",
                               "--round-trip",
                               "--point", '{"chart":"L","coords":[0.2,-0.4,0.8,1.5]}')
        assert code == 0
        rec = json.loads(out)
        assert rec["round_trip_error"] <= 1e-12
        assert rec["back"]["chart"] == "L"

    @pytest.mark.parametrize("point", ['{"chart":"M","R1":1,"coords":[0,7,2,1]}',
                                       '{"chart":"M","R1":1,"coords":[0,1e17,2,1]}',
                                       '{"chart":"S","R0":1,"R1":1,"coords":[0,-7,2,1]}'])
    def test_round_trip_error_wraps_the_spatial_circle(self, point):
        # s1 comes back as its principal angle times R1: off by whole periods, which the
        # error takes modulo 2*pi*R1, and relative to the coordinate
        code, out, _ = run_cli("map", "--space", "L", "--round-trip", "--point", point)
        assert code == 0
        rec = json.loads(out)
        assert rec["back"]["coords"][1] != json.loads(point)["coords"][1]
        assert rec["round_trip_error"] <= 1e-15

    @pytest.mark.parametrize("scale, code", [(0.5, 0), (2.0, 2)])
    def test_round_trip_error_above_the_tolerance_exits_two(self, monkeypatch, scale, code):
        # the map back onto L moves x3 = 1.5 by scale tolerances, relative
        chart_map = cs.chart_map

        def perturbed_back(coords, source, target):
            out = chart_map(coords, source, target)
            if target.kind == "L":
                out[3] *= 1.0 + scale * ROUND_TRIP_TOL
            return out

        monkeypatch.setattr(cs, "chart_map", perturbed_back)
        got, out, _ = run_cli("map", "--space", "T", "--R0", "0.7", "--round-trip",
                              "--point", '{"chart":"L","coords":[0.2,-0.4,0.8,1.5]}')
        rec = json.loads(out)
        assert got == code
        assert rec["round_trip_error"] == pytest.approx(scale * ROUND_TRIP_TOL, rel=0.01)

    @pytest.mark.parametrize("coords", ["[0,0,0,1e-200]", "[1e300,0,0,1.5e300]"])
    def test_wedge_point_whose_squares_leave_the_normal_range(self, coords):
        code, out, _ = run_cli("map", "--space", "T", "--R0", "1", "--round-trip",
                               "--point", '{"chart":"L","coords":' + coords + "}")
        assert code == 0
        rec = json.loads(out)
        assert all(map(math.isfinite, rec["forward"]["coords"] + rec["back"]["coords"]))
        assert rec["round_trip_error"] == 0.0

    def test_light_cone_exit(self):
        code, _, err = run_cli("map", "--space", "T", "--R0", "1",
                               "--point", '{"chart":"L","coords":[1,0,0,1]}')
        assert code == 1
        assert "LightConePoint" in err

    def test_missing_radius_is_usage_error(self):
        code, _, _ = run_cli("map", "--space", "T",
                             "--point", '{"chart":"L","coords":[0,0,0,1]}')
        assert code == 1

    def test_bad_json_is_usage_error(self):
        code, _, _ = run_cli("map", "--space", "T", "--R0", "1", "--point", "not json")
        assert code == 1


class TestQedRhoCommand:
    def test_schema(self):
        code, out, _ = run_cli("qed-rho", "--A", "1.5", "--mass", "1", "--charge", "0.5",
                               "--ntheta", "1", "--nr", "1")
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"A", "mass", "e", "d_prime", "rho_plus", "rho_minus",
                            "residual_plus", "residual_minus"}
        assert abs(rec["residual_plus"]) <= 1e-12
        assert abs(rec["residual_minus"]) <= 1e-12

    def test_branch_selector(self):
        code, out, _ = run_cli("qed-rho", "--A", "2.0", "--branch", "minus")
        rec = json.loads(out)
        assert code == 0
        assert rec["rho"] == rec["rho_minus"]

    def test_underflowing_roots_print_zero(self):
        code, out, _ = run_cli("qed-rho", "--A", "1e-200")
        rec = json.loads(out, parse_constant=_reject_constant)
        assert code == 0
        assert rec["A"] == 1e-200
        assert rec["rho_plus"] == rec["rho_minus"] == rec["residual_plus"] == 0.0

    # CODATA alpha, unit mass, n_theta = 1, n_r = 0: each root within 1 ulp of its
    # correctly rounded value, down to subnormal roots
    @pytest.mark.parametrize("A, rho_plus, rho_minus", [
        ("1e-80", 2.0393607451221655e-162, -2.0393607451221655e-162),
        ("-1e-120", 2.039360745122166e-242, -2.039360745122166e-242),
        ("1e-160", 2.03e-322, -2.03e-322),
    ], ids=["1e-80", "-1e-120", "1e-160"])
    def test_tiny_potential_roots(self, A, rho_plus, rho_minus):
        code, out, _ = run_cli("qed-rho", "--A", A)
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["rho_plus"] - rho_plus) <= math.ulp(rho_plus)
        assert abs(rec["rho_minus"] - rho_minus) <= math.ulp(rho_minus)

    def test_default_charge_is_sqrt_alpha(self):
        _, out, _ = run_cli("qed-rho", "--alpha", "0.04")
        assert json.loads(out)["e"] == pytest.approx(0.2)


# Runs CLI commands in one fresh interpreter and prints whether mpmath was imported
_MPMATH_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from circledirac import spectrum
from circledirac.cli import main
spectrum._HALF_WIDTH = float(sys.argv[2])
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(codes, "mpmath" in sys.modules)
"""


@pytest.mark.parametrize("commands, half_width, loaded", [
    ([["verify"], ["spectrum", "--max-ntheta", "101", "--max-nr", "100"], ["qed-rho"],
      ["spectrum", "--alpha", "1e-300"]], _HALF_WIDTH, False),
    # a certificate half-width of 1 certifies no level: every level goes to the libmp arbiter
    ([["spectrum", "--alpha", "0.37"]], 1.0, True),
], ids=["no-arbiter", "arbiter"])
def test_mpmath_loads_only_for_the_arbiter(commands, half_width, loaded):
    env = {**os.environ}
    env.pop("CIRCLEDIRAC_FAULT", None)
    proc = subprocess.run([sys.executable, "-c", _MPMATH_PROBE, json.dumps(commands),
                           repr(half_width)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == f"{[0] * len(commands)} {loaded}\n", proc.stderr


# argparse's own negative-number pattern has no exponent form, yet -1e5 is a value, not an option
@pytest.mark.parametrize("argv, code, message", [
    (("qed-rho", "--A", "-1e5"), 0, ""),
    (("qed-rho", "--charge", "-5e-1"), 0, ""),
    (("spectrum", "--alpha", "-1e-3"), 1, "alpha must lie in (0, 1)"),
    (("map", "--space", "T", "--point", '{"chart":"L","coords":[0,0,0,1]}', "--R0", "-1e0"),
     1, "NonpositiveRadiusParameter"),
], ids=["qed-rho-A", "qed-rho-charge", "spectrum-alpha", "map-R0"])
def test_negative_exponent_is_a_value(argv, code, message):
    result = run_cli(*argv)
    assert result == run_cli(*argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert result[0] == code and message in result[2]


# the run options, each with a valid value, and the ones each command reads
SHARED = {"--alpha": "0.5", "--mass-ev": "1", "--tol": "1e-3", "--seed": "5", "--format": "csv"}
READS = {"spectrum": ("--alpha", "--mass-ev", "--tol", "--format"),
         "verify": ("--seed", "--format"), "map": (), "qed-rho": ("--alpha",)}
BASE = {"spectrum": ("--max-ntheta", "1", "--max-nr", "0"), "verify": ("--suite", "algebra"),
        "map": ("--space", "T", "--R0", "1", "--point", '{"chart":"L","coords":[0,0,0,1]}'),
        "qed-rho": ()}


class TestCommandOptions:
    """Each command takes only the options it reads."""

    @pytest.mark.parametrize("command,option",
                             [(c, o) for c in READS for o in SHARED if o not in READS[c]])
    def test_option_the_command_does_not_read_exits_one(self, command, option):
        assert run_cli(command, *BASE[command])[0] == 0
        code, out, err = run_cli(command, *BASE[command], option, SHARED[option])
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {option}" in err

    def test_readme_synopsis_names_each_option(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        synopsis = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
                    for line in block.splitlines() if line.startswith("circledirac ")}
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert synopsis == options


class TestParserReuse:
    """main builds its parser once per process; no call's options reach the next."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_in_a_row_keep_nothing(self):
        from circledirac import lines_to_csv, lines_to_json, spectrum_table, verify
        from circledirac.cli import DEFAULT_ALPHA, DEFAULT_MASS_EV
        code, out, err = run_cli("spectrum", "--alpha", "0.37", "--bogus")
        assert (code, out) == (1, "") and "unrecognized arguments: --bogus" in err
        code, out, _ = run_cli("spectrum", "--alpha", "0.37", "--mass-ev", "2", "--max-ntheta",
                               "2", "--max-nr", "1", "--format", "json")
        assert (code, out) == (0, lines_to_json(spectrum_table(0.37, 2.0, 2, 1)) + "\n")
        # every option back at its default
        code, out, _ = run_cli("spectrum")
        default = spectrum_table(DEFAULT_ALPHA, DEFAULT_MASS_EV, 3, 3)
        assert (code, out) == (0, lines_to_csv(default))
        code, out, _ = run_cli("verify", "--suite", "algebra", "--seed", "3", "--format", "json")
        assert (code, out) == (0, verify.reports_to_json([verify.run_suite("algebra", 3)]))
        code, out, _ = run_cli("verify", "--suite", "spectrum")
        assert (code, out) == (0, verify.reports_to_csv([verify.run_suite("spectrum", 0)]))
        code, out, err = run_cli("verify", "--alpha", "0.5")
        assert (code, out) == (1, "") and "unrecognized arguments: --alpha" in err

BAD_INPUTS = [
    (("spectrum", "--mass-ev", "inf", "--format", "json"), "CircleDiracError: mass-ev"),
    (("qed-rho", "--A", "nan"), "CircleDiracError: A must be finite"),
    (("qed-rho", "--A", "1e200"), "FloatRange: "),
    (("map", "--space", "L", "--point", "[1]"), "JSON object"),
    (("map", "--space", "T", "--R0", "1",
      "--point", '{"chart":"T","R0":1,"coords":[1000,0,0,1]}'),
     "FloatRange: T chart (R0=1) point [1000.0, 0.0, 0.0, 1.0]"),
    (("qed-rho", "--A", "1e60"), "FloatRange: charge-density roots or residuals at A=1e+60"),
    (("qed-rho", "--A", "1e100"), "FloatRange: charge-density roots or residuals at A=1e+100"),
    (("spectrum", "--alpha", "5e-324", "--max-ntheta", "1"),
     "FloatRange: row (0, 0): bound orbit at alpha=5e-324 (n_theta=1) leaves the float range"),
    (("spectrum", "--alpha", "5e-324"),
     "FloatRange: row (0, 0): bound orbit at alpha=5e-324 (n_theta=1) leaves the float range"),
    (("spectrum", "--alpha", "1e-308", "--max-ntheta", "1"),
     "FloatRange: row (0, 1): coupled state at alpha=1e-308 (n_theta=1, n_r=1) leaves the "
     "float range"),
    (("spectrum", "--max-ntheta", "100000", "--max-nr", "100000"),
     f"CircleDiracError: max_n_theta=100000 and max_n_r=100000 give 10000100000 levels, "
     f"more than the cap MAX_LEVELS = {MAX_LEVELS}"),
    (("map", "--space", "T", "--R0", "1", "--round-trip",
      "--point", '{"chart":"L","R0":"x","coords":[0.1,0,0,1]}'), "R0 > 0, got 'x'"),
    (("verify", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("map", "--space", "T", "--R0", "1", "--point", '{"coords":[0,0,0,1]}'),
     "chart point record needs the key 'chart'"),
    (("map", "--space", "T", "--R0", "1", "--point", '{"chart":"L"}'),
     "chart point record needs the key 'coords'"),
    *((("map", "--space", "L", "--point", f'{{"chart":"L","coords":{coords}}}'),
       f"chart point coords must be numbers, got {json.loads(coords)!r}")
      for coords in ('["0.1","0.2","0.3","1"]', "[true,0,0,1]", "[null,0,0,1]", "[[1],0,0,1]")),
    (("map", "--space", "L", "--point", '{"chart":"L","coords":[0,1' + "0" * 400 + ',0,1]}'),
     "FloatRange: L chart point coordinate 1 is an integer beyond the double range"),
    (("qed-rho", "--mass", "-1"), "NonpositiveMass: mass must be non-negative, got -1.0"),
]


class TestSubprocessContract:
    """End-to-end exit codes through a real process boundary."""

    def _run(self, *args, env_extra=None):
        env = dict(os.environ)
        env.pop("CIRCLEDIRAC_FAULT", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run([sys.executable, "-m", "circledirac", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    @pytest.fixture(scope="class")
    def bad_input_runs(self):
        """Each BAD_INPUTS command, two at a time: start-up (mostly importing numpy) dominates."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(BAD_INPUTS, pool.map(lambda row: self._run(*row[0]), BAD_INPUTS)))

    def test_verify_exit_zero(self):
        proc = self._run("verify", "--suite", "tachyon", "--seed", "42")
        assert proc.returncode == 0

    def test_fault_injection_exit_two(self):
        proc = self._run("verify", "--suite", "tachyon", "--seed", "42",
                         env_extra={"CIRCLEDIRAC_FAULT": "tachyon-sign"})
        assert proc.returncode == 2
        assert "false" in proc.stdout

    def test_usage_error_exit_one(self):
        proc = self._run("verify", "--suite", "bogus")
        assert proc.returncode == 1

    # The qed suite at seeds where numpy's dispatched a ** 3 and a ** 4 once moved the
    # root-residuals scale, and qed-rho points, two with roots far below 1: with every
    # power a product, the output is the same under numpy's baseline kernels as under
    # its default dispatch
    @pytest.mark.parametrize("argv", [
        *(("verify", "--suite", "qed", "--seed", seed) for seed in ("16", "19", "38")),
        ("qed-rho", "--A", "-2.7", "--mass", "1.3", "--charge", "0.45",
         "--ntheta", "3", "--nr", "2"),
        ("qed-rho", "--A", "1e-80"),
        ("qed-rho", "--A", "-1e-120", "--mass", "1.3"),
    ], ids=" ".join)
    def test_qed_output_is_the_same_under_baseline_kernels(self, argv):
        with ThreadPoolExecutor(max_workers=2) as pool:
            default, baseline = pool.map(lambda extra: self._run(*argv, env_extra=extra),
                                         (None, BASELINE_KERNELS))
        assert default.returncode == baseline.returncode == 0, default.stderr + baseline.stderr
        assert default.stdout == baseline.stdout

    # The charts suite maps its points as (N, 4) batches, whose numpy arithmetic must
    # give the one-point bits under either dispatch level
    @pytest.mark.parametrize("seed", ["0", "7", "42"])
    def test_charts_output_is_the_same_under_baseline_kernels(self, seed):
        argv = ("verify", "--suite", "charts", "--seed", seed)
        with ThreadPoolExecutor(max_workers=2) as pool:
            default, baseline = pool.map(lambda extra: self._run(*argv, env_extra=extra),
                                         (None, BASELINE_KERNELS))
        assert default.returncode == baseline.returncode == 0, default.stderr + baseline.stderr
        assert default.stdout == baseline.stdout

    # sha256 of map stdout, forward and round trip, onto and from each of the four charts:
    # one-point chart_map pays per call, so its body is pinned end to end, under numpy's
    # default dispatch and its baseline kernels (the map itself uses math's functions only)
    MAP_DIGESTS = {
        ("--space", "T", "--R0", "0.7", "--point", '{"chart":"L","coords":[0.2,-0.4,0.8,1.5]}'):
            ("cfbc61883b47ab71987a0829ed8ccc7ad6af2f8a6b872ec8b247c79cf940b8c6",
             "9522b6b0e71cb34f4a597e67eeb0dfa216569d4cd2b8596b9752e9708c86244a"),
        ("--space", "M", "--R1", "1.3",
         "--point", '{"chart":"T","R0":0.7,"coords":[0.3,-0.4,0.8,1.5]}'):
            ("d4be3e0d330def9134f944596db45abcbbd5f64f57c041aef9e883c99f389e61",
             "c179582088e782dbb91b3c7242fad9d23d46d5140a6b23db1255f7f7248bc9bf"),
        ("--space", "S", "--R0", "0.7", "--R1", "1.3",
         "--point", '{"chart":"M","R1":1.3,"coords":[0.2,-0.9,0.8,1.5]}'):
            ("a0a7bc1e464181422b68eb25d35be75265b6887b89ed9ca9a8f00007893fa84e",
             "5300b6d3e6ddf17a761b0a37e4cf59f23db96680b7b59181048d59bb7405a9d6"),
        ("--space", "L", "--point", '{"chart":"S","R0":0.7,"R1":1.3,"coords":[-0.25,2.1,0.6,1.1]}'):
            ("19e5b6f2aa0e982b5f4dfdfa4fc502d2aa095a3b4a31c59df799569156e10e4b",
             "2ba3b60dd4706afe949839a024162dc44f658e37019d27ec63d419fb1c52a538"),
    }

    @pytest.mark.parametrize("argv, digests", MAP_DIGESTS.items(),
                             ids=[f"to {argv[1]}" for argv in MAP_DIGESTS])
    @pytest.mark.parametrize("round_trip", [False, True], ids=["forward", "round-trip"])
    def test_map_output_is_pinned_under_both_dispatch_levels(self, argv, digests, round_trip):
        argv = ("map", *argv, *(("--round-trip",) if round_trip else ()))
        with ThreadPoolExecutor(max_workers=2) as pool:
            default, baseline = pool.map(lambda extra: self._run(*argv, env_extra=extra),
                                         (None, BASELINE_KERNELS))
        assert default.returncode == baseline.returncode == 0, default.stderr + baseline.stderr
        assert default.stdout == baseline.stdout
        assert hashlib.sha256(default.stdout.encode()).hexdigest() == digests[round_trip]

    @pytest.mark.parametrize("args", BAD_INPUTS)
    def test_bad_input_exit_one_without_traceback(self, args, bad_input_runs):
        argv, message = args
        proc = bad_input_runs[args]
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("circledirac: error: ")
        assert message in proc.stderr

    @pytest.mark.parametrize("argv, read", [
        (("verify", "--suite", "all"), 0),
        (("spectrum", "--max-ntheta", "60", "--max-nr", "60", "--format", "json"), 0),
        (("spectrum", "--max-ntheta", "100", "--max-nr", "100", "--format", "json"), 200),
    ], ids=["verify", "spectrum", "spectrum-partway"])
    def test_closed_stdout_exit_one_without_traceback(self, argv, read):
        """A reader that closes the pipe unread, as `circledirac ... | true` can, or after
        its first ``read`` characters, so that the pipe breaks partway through the output."""
        env = dict(os.environ)
        env.pop("CIRCLEDIRAC_FAULT", None)
        proc = subprocess.Popen([sys.executable, "-m", "circledirac", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if read:   # the start of the table's one JSON line, some 2 MB long
            assert proc.stdout.read(read).startswith('[{"n_theta": 1, "n_r": 0, "n": 1, ')
        proc.stdout.close()   # unread: before the child has imported numpy, let alone written
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("circledirac: error: standard output closed early")


# -- fuzzing the CLI boundary ---------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_numbers = st.one_of(
    st.floats(),                                           # includes nan, inf, huge, subnormal
    st.sampled_from([1e308, -1e308, 5e-324, 0.0, -0.0, 1e52, 1e77, 1e100, -1e200]),
)
_number_args = st.one_of(_numbers.map(repr), st.sampled_from(["", "abc", "1e", "0x10", "--"]))
_int_args = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["1.5", "x", "10**3"]))
# a table bound that is small, not an integer, or large: any bound above MAX_LEVELS
# exceeds the cap whatever the other is, so those draws exit 1 at once
_bound_args = st.one_of(_int_args, st.integers(MAX_LEVELS + 1, 10 ** 30).map(str))
_json_values = st.one_of(_numbers, st.integers(-10 ** 400, 10 ** 400), st.booleans(), st.none(),
                         st.text(max_size=3), st.just([1]), st.just({"a": 1}))
_charts = st.one_of(st.sampled_from(["L", "T", "M", "S"]), st.sampled_from(["X", 5, None]))
_radii = st.one_of(st.floats(0.1, 10.0), _json_values)
_coords = st.one_of(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
                    st.lists(_numbers, min_size=4, max_size=4),
                    st.lists(_json_values, min_size=4, max_size=4), _json_values)
_points = st.one_of(
    st.fixed_dictionaries({"chart": _charts, "coords": _coords},
                          optional={"R0": _radii, "R1": _radii}).map(json.dumps),
    st.sampled_from(["not json", "[1]", "{", "null", "1", '{"coords": [0, 0, 0, 1]}']),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda groups: [command] + [a for g in groups for a in g])


_map_argv = _argv("map", st.sampled_from(["L", "T", "M", "S"]).map(lambda s: ["--space", s]),
                  _opt("--R0", _number_args), _opt("--R1", _number_args),
                  _points.map(lambda p: ["--point", p]),
                  st.sampled_from([[], ["--round-trip"]]))
_qed_argv = _argv("qed-rho", _opt("--A", _number_args), _opt("--mass", _number_args),
                  _opt("--charge", _number_args), _opt("--alpha", _number_args),
                  _opt("--ntheta", _int_args), _opt("--nr", _int_args),
                  _opt("--branch", st.sampled_from(["plus", "minus", "both", "up"])))
_spectrum_argv = _argv("spectrum", _opt("--max-ntheta", _bound_args), _opt("--max-nr", _bound_args),
                       _opt("--alpha", _number_args), _opt("--mass-ev", _number_args),
                       _opt("--tol", _number_args), st.just(["--format", "json"]))


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_map_argv, _qed_argv, _spectrum_argv))
def test_cli_fuzz_total(argv):
    """Every drawn command ends in exit 0, 1 or 2, without a traceback and
    with strict JSON (no NaN or Infinity) on stdout."""
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
    else:
        json.loads(out, parse_constant=_reject_constant)

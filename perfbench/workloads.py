"""The benchmark's workloads: seeded requests, the call into circledirac, checks.

Each workload is a closed loop with one client.  Its requests are made
from the workload seed alone, and every output is checked by code that
does not go through the code under test (own parsers, an mpmath oracle
at higher precision, the charts' defining equations).

* ``verify-sweep``: ``circledirac verify --suite all`` in-process, with a
  drawn seed and format.  The default user command; scalar Python loops
  in every module, barely any mpmath.
* ``spectrum-grid``: ``circledirac spectrum`` at the 3x4, 30x31 and
  100x101 sizes with a drawn alpha.  Dominated by the mpmath reference
  and ``coupled_solve``; makes no Biquaternion call, so it is the control
  for algebra and chart work.
* ``wave-residual``: a batch of k off-cone points (k log-uniform in
  [1, 512]) mapped onto a T or S chart, a random on-shell bound wave,
  its analytic and central-difference Dirac residuals, and the map back.
  Dominated by ``reflector``, ``planewave`` and ``biquaternion``; the
  spread of k separates per-call cost from per-point cost.

Sizes and formats are stratified (every block of consecutive requests
holds each size once, k follows a shifted van der Corput sequence), so
that any prefix of the schedule a run gets through has the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from circledirac import circle_spaces, cli, planewave

FORMATS = ("csv", "json")


@dataclass
class Outcome:
    """What the checks found for one request.

    ``err_ratio`` is the worst observed error over its tolerance (a pass
    needs <= 1); ``problem`` names the first failed check, if any.
    """

    items: int
    err_ratio: float
    problem: str | None = None
    binding_rel_err: float = 0.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``circledirac <argv>`` in-process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _ratio(error: float, tolerance: float) -> float:
    if tolerance > 0.0:
        return error / tolerance
    return 0.0 if error == 0.0 else math.inf


def _worst(ratios) -> tuple[float, str | None]:
    """Largest (ratio, label) pair; the label is returned only when it fails."""
    ratio, label = max(ratios, key=lambda item: item[0])
    return ratio, (None if ratio <= 1.0 else f"{label}: error/tolerance {ratio:.3g}")


# -- verify-sweep ---------------------------------------------------------------

# Every case a sweep must report; a sweep that drops one is a failure.
KNOWN_CASES = {
    "algebra": ("mul-associative", "unit-anticommutation", "minkowski-embed",
                "conj-antihomomorphism", "matrix-representation"),
    "charts": ("roundtrip-L-T", "roundtrip-L-M", "roundtrip-L-S", "rotated-basis-relations",
               "derivative-matrix-unimodular", "arc-map-inverse", "inverse-distance-flattens"),
    "dirac": ("free-analytic", "free-fd", "bound-analytic", "bound-fd",
              "bound-potential-analytic", "bound-potential-fd", "fd-convergence-order",
              "offshell-detected"),
    "tachyon": ("rotor-vs-component-map", "double-application-exact",
                "dot-product-invariance", "general-rotor-norm-preserved"),
    "spectrum": ("two-route-agreement", "reference-agreement", "quantization-web",
                 "no-vibration-reduction", "energy-monotonicity", "fourth-order-expansion",
                 "heavy-electron-closure", "dashed-energy-consistency"),
    "qed": ("root-residuals", "d-prime-positive", "d-prime-reduces-to-d",
            "bracket-identity", "branch-ordering"),
}
_CSV_HEADER = "suite,case,max_error,tolerance,pass"


def _verify_cases_csv(text: str) -> list[tuple[str, str, float, float, bool]]:
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("verify csv header missing")
    cases = []
    for line in lines[1:]:
        suite, case, error, tol, passed = line.split(",")
        if passed not in ("true", "false"):
            raise ValueError(f"bad pass flag {passed!r}")
        cases.append((suite, case, float(error), float(tol), passed == "true"))
    return cases


def _verify_cases_json(text: str) -> list[tuple[str, str, float, float, bool]]:
    payload = json.loads(text)
    if payload["overall"] is not True:
        raise ValueError("verify json overall is not true")
    return [(r["suite"], c["id"], float(c["max_error"]), float(c["tolerance"]), c["passed"])
            for r in payload["reports"] for c in r["cases"]]


class VerifySweep:
    name = "verify-sweep"
    size = 4096      # schedule length; a run stops early if it gets through all
    probe = 3        # requests in a traced run (odd, so medians are samples)
    tail_pct = 75    # req_tail_ms percentile: >= 10 samples beyond it in a 30 s run
    rechecks = 3     # requests rerun after the timed window for byte-identity

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.size + 1)]
        first = int(rng.integers(0, 2))
        self.formats = [FORMATS[(i + first) % 2] for i in range(self.size)]

    def request(self, i: int) -> list[str]:
        return ["verify", "--suite", "all", "--seed", str(self.seeds[i]),
                "--format", self.formats[i]]

    def warmup(self) -> list[list[str]]:
        return [["verify", "--suite", "all", "--seed", str(self.seeds[-1]), "--format", "csv"]]

    def call(self, argv):
        return run_cli(argv)

    def check(self, argv, result) -> Outcome:
        code, out = result
        if code != 0:
            return Outcome(0, 0.0, f"exit code {code}")
        parse = _verify_cases_csv if argv[-1] == "csv" else _verify_cases_json
        cases = parse(out)
        ratios = [(0.0, "none")]
        seen = set()
        for suite, case, error, tol, passed in cases:
            label = f"{suite}/{case}"
            if (error <= tol) != passed:
                return Outcome(0, 0.0, f"{label}: pass flag disagrees with error <= tolerance")
            ratios.append((_ratio(error, tol), label))
            seen.add((suite, case))
        missing = [f"{s}/{c}" for s, ids in KNOWN_CASES.items() for c in ids if (s, c) not in seen]
        if missing:
            return Outcome(0, 0.0, f"missing cases {missing}")
        worst, problem = _worst(ratios)
        return Outcome(len(cases), worst, problem)

    def recheck(self, argv, result) -> str | None:
        again = run_cli(argv)
        return None if again == result else "rerun with the same seed changed stdout"


# -- spectrum-grid --------------------------------------------------------------

SIZES = ((3, 3), (30, 30), (100, 100))   # (max_ntheta, max_nr): 3x4, 30x31, 100x101 levels
MASS_EV = 510998.9461
TOL = 1e-12                             # the CLI's acceptance tolerance, relative to mass
ORACLE_DPS = 50
SAMPLE_ROWS = 6
_SPECTRUM_COLUMNS = ("n_theta", "n_r", "n", "energy_natural", "energy_ev",
                     "binding_ev", "reference_ev", "abs_diff")


def oracle_level(alpha: float, n_theta: int, n_r: int) -> tuple[float, float]:
    """E/m and (E - m)/m of the Sommerfeld/Dirac level, mpmath at ORACLE_DPS.

    Written as q/sqrt(q^2 + alpha^2), q = n_r + sqrt(n_theta^2 - alpha^2),
    a different arrangement from the program's; the binding energy is
    the difference taken at that precision.
    """
    with mpmath.workdps(ORACLE_DPS):
        a = mpmath.mpf(alpha)
        q = n_r + mpmath.sqrt(n_theta * n_theta - a * a)
        e = q / mpmath.sqrt(q * q + a * a)
        return e, e - 1


def _spectrum_rows(text: str, fmt: str) -> list[tuple]:
    if fmt == "json":
        return [tuple(row[c] for c in _SPECTRUM_COLUMNS) for row in json.loads(text)]
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(_SPECTRUM_COLUMNS):
        raise ValueError("spectrum csv header missing")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append((int(f[0]), int(f[1]), int(f[2]), *map(float, f[3:])))
    return rows


@dataclass
class SpectrumRequest:
    argv: list[str]
    alpha: float
    size: tuple[int, int]
    fmt: str
    sample_seed: list[int]


class SpectrumGrid:
    name = "spectrum-grid"
    size = 3 * 1024
    probe = 9
    tail_pct = 80    # inside the 100x101 third, clear of its lower edge at p67
    rechecks = 0

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        blocks = self.size // len(SIZES)
        self.sizes = [SIZES[j] for _ in range(blocks) for j in rng.permutation(len(SIZES))]
        alphas = rng.uniform(0.0, 1.0, size=self.size + 2)
        self.alphas = [float(a) for a in alphas if a > 0.0]
        first = int(rng.integers(0, 2))
        self.formats = [FORMATS[(i // len(SIZES) + first) % 2] for i in range(self.size)]

    def _request(self, alpha, size, fmt, sample_seed) -> SpectrumRequest:
        argv = ["spectrum", "--max-ntheta", str(size[0]), "--max-nr", str(size[1]),
                "--alpha", repr(alpha), "--mass-ev", repr(MASS_EV), "--format", fmt]
        return SpectrumRequest(argv, alpha, size, fmt, sample_seed)

    def request(self, i: int) -> SpectrumRequest:
        return self._request(self.alphas[i], self.sizes[i], self.formats[i], [self.seed, 2, i])

    def warmup(self) -> list[SpectrumRequest]:
        alpha = self.alphas[-1]
        return [self._request(alpha, SIZES[0], fmt, [self.seed, 2, self.size]) for fmt in FORMATS]

    def call(self, req: SpectrumRequest):
        return run_cli(req.argv)

    def check(self, req: SpectrumRequest, result) -> Outcome:
        code, out = result
        if code != 0:
            return Outcome(0, 0.0, f"exit code {code}")
        rows = _spectrum_rows(out, req.fmt)
        a, b = req.size
        grid = {(nt, nr) for nt in range(1, a + 1) for nr in range(b + 1)}
        if len(rows) != len(grid) or {(r[0], r[1]) for r in rows} != grid:
            return Outcome(0, 0.0, f"expected the {len(grid)} levels of {a}x{b + 1}, got {len(rows)} rows")
        if any(r[2] != r[0] + r[1] for r in rows):
            return Outcome(0, 0.0, "n != n_theta + n_r")
        by_qn = {(r[0], r[1]): r for r in rows}
        rng = np.random.default_rng(req.sample_seed)
        picks = {(1, 0), (a, b)}   # ground state; highest n, where cancellation is worst
        picks.update(rows[j][:2] for j in rng.choice(len(rows), SAMPLE_ROWS))
        ratios = [(0.0, "none")]
        binding = 0.0
        for qn in sorted(picks):
            _, _, _, e_nat, e_ev, b_ev, ref_ev, _ = by_qn[qn]
            e, bind = oracle_level(req.alpha, *qn)
            label = f"level {qn} alpha={req.alpha!r}"
            oracle_ev = float(e * MASS_EV)
            ratios += [
                (_ratio(abs(e_nat - float(e)), TOL), f"{label} energy_natural"),
                (_ratio(abs(e_ev - oracle_ev), TOL * MASS_EV), f"{label} energy_ev"),
                (_ratio(abs(ref_ev - oracle_ev), TOL * MASS_EV), f"{label} reference_ev"),
            ]
            oracle_bind = float(bind * MASS_EV)
            binding = max(binding, abs(b_ev - oracle_bind) / abs(oracle_bind))
        worst, problem = _worst(ratios)
        return Outcome(len(rows), worst, problem, binding_rel_err=binding)


# -- wave-residual --------------------------------------------------------------

K_MAX = 512
STEP = 1e-5                 # central-difference step
ANALYTIC_TOL = 1e-12
FD_TOL = 1e-8
CHART_TOL = 1e-12
CONTROL_SHIFT = 0.1         # nu + 0.1 is off shell ...
CONTROL_MIN = 1e-4          # ... and must leave at least this residual


def _van_der_corput(n: int) -> np.ndarray:
    i = np.arange(n)
    out = np.zeros(n)
    weight = 0.5
    while i.any():
        out += (i & 1) * weight
        i >>= 1
        weight /= 2
    return out


def _chart_defect(points: np.ndarray, mapped: np.ndarray, target) -> float:
    """Worst violation of the target chart's defining equations.

    T: x0 = r0 sinh(s0/R0), x3 = r0 cosh(s0/R0), x1 and x2 unchanged;
    S additionally x1 = r1 sin(s1/R1), x2 = r1 cos(s1/R1).  Radii must be
    nonnegative.  Relative to max(1, |x|).
    """
    x0, x1, x2, x3 = points.T
    s0, c1, c2, r0 = mapped.T
    theta0 = s0 / target.R0
    if target.kind.value == "S":
        theta1 = c1 / target.R1
        y1, y2 = c2 * np.sin(theta1), c2 * np.cos(theta1)
        if np.any(c2 < 0.0) or np.any(np.abs(theta1) > math.pi):
            return math.inf
    else:
        y1, y2 = c1, c2
    if np.any(r0 <= 0.0):
        return math.inf
    image = np.stack([r0 * np.sinh(theta0), y1, y2, r0 * np.cosh(theta0)], axis=1)
    return float(np.max(np.abs(image - points) / np.maximum(1.0, np.abs(points))))


@dataclass
class WaveRequest:
    points: np.ndarray
    target: object
    wave: object


class WaveResidual:
    name = "wave-residual"
    size = 32768
    probe = 33
    tail_pct = 95
    rechecks = 0

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        u = (_van_der_corput(self.size + 1) + rng.uniform()) % 1.0
        self.ks = np.clip(np.rint(K_MAX ** u), 1, K_MAX).astype(int)
        self.source = circle_spaces.SpaceChart(circle_spaces.ChartKind.L)

    def _request(self, i: int, k: int) -> WaveRequest:
        rng = np.random.default_rng([self.seed, 3, i])
        pts = np.empty((k, 4))
        pts[:, 3] = rng.uniform(0.3, 3.0, size=k)
        pts[:, 0] = pts[:, 3] * rng.uniform(-0.9, 0.9, size=k)   # off cone: x3 > |x0|
        pts[:, 1:3] = rng.uniform(-2.0, 2.0, size=(k, 2))
        kind = ("T", "S")[int(rng.integers(0, 2))]
        r0, r1 = rng.uniform(0.5, 2.0, size=2)
        target = circle_spaces.SpaceChart(circle_spaces.ChartKind(kind), R0=float(r0),
                                          R1=float(r1) if kind == "S" else None)
        mass, mu, ea = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        wave = planewave.PlaneWave(nu=ea + math.sqrt(mass * mass + mu * mu), mu=mu, mass=mass, eA=ea)
        return WaveRequest(pts, target, wave)

    def request(self, i: int) -> WaveRequest:
        return self._request(i, int(self.ks[i]))

    def warmup(self) -> list[WaveRequest]:
        return [self._request(self.size, 8)]

    def call(self, req: WaveRequest):
        source, target, pw = self.source, req.target, req.wave
        mapped = [circle_spaces.chart_map(p, source, target) for p in req.points]
        wave = planewave.bound_solution(pw)
        a_pot, e = pw.potential()
        report = planewave.residual(wave, a_pot, e, planewave.mass_term(pw.mass), mapped, h=STEP)
        back = [circle_spaces.chart_map(q, target, source) for q in mapped]
        return mapped, report, back

    def check(self, req: WaveRequest, result) -> Outcome:
        mapped, report, back = result
        pts = req.points
        mapped, back = np.asarray(mapped, dtype=float), np.asarray(back, dtype=float)
        if mapped.shape != pts.shape or back.shape != pts.shape or report.analytic is None:
            return Outcome(0, 0.0, "missing mapped points or analytic residual")
        round_trip = float(np.max(np.abs(back - pts) / np.maximum(1.0, np.abs(pts))))
        pw = req.wave
        off = planewave.plane_wave_solution(pw.nu + CONTROL_SHIFT, pw.mu, pw.mass, pw.eA)
        a_pot, e = pw.potential()
        control = planewave.residual(off, a_pot, e, planewave.mass_term(pw.mass),
                                     mapped[:1], h=STEP).analytic
        worst, problem = _worst([
            (report.analytic / ANALYTIC_TOL, "analytic residual"),
            (report.fd / FD_TOL, "central-difference residual"),
            (_chart_defect(pts, mapped, req.target) / CHART_TOL, "chart equations"),
            (round_trip / CHART_TOL, "chart round trip"),
            (CONTROL_MIN / control if control > 0.0 else math.inf, "off-shell control"),
        ])
        return Outcome(len(pts), worst, problem)


WORKLOADS = {w.name: w for w in (VerifySweep, SpectrumGrid, WaveResidual)}

"""circledirac benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  Workloads: verify-sweep, spectrum-grid,
wave-residual (see workloads.py).

``--trace 0`` measures end to end for ``--seconds`` seconds, with the
package untouched, and reports setup_s, req_p50_ms, req_tail_ms,
items_per_s and peak_rss_mb.  ``--trace 1`` runs the workload's fixed,
seeded probe requests once untraced and once with every listed public
function wrapped (spans.py), and reports per-layer call counts, median
self times per request, the oracle share and the tracing overhead; its
length is set by the probe, not by ``--seconds``, so its call counts
repeat exactly for a seed.  Spans are written to
``.perfbench/spans-<workload>.npz``.

Standard output ends with two JSON lines: a report (environment stamp,
sample counts, the tail percentile used, max_err_ratio and fail_frac),
then the result {"correct", "attempted", "failed", "metrics"}.  A run
whose outputs fail a check still prints its result, with correct false.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
CAL_EVERY_S = 0.1


def load_program():
    """Import circledirac from this checkout's src/, or exit nonzero."""
    init = os.path.join(SRC, "circledirac", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: no circledirac sources at {init}")
    sys.path[:0] = [SRC, BENCH]
    import circledirac

    if os.path.abspath(circledirac.__file__) != init:
        raise SystemExit(f"benchmark: imported circledirac from {circledirac.__file__}, not {init}")
    return circledirac


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "circledirac")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Latencies, items and check results over the requests of a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.binding = 0.0
        self.problems: list[str] = []

    def add(self, start: float, seconds: float, outcome) -> None:
        self.attempted += 1
        self.starts.append(start)
        self.latencies.append(seconds)
        self.worst = max(self.worst, outcome.err_ratio)
        self.binding = max(self.binding, outcome.binding_rel_err)
        if outcome.problem is None:
            self.items += outcome.items
        else:
            self.fail(outcome.problem)

    def absorb(self, other: "Tally") -> None:
        """Count another pass's requests and check results in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.items += other.items
        self.worst = max(self.worst, other.worst)
        self.binding = max(self.binding, other.binding)
        self.problems = other.problems + self.problems

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.worst <= 1.0


def timed_request(workload, req, tally, call=None):
    """Run one request, check it outside the timer, and record both."""
    from workloads import Outcome

    call = call or workload.call
    result = None
    t0 = time.perf_counter()
    try:
        result = call(req)
        error = None
    except (Exception, SystemExit) as exc:
        error = f"request raised {exc!r}"
    seconds = time.perf_counter() - t0
    if error is None:
        try:
            outcome = workload.check(req, result)
        except (Exception, SystemExit) as exc:
            outcome = Outcome(0, 0.0, f"output unreadable: {exc!r}")
    else:
        outcome = Outcome(0, 0.0, error)
    tally.add(t0, seconds, outcome)
    return result


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: a sample, with pct% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh interpreters, run one at a time.

    Returns (at reference speed, raw) seconds.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * calibrate.REFERENCE_S / probe["kernel_s"])
    return scaled, raw


def setup_probe(workload: str, seed: int) -> None:
    """Time import circledirac, input generation and warm-up in this fresh process.

    Prints that time with the median of the calibration kernel's times
    before and after it.
    """
    calibrate.sample()
    kernels = [calibrate.sample() for _ in range(3)]
    t0 = time.perf_counter()
    load_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    for req in wl.warmup():
        wl.call(req)
    setup = time.perf_counter() - t0
    kernels += [calibrate.sample() for _ in range(3)]
    print(json.dumps({"setup_s": setup, "kernel_s": statistics.median(kernels)}))


def drive(wl, get, count, tally, deadline=None, call=None, keep=0):
    """Time requests get(0), get(1), ... until ``count`` or the deadline.

    The calibration kernel runs before the first request, after the last,
    and between requests whenever CAL_EVERY_S has passed.  Each request's
    latency is scaled to the reference speed by the mean of the kernel
    times just before and just after it.  Returns the scaled latencies,
    the kernel times and the first ``keep`` (request, result) pairs.
    """
    stamps, kernels, kept = [], [], []

    def calibrate_now():
        stamps.append(time.perf_counter())
        kernels.append(calibrate.sample())

    calibrate_now()
    for i in range(count):
        if deadline is not None and i > 0 and time.perf_counter() >= deadline:
            break
        req = get(i)
        result = timed_request(wl, req, tally, call)
        if i < keep:
            kept.append((req, result))
        if time.perf_counter() >= stamps[-1] + CAL_EVERY_S:
            calibrate_now()
    calibrate_now()
    scaled = []
    for start, seconds in zip(tally.starts, tally.latencies):
        before = bisect.bisect_right(stamps, start) - 1
        after = bisect.bisect_left(stamps, start + seconds)
        scaled.append(seconds * 2.0 * calibrate.REFERENCE_S / (kernels[before] + kernels[after]))
    return scaled, kernels, kept


def run_untraced(wl, seconds: float, seed: int) -> tuple[Tally, dict, dict]:
    setup, setup_raw = measure_setup(wl.name, seed)
    for req in wl.warmup():
        wl.call(req)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    latencies, kernels, kept = drive(wl, wl.request, wl.size, tally, deadline, keep=wl.rechecks)
    for req, result in kept:
        problem = wl.recheck(req, result)
        if problem is not None:
            tally.fail(problem)

    tail_s = percentile(latencies, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_tail_ms": (tail_s * 1e3, "ms"),
        "items_per_s": (tally.items / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "requests": len(latencies),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(1 for t in latencies if t > tail_s),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "req_p50_ms": statistics.median(tally.latencies) * 1e3,
            "req_tail_ms": percentile(tally.latencies, wl.tail_pct) * 1e3,
            "items_per_s": tally.items / sum(tally.latencies),
        },
        "kernel_ms": {"reference": calibrate.REFERENCE_S * 1e3,
                      "median": statistics.median(kernels) * 1e3,
                      "min": min(kernels) * 1e3, "max": max(kernels) * 1e3,
                      "samples": len(kernels)},
    }
    return tally, metrics, extra


def run_traced(wl) -> tuple[Tally, dict, dict]:
    import spans

    for req in wl.warmup():
        wl.call(req)
    requests = [wl.request(i) for i in range(wl.probe)]
    untraced = Tally()
    base, _, _ = drive(wl, requests.__getitem__, len(requests), untraced)

    tracer = spans.Tracer()
    tracer.install()

    def call(req):
        token = tracer.begin_request(len(tracer.closed))
        try:
            return wl.call(req)
        finally:
            tracer.end_request(token)

    tally = Tally()
    traced, _, _ = drive(wl, requests.__getitem__, len(requests), tally, call=call)
    per_request = [tracer.fold(*closed) for closed in tracer.closed]
    for i, agg in enumerate(per_request):
        if not agg["consistent"]:
            tally.fail(f"request {i}: span self times do not add up to the request span")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tracer.save(os.path.join(ROOT, ".perfbench", f"spans-{wl.name}.npz"))

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for layer in [spans.MUL, *spans.FUNCTIONS]:
        metrics[f"{layer}.calls"] = (med(a["calls"].get(layer, 0) for a in per_request), "count")
        metrics[f"{layer}.self_ms"] = (
            med(a["self_ns"].get(layer, 0) for a in per_request) / 1e6, "ms")
    metrics[f"{spans.NEW}.calls"] = (med(a["calls"][spans.NEW] for a in per_request), "count")
    for suite in spans.SUITES:
        name = f"{spans.RUN_SUITE}.{suite}"
        metrics[f"{name}.ms"] = (med(a["total_ns"].get(name, 0) for a in per_request) / 1e6, "ms")
    oracle = "spectrum.sommerfeld_reference"
    metrics["spectrum.oracle_share"] = (
        med(a["self_ns"].get(oracle, 0) / a["root_ns"] for a in per_request), "1")
    metrics["trace.overhead_frac"] = ((sum(traced) - sum(base)) / sum(base), "1")
    tally.absorb(untraced)
    metrics["spectrum.binding_rel_err_max"] = (tally.binding, "1")
    extra = {"requests": len(requests), "spans": len(tracer.col_name),
             "missing_layers": tracer.missing}
    return tally, metrics, extra


def _finite(x: float):
    """JSON has no infinity; an unbounded error ratio is written as a string."""
    return x if math.isfinite(x) else str(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tally, metrics, extra = run_traced(wl)
    else:
        tally, metrics, extra = run_untraced(wl, args.seconds, args.seed)

    for problem in tally.problems[:5]:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    report = {
        "env": environment(args.workload, args.seed),
        "trace": args.trace,
        **extra,
        "checks": {
            "max_err_ratio": {"value": _finite(tally.worst), "unit": "1"},
            "fail_frac": {"value": tally.failed / max(tally.attempted, 1), "unit": "1"},
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

1. With CIRCLEDIRAC_FAULT=tachyon-sign (the fault switch the README
   documents) verify-sweep must report failed requests and correct
   false, not a clean result.
2. Two traced runs of each workload with the same seed must report
   exactly the same ``*.calls`` counts.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("verify-sweep", "spectrum-grid", "wave-residual")


def result(workload: str, seed: int, trace: int, env=None) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def fault_is_reported() -> bool:
    env = dict(os.environ, CIRCLEDIRAC_FAULT="tachyon-sign")
    res = result("verify-sweep", 7, 0, env)
    ok = res["failed"] > 0 and res["correct"] is False
    print(f"fault run: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']} -> {'PASS' if ok else 'FAIL'}")
    return ok


def calls_repeat(workload: str) -> bool:
    first, second = (
        {k: v["value"] for k, v in result(workload, 11, 1)["metrics"].items() if k.endswith(".calls")}
        for _ in range(2)
    )
    ok = bool(first) and first == second
    print(f"{workload}: {len(first)} call counts repeat exactly -> {'PASS' if ok else 'FAIL'}")
    return ok


def main() -> int:
    os.environ.pop("CIRCLEDIRAC_FAULT", None)
    checks = [fault_is_reported()] + [calls_repeat(w) for w in WORKLOADS]
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Machine-speed reference for timing on a shared, noisy host.

On a small shared VM the speed at which this process runs drifts by up
to 2x over seconds to minutes, as other tenants load the same physical
cores; no steal time or CPU throttling shows inside the guest.  A
run's raw median then depends more on when it ran than on the program.

So the benchmark times a fixed, frozen kernel next to the requests it
measures and scales each request's wall time by REFERENCE_S / (kernel
time measured around that request): a latency in milliseconds at the
reference speed.  The kernel is pure Python and imports nothing (the
set-up probe runs it before ``import circledirac``); it mixes the kinds
of interpreter work circledirac does: small-object complex arithmetic,
float math, and the big-integer arithmetic under mpmath's pure-Python
backend.  Raw, unscaled figures are printed in the report line.
"""

from __future__ import annotations

import math
import time

# Kernel time at the reference speed: about the uncontended time of sample()
# on a 2-vCPU Intel Xeon VM at 2.0 GHz under CPython 3.11.7.
REFERENCE_S = 0.00125


class _Quat:
    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0=0.0, c1=0.0, c2=0.0, c3=0.0):
        self.c0 = complex(c0)
        self.c1 = complex(c1)
        self.c2 = complex(c2)
        self.c3 = complex(c3)

    def __mul__(self, o):
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        b0, b1, b2, b3 = o.c0, o.c1, o.c2, o.c3
        return _Quat(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)

    def max_abs(self):
        return max(abs(self.c0), abs(self.c1), abs(self.c2), abs(self.c3))


def _kernel() -> float:
    x = _Quat(0.5, 0.1j, -0.3, 0.2 + 0.1j)
    y = _Quat(0.7, -0.2, 0.1j, 0.4)
    acc = 1.0
    for _ in range(300):
        x = x * y
        acc += x.max_abs()
        x = _Quat(x.c0 / acc, x.c1, x.c2, x.c3)
    rows = []
    for i in range(200):
        theta = 0.01 * i
        rows.append((math.sinh(theta), math.cosh(theta), math.atan2(theta, 1.5), math.hypot(theta, 2.0)))
    acc += max(r[0] + r[3] for r in rows)
    scale = 1 << 140
    for i in range(1, 120):
        k = i * scale
        root = math.isqrt(k * k - (3 * scale // 7) ** 2)
        acc += (root * scale // (root + scale)) >> 130
    return acc


def sample() -> float:
    """Wall time of one run of the frozen kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0

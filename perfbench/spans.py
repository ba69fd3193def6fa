"""In-memory span tracing of circledirac's public functions.

The tracer replaces each listed function with a timing wrapper wherever
the package binds it: module globals (``verify`` imports ``reflector_mul``
by name, ``spectrum_table`` looks ``sommerfeld_reference`` up as a
global, the package ``__init__`` re-exports most names) and the
``Biquaternion`` class attributes.  Nothing is patched until
:meth:`Tracer.install` is called, so an untraced run executes the
package exactly as shipped.

A span holds name, start, end, parent and request id.  Spans are only
recorded inside a request (between :meth:`begin_request` and
:meth:`end_request`); calls made by the benchmark's own checks pass
straight through.  Spans stay in memory, column-wise in ``array('q')``,
and :meth:`save` writes them out once the run is over.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "circledirac"

# <module>.<function> layers, each wrapped with a span wherever the package binds it
FUNCTIONS = (
    "reflector.dirac_lhs",
    "reflector.dirac_rhs",
    "reflector.reflector_mul",
    "reflector.sandwich",
    "planewave.residual",
    "planewave.bound_solution",
    "circle_spaces.chart_map",
    "circle_spaces.rotated_basis",
    "tachyon.tachyon_quaternion",
    "tachyon.component_map",
    "spectrum.sommerfeld_reference",
    "spectrum.coupled_solve",
    "spectrum.energy_closed_form",
    "spectrum.spectrum_table",
    "spectrum.lines_to_csv",
    "spectrum.lines_to_json_rows",
    "qed.solve_rho",
    "qed.coefficient_d_prime",
    "verify.reports_to_csv",
    "verify.reports_to_json",
    "cli.main",
)

# run_suite spans are named after the suite they run (its first argument)
RUN_SUITE = "verify.run_suite"
SUITES = ("algebra", "charts", "dirac", "tachyon", "spectrum", "qed")

MUL = "biquaternion.mul"    # Biquaternion.__mul__ and __rmul__
NEW = "biquaternion.new"    # Biquaternion.__init__, counted without a span
ROOT = "request"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_request = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.constructions = 0
        self.missing: list[str] = []
        self.closed: list[tuple[int, int, int]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Timing wrapper; ``name`` is a layer name or a function of the call's args."""
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.col_name.append, self.col_parent.append
        add_request, add_start, add_end = (self.col_request.append, self.col_start.append,
                                           self.col_end.append)
        ends = self.col_end
        clock = time.perf_counter_ns
        fixed = None if callable(name) else self._id(name)
        ids = self._id
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(fixed if fixed is not None else ids(name(args, kwargs)))
            add_parent(stack[-1])
            add_request(tracer.request)
            add_end(0)
            push(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every binding site in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        sites = [(layer, layer) for layer in FUNCTIONS]
        sites.append((RUN_SUITE, _suite_span_name))
        for layer, span_name in sites:
            mod, attr = layer.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), attr, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapped = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        bq = sys.modules.get(f"{PACKAGE}.biquaternion")
        cls = getattr(bq, "Biquaternion", None)
        if cls is None:
            self.missing += [MUL, NEW]
            return
        for attr in ("__mul__", "__rmul__"):
            if attr in vars(cls):
                setattr(cls, attr, self.wrap(MUL, vars(cls)[attr]))
            else:
                self.missing.append(f"{MUL} ({attr})")
        init = vars(cls).get("__init__")
        if init is None:
            self.missing.append(NEW)
            return

        def counted_init(obj, *args, **kwargs):
            self.constructions += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    # -- requests ------------------------------------------------------------

    def begin_request(self, request_id: int) -> tuple[int, int]:
        self.request = request_id
        idx = len(self.col_name)
        self.col_name.append(self._id(ROOT))
        self.col_parent.append(-1)
        self.col_request.append(request_id)
        self.col_end.append(0)
        self.stack.append(idx)
        self.col_start.append(time.perf_counter_ns())
        return idx, self.constructions

    def end_request(self, token: tuple[int, int]) -> None:
        """Close the request span; :meth:`fold` turns it into numbers later."""
        root, constructions = token
        self.col_end[root] = time.perf_counter_ns()
        self.stack.pop()
        self.request = -1
        self.closed.append((root, len(self.col_name), self.constructions - constructions))

    def fold(self, root: int, hi: int, constructions: int) -> dict:
        """Per-layer numbers of one closed request (spans root..hi-1).

        Returns {"root_ns", "calls": {layer: n}, "self_ns": {layer: ns},
        "total_ns": {layer: ns}, "consistent": bool}.  A layer's self time
        is its spans' durations minus what their child spans cover; over
        one request the self times add up to the request span exactly,
        and ``consistent`` also requires every child to nest in its parent.
        """
        names, starts, ends, parents = self.col_name, self.col_start, self.col_end, self.col_parent
        child = [0] * (hi - root)
        consistent = True
        for j in range(root + 1, hi):
            p = parents[j]
            child[p - root] += ends[j] - starts[j]
            if starts[j] < starts[p] or ends[j] > ends[p]:
                consistent = False
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_sum = 0
        for j in range(root, hi):
            name = self.names[names[j]]
            dur = ends[j] - starts[j]
            own = dur - child[j - root]
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += dur
            self_sum += own
        root_ns = ends[root] - starts[root]
        calls[NEW] = constructions
        return {
            "root_ns": root_ns,
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "total_ns": dict(total_ns),
            "consistent": consistent and self_sum == root_ns,
        }

    def save(self, path) -> None:
        """Write every recorded span (numpy .npz, one array per field)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.col_name, dtype=np.int64),
            start_ns=np.frombuffer(self.col_start, dtype=np.int64),
            end_ns=np.frombuffer(self.col_end, dtype=np.int64),
            parent=np.frombuffer(self.col_parent, dtype=np.int64),
            request=np.frombuffer(self.col_request, dtype=np.int64),
        )


def _suite_span_name(args, kwargs) -> str:
    suite = args[0] if args else kwargs.get("name")
    return f"{RUN_SUITE}.{suite}"

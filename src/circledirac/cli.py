"""Command-line front end: spectrum tables, verification suites, chart maps
and charge-density solves, with machine-readable CSV/JSON output.

Exit codes: 0 success, 1 usage or domain error (or a standard output
closed before all was written), 2 verification failure (a computed check
exceeded its tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import circle_spaces as cs
from . import qed
from . import spectrum as sp
from . import verify
from .errors import CircleDiracError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# map --round-trip exits 2 above this round_trip_error: 30x the worst measured, 3.5e-14, on
# 80 000 points carried from L (|theta0| <= 3, coordinates within 10, radii in [0.1, 10])
# between every pair of charts.  The error grows as cosh(theta0)^2, and for a coordinate
# small beside the point's size, so such points can exit 2.
ROUND_TRIP_TOL = 1e-12

DEFAULT_ALPHA = 7.2973525693e-3
DEFAULT_MASS_EV = 510998.9461


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad usage and reads -1e5 as a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it took -1e5 for an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args reads the parser and fills a fresh Namespace each call
    # each command takes only the options it reads; these two are shared by two commands each
    alpha = _Parser(add_help=False)
    alpha.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help="fine structure constant (default CODATA value)")
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (csv is the golden-file format)")

    parser = _Parser(prog="circledirac",
                     description="Verification tools for the circular-chart Dirac system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", parents=[alpha, output],
                            help="emit the fine-structure level table")
    p_spec.add_argument("--mass-ev", type=float, default=DEFAULT_MASS_EV,
                        help="rest mass in eV for spectrum output")
    p_spec.add_argument("--tol", type=float, default=1e-12,
                        help="acceptance tolerance for spectrum rows")
    p_spec.add_argument("--max-ntheta", type=int, default=3)
    p_spec.add_argument("--max-nr", type=int, default=3)
    p_spec.set_defaults(run=cmd_spectrum)

    p_verify = sub.add_parser("verify", parents=[output], help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=verify.SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized verification suites")
    p_verify.set_defaults(run=cmd_verify)

    p_map = sub.add_parser("map", help="map a chart point")
    p_map.add_argument("--space", required=True, choices=[k.value for k in cs.ChartKind],
                       help="target chart")
    p_map.add_argument("--R0", type=float, default=None, help="target temporal circle radius")
    p_map.add_argument("--R1", type=float, default=None, help="target spatial circle radius")
    p_map.add_argument("--point", required=True,
                       help='source point JSON, e.g. \'{"chart":"L","coords":[0,0,0,1]}\'')
    p_map.add_argument("--round-trip", action="store_true",
                       help="also map back and print both directions")
    p_map.set_defaults(run=cmd_map)

    p_rho = sub.add_parser("qed-rho", parents=[alpha],
                           help="solve the charge-density quadratic")
    p_rho.add_argument("--A", type=float, default=1.0, help="local potential magnitude")
    p_rho.add_argument("--mass", type=float, default=1.0, help="rest mass (natural units)")
    p_rho.add_argument("--charge", type=float, default=None,
                       help="charge e (default sqrt(alpha))")
    p_rho.add_argument("--ntheta", type=int, default=1)
    p_rho.add_argument("--nr", type=int, default=0)
    p_rho.add_argument("--branch", choices=("plus", "minus", "both"), default="both",
                       help="additionally report one root under the key 'rho'")
    p_rho.set_defaults(run=cmd_qed_rho)

    return parser


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise CircleDiracError(f"alpha must lie in (0, 1), got {alpha}")


def cmd_spectrum(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    mass_ev, tol = args.mass_ev, args.tol
    if not 0 < mass_ev < math.inf:
        raise CircleDiracError(f"mass-ev must be positive and finite, got {mass_ev}")
    if not 0 < tol < math.inf:
        raise CircleDiracError(f"tol must be positive and finite, got {tol}")
    table = sp.spectrum_table(args.alpha, mass_ev, args.max_ntheta, args.max_nr)
    # each chunk of rows is written as soon as it is formatted; a JSON table that is not
    # finite is refused before the first
    for text in sp._csv_chunks(table) if args.format == "csv" else sp._json_chunks(table):
        sys.stdout.write(text)
    if args.format == "json":
        sys.stdout.write("\n")
    # over all rows: a NaN difference fails, as it fails <=
    return EXIT_OK if table.abs_diff.max() <= tol * mass_ev else EXIT_VERIFICATION


def cmd_verify(args: argparse.Namespace) -> int:
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [verify.run_suite(name, args.seed) for name in names]
    if args.format == "json":
        sys.stdout.write(verify.reports_to_json(reports))
    else:
        sys.stdout.write(verify.reports_to_csv(reports))
    return EXIT_OK if all(r.overall for r in reports) else EXIT_VERIFICATION


def _round_trip_error(back, coords, source: cs.SpaceChart) -> float:
    """The largest slot difference between a point and its round trip, relative to
    max(1, |coordinate|).  M and S charts map s1 back to R1 times its principal angle, so
    there the s1 difference is taken modulo the spatial circle's period 2*pi*R1."""
    diff = [b - c for b, c in zip(back.tolist(), coords.tolist())]
    if source.spatial:
        diff[1] = math.remainder(diff[1], 2 * math.pi * source.R1)
    return max(abs(d) / max(1.0, abs(c)) for d, c in zip(diff, coords.tolist()))


def cmd_map(args: argparse.Namespace) -> int:
    source, coords = cs.chart_point_from_json(args.point)
    target = cs.SpaceChart(cs.ChartKind(args.space), args.R0, args.R1)
    mapped = cs.chart_map(coords, source, target)
    forward = json.loads(cs.chart_point_to_json(target, mapped))
    if args.round_trip:
        back = cs.chart_map(mapped, target, source)
        error = _round_trip_error(back, coords, source)
        payload = {
            "forward": forward,
            "back": json.loads(cs.chart_point_to_json(source, back)),
            "round_trip_error": error,
        }
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
        return EXIT_OK if error <= ROUND_TRIP_TOL else EXIT_VERIFICATION
    sys.stdout.write(json.dumps(forward, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_qed_rho(args: argparse.Namespace) -> int:
    alpha, mass, charge = args.alpha, args.mass, args.charge
    _check_alpha(alpha)
    for name, value in (("A", args.A), ("mass", mass), ("charge", charge)):
        if value is not None and not math.isfinite(value):
            raise CircleDiracError(f"{name} must be finite, got {value}")
    e = math.sqrt(alpha) if charge is None else charge
    d_prime = qed.coefficient_d_prime(alpha, args.ntheta, args.nr)
    sol = qed.solve_rho(args.A, mass, e, d_prime)
    payload = {
        "A": sol.A,
        "mass": mass,
        "e": e,
        "d_prime": d_prime,
        "rho_plus": sol.rho_plus,
        "rho_minus": sol.rho_minus,
        "residual_plus": sol.residual_plus,
        "residual_minus": sol.residual_minus,
    }
    if args.branch == "plus":
        payload["rho"] = sol.rho_plus
    elif args.branch == "minus":
        payload["rho"] = sol.rho_minus
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    return EXIT_OK


def _silence_stdout() -> None:
    """Point the standard output's file descriptor at os.devnull, so that what
    a closed pipe did not take is dropped quietly at the interpreter's last flush."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):   # not a file: nothing is flushed to a pipe
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.run(args)
        sys.stdout.flush()   # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError as exc:
        _silence_stdout()
        print(f"circledirac: error: standard output closed early: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CircleDiracError, ArithmeticError) as exc:
        print(f"circledirac: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"circledirac: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

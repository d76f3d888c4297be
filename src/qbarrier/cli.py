"""Command line front end.

``qbarrier figure3|figure4|figure5`` reproduce the three canonical
sweeps with their preset grids; ``transmission``, ``traversal``,
``cumulative``, and ``resonances`` expose the same runners with free
parameters.  Output is CSV or JSON to stdout or a file.

Exit codes: 0 clean, 2 bad usage (including an option the subcommand
does not take, a nonpositive width, energy or bath cutoff, a negative
time, an infinite range end, or a count below 1), 3 numerical failure,
a negative damping rate among them, or one whose kernel is not finite
(partial output is still written with failed cells as nan, and stderr
gets their count and, for each failed column, the first exception).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import sweep
from .errors import QBarrierError


def _range_triple(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not -math.inf < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(
            f"need finite lo < hi in {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(f"need n >= 2 in {text!r}")
    return lo, hi, n


def _epsilon_range(text: str) -> tuple:
    lo, hi, n = _range_triple(text)
    if not lo > 0.0:
        raise argparse.ArgumentTypeError(f"need energies > 0 in {text!r}")
    return lo, hi, n


def _tau_range(text: str) -> tuple:
    lo, hi, n = _range_triple(text)
    if not lo >= 0.0:
        raise argparse.ArgumentTypeError(f"need times >= 0 in {text!r}")
    return lo, hi, n


def _number(text: str, kind):
    try:
        return kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> float:
    val = _number(text, float)
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return val


def _tol(text: str) -> float:
    val = _number(text, float)
    if not 0.0 < val <= 1e-3:
        raise argparse.ArgumentTypeError(
            f"tolerance must be in (0, 1e-3], got {text!r}")
    return val


def _at_least_one(text: str) -> int:
    val = _number(text, int)
    if val < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return val


def _add_common(sub: argparse.ArgumentParser, *, gamma=True):
    sub.add_argument("--d-over-lambda0", type=_positive, default=5.0,
                     metavar="D", help="barrier width in wavelengths "
                     "(default %(default)s)")
    if gamma:
        sub.add_argument("--gamma-star", type=float, action="append",
                         metavar="G", help="damping rate in 1/tau_star; "
                         "repeatable, 0 baseline always included")
        sub.add_argument("--omega-star", type=_positive, default=100.0,
                         metavar="W", help="bath cutoff in 1/tau_star "
                         "(default %(default)s)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="output file (default stdout)")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the generation timestamp for "
                     "byte-reproducible output")


def _add_solver(sub: argparse.ArgumentParser):
    """Tolerance of the pointwise w_D solver, taken only by the
    transmission sweeps."""
    sub.add_argument("--tol", type=_tol, default=1e-6,
                     help="per-point tolerance (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbarrier",
        description="Barrier transmission and traversal-time sweeps "
        "with Ohmic damping.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in (("figure3", "transmission vs energy, preset grid"),
                       ("figure4", "mean traversal deviation vs energy"),
                       ("figure5", "cumulative amplitude vs time")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub, gamma=(name != "figure4"))
        if name == "figure3":
            _add_solver(sub)

    sub = subs.add_parser("transmission",
                          help="transmission probability on a free grid")
    _add_common(sub)
    _add_solver(sub)
    sub.add_argument("--epsilon-range", type=_epsilon_range, required=True,
                     metavar="LO:HI:N")

    sub = subs.add_parser("traversal",
                          help="traversal-time distribution magnitude")
    _add_common(sub)
    sub.add_argument("--epsilon", type=_positive, default=1.3)
    sub.add_argument("--tau-range", type=_tau_range,
                     default=(0.0, 30.0, 301), metavar="LO:HI:N")

    sub = subs.add_parser("cumulative",
                          help="cumulative traversal amplitude magnitude")
    _add_common(sub)
    sub.add_argument("--epsilon", type=_positive, default=1.3)
    sub.add_argument("--tau-range", type=_tau_range,
                     default=(0.0, 30.0, 301), metavar="LO:HI:N")

    sub = subs.add_parser("resonances",
                          help="resonance energies and mean traversal "
                          "times")
    _add_common(sub, gamma=False)
    sub.add_argument("--count", type=_at_least_one, default=4)

    return parser


def _gammas(args, default):
    return args.gamma_star if args.gamma_star else list(default)


def _run(args) -> sweep.SweepResult:
    width = args.d_over_lambda0
    cmd = args.command
    if cmd == "figure3":
        eps = np.linspace(0.05, 5.0, 256)
        return sweep.run_transmission(
            width, eps, _gammas(args, (0.0, 1e-3, 5e-3)), args.omega_star,
            tol=args.tol)
    if cmd == "figure4":
        eps = np.linspace(1.01, 5.0, 257)[1:]
        return sweep.run_mean_deviation(width, eps)
    if cmd == "figure5":
        taus = np.linspace(0.0, 30.0, 301)
        return sweep.run_cumulative(
            width, 1.3, taus, _gammas(args, (0.0, 5e-3)), args.omega_star)
    if cmd == "transmission":
        lo, hi, n = args.epsilon_range
        eps = np.linspace(lo, hi, n)
        return sweep.run_transmission(
            width, eps, _gammas(args, (0.0,)), args.omega_star,
            tol=args.tol)
    if cmd == "traversal":
        lo, hi, n = args.tau_range
        return sweep.run_distribution(
            width, args.epsilon, lo, hi, n, _gammas(args, (0.0, 5e-3)),
            args.omega_star)
    if cmd == "cumulative":
        lo, hi, n = args.tau_range
        taus = np.linspace(lo, hi, n)
        return sweep.run_cumulative(
            width, args.epsilon, taus, _gammas(args, (0.0, 5e-3)),
            args.omega_star)
    if cmd == "resonances":
        return sweep.run_resonances(width, args.count)
    raise AssertionError(cmd)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _run(args)
    except QBarrierError as exc:
        print(f"qbarrier: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        text = sweep.format_json(result, timestamp=not args.no_timestamp)
    else:
        text = sweep.format_csv(result, timestamp=not args.no_timestamp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if result.failures:
        print(f"qbarrier: {result.failures} cell(s) failed and are "
              "written as nan", file=sys.stderr)
        for label, exc in result.reasons.items():
            print(f"qbarrier: {label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

``qbarrier figure3|figure4|figure5`` reproduce the three canonical
sweeps with their preset grids (figure3 and figure5 are ``transmission``
and ``cumulative`` with the paper's defaults); ``transmission``,
``traversal``, ``cumulative``, and ``resonances`` expose the same runners
with free parameters.  Output is CSV or JSON to stdout or a file.

Exit codes: 0 clean, 2 bad usage (including an option the subcommand does
not take, a nonpositive width, energy or bath cutoff, a negative time, an
infinite range end, a count below 1, or an unwritable ``--out`` path), 3
numerical failure, a negative damping rate among them, or one whose kernel
is not finite (partial output is still written with failed cells as nan, and
stderr gets their count and, for each failed column, the first exception).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import sweep
from .errors import QBarrierError


def _checked(kind, ok, need):
    """The argparse type that reads ``kind(text)`` and rejects the value
    unless ``ok`` holds for it (nan fails every comparison)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text!r}")
        return value
    return parse


def _triple(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected LO:HI:N")
    return float(parts[0]), float(parts[1]), int(parts[2])


_positive = _checked(float, lambda v: 0.0 < v < math.inf,
                     "must be positive and finite")
_tol = _checked(float, lambda v: 0.0 < v <= 1e-3,
                "tolerance must be in (0, 1e-3]")
_at_least_one = _checked(int, lambda v: v >= 1,
                         "must be an integer of at least 1")
_epsilon_range = _checked(
    _triple, lambda r: 0.0 < r[0] < r[1] < math.inf and r[2] >= 2,
    "need energies 0 < lo < hi < inf and n >= 2 in LO:HI:N")
_tau_range = _checked(
    _triple, lambda r: 0.0 <= r[0] < r[1] < math.inf and r[2] >= 2,
    "need times 0 <= lo < hi < inf and n >= 2 in LO:HI:N")


def _add_common(sub: argparse.ArgumentParser, *, gammas=(0.0, 5e-3)):
    """Options every subcommand takes, and the damping options with their
    default rates unless ``gammas`` is None."""
    sub.add_argument("--d-over-lambda0", type=_positive, default=5.0,
                     metavar="D", help="barrier width in lambda0 = "
                     "hbar/sqrt(2 m V0), the barrier-top wavelength over "
                     "2 pi (default %(default)s)")
    if gammas is not None:
        sub.set_defaults(gammas=gammas)
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

    sub = subs.add_parser("figure3",
                          help="transmission vs energy, preset grid")
    _add_common(sub, gammas=(0.0, 1e-3, 5e-3))
    _add_solver(sub)
    sub.set_defaults(command="transmission", epsilon_range=(0.05, 5.0, 256))
    sub = subs.add_parser("figure4", help="mean traversal deviation vs energy")
    _add_common(sub, gammas=None)
    sub = subs.add_parser("figure5", help="cumulative amplitude vs time")
    _add_common(sub)
    sub.set_defaults(command="cumulative", epsilon=1.3,
                     tau_range=(0.0, 30.0, 301))

    sub = subs.add_parser("transmission",
                          help="transmission probability on a free grid")
    _add_common(sub, gammas=(0.0,))
    _add_solver(sub)
    sub.add_argument("--epsilon-range", type=_epsilon_range, required=True,
                     metavar="LO:HI:N")

    for name, text in (
            ("traversal", "traversal-time distribution magnitude"),
            ("cumulative", "cumulative traversal amplitude magnitude")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.add_argument("--epsilon", type=_positive, default=1.3)
        sub.add_argument("--tau-range", type=_tau_range,
                         default=(0.0, 30.0, 301), metavar="LO:HI:N")

    sub = subs.add_parser("resonances",
                          help="resonance energies and mean traversal "
                          "times")
    _add_common(sub, gammas=None)
    sub.add_argument("--count", type=_at_least_one, default=4)

    return parser


def _run(args) -> sweep.SweepResult:
    width = args.d_over_lambda0
    cmd = args.command
    if cmd == "figure4":
        eps = np.linspace(1.01, 5.0, 257)[1:]
        return sweep.run_mean_deviation(width, eps)
    if cmd == "resonances":
        return sweep.run_resonances(width, args.count)
    gammas = args.gamma_star or args.gammas
    if cmd == "transmission":
        lo, hi, n = args.epsilon_range
        eps = np.linspace(lo, hi, n)
        return sweep.run_transmission(
            width, eps, gammas, args.omega_star, tol=args.tol)
    if cmd == "traversal":
        lo, hi, n = args.tau_range
        return sweep.run_distribution(
            width, args.epsilon, lo, hi, n, gammas, args.omega_star)
    if cmd == "cumulative":
        lo, hi, n = args.tau_range
        taus = np.linspace(lo, hi, n)
        return sweep.run_cumulative(
            width, args.epsilon, taus, gammas, args.omega_star)
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qbarrier: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
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

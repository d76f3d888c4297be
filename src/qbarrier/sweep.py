"""Parameter sweeps and their serialization.

Runners assemble one table per request: a single axis column (energy,
time, or resonance index) plus one series per damping rate, with the
clean ``g0`` baseline always present where it makes sense.  Complex
quantities are emitted as magnitudes; that keeps the column schema flat
and matches how the curves are plotted.  Failed points are recorded as
NaN cells and counted, never silently dropped, and the first exception
of each failed column is kept, so a caller can emit the partial table and
still say what failed and why.

Every sweep runs serially, point by point in input order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .barrier import transmission_prob
from .damped import amplitude_w_D
from .errors import DomainError, QBarrierError
from .kernel import DampingKernel
from .traversal import (SpectralGrid, cumulative_amplitude, distribution_F,
                        distribution_F_D, mean_traversal_closed,
                        mean_traversal_derivative)
from .units import classical_crossing_time, resonance_energies

_SCHEMA = 1


def gamma_label(gamma: float) -> str:
    return f"g{gamma:g}"


@dataclass
class SweepResult:
    """One finished sweep: axis, named series, parameters, diagnostics."""

    quantity: str
    axis_name: str
    axis: np.ndarray
    columns: list
    table: np.ndarray
    params: dict
    errors: dict = field(default_factory=dict)
    failures: int = 0
    reasons: dict = field(default_factory=dict)  # label -> first exception


def _with_baseline(gammas) -> list:
    out = []
    for g in gammas:
        if not g >= 0.0:
            raise DomainError(f"damping rates must be nonnegative, got {g!r}")
        if g not in out:
            out.append(float(g))
    if 0.0 not in out:
        out.insert(0, 0.0)
    return sorted(out)


def run_transmission(width: float, epsilons: np.ndarray, gammas, cutoff: float,
                     *, tol: float = 1e-6) -> SweepResult:
    """Transmission probability curves, one series per damping rate."""
    gammas = _with_baseline(gammas)
    eps = np.asarray(epsilons, dtype=float)
    table = np.empty((eps.size, len(gammas)))
    errors, reasons = {}, {}
    failures = 0
    for col, g in enumerate(gammas):
        label = gamma_label(g)
        if g == 0.0:
            table[:, col] = transmission_prob(eps, width)
            errors[label] = [0.0] * eps.size
            continue
        kernel = DampingKernel(g, cutoff)
        errs = errors[label] = []
        for i, e in enumerate(eps):
            try:
                res = amplitude_w_D(e, width, kernel, tol=tol)
                table[i, col] = abs(res.value) ** 2
                errs.append(2.0 * abs(res.value) * res.error_estimate)
            except QBarrierError as exc:
                table[i, col] = math.nan
                errs.append(math.nan)
                failures += 1
                reasons.setdefault(label, exc)
    params = dict(width=width, cutoff=cutoff, tol=tol,
                  gammas=gammas, n_points=eps.size)
    return SweepResult("transmission", "epsilon", eps,
                       [gamma_label(g) for g in gammas], table, params,
                       errors, failures, reasons)


def run_mean_deviation(width: float, epsilons: np.ndarray) -> SweepResult:
    """Deviation of the mean traversal magnitude from the classical
    crossing time, in tau_star units.  The derivative route rides along
    as a per-point error estimate."""
    eps = np.asarray(epsilons, dtype=float)
    table = np.empty((eps.size, 1))
    errs = []
    failures = 0
    reasons = {}
    for i, e in enumerate(eps):
        try:
            closed = mean_traversal_closed(float(e), width)
            table[i, 0] = abs(closed) - classical_crossing_time(float(e))
            errs.append(abs(closed - mean_traversal_derivative(float(e), width)))
        except QBarrierError as exc:
            table[i, 0] = math.nan
            errs.append(math.nan)
            failures += 1
            reasons.setdefault("g0", exc)
    params = dict(width=width, n_points=eps.size)
    return SweepResult("mean_tau_deviation", "epsilon", eps, ["g0"],
                       table, params, {"g0": errs}, failures, reasons)


def run_cumulative(width: float, epsilon: float, taus: np.ndarray, gammas,
                   cutoff: float) -> SweepResult:
    """Magnitude of the cumulative traversal amplitude on a time grid."""
    gammas = _with_baseline(gammas)
    taus = np.asarray(taus, dtype=float)
    table = np.empty((taus.size, len(gammas)))
    failures = 0
    reasons = {}
    for col, g in enumerate(gammas):
        kernel = DampingKernel(g, cutoff)
        try:
            res = cumulative_amplitude(epsilon, width, kernel, taus)
            table[:, col] = np.abs(res.values)
        except QBarrierError as exc:
            table[:, col] = math.nan
            failures += taus.size
            reasons[gamma_label(g)] = exc
    params = dict(width=width, epsilon=epsilon, cutoff=cutoff, gammas=gammas,
                  n_points=taus.size)
    return SweepResult("cumulative", "tau_star", taus,
                       [gamma_label(g) for g in gammas], table, params,
                       failures=failures, reasons=reasons)


def run_distribution(width: float, epsilon: float, tau_lo: float,
                     tau_hi: float, target_rows: int, gammas,
                     cutoff: float) -> SweepResult:
    """Magnitude of the traversal distribution on its native transform
    grid, clipped to [tau_lo, tau_hi] and strided down to roughly
    ``target_rows`` rows."""
    if not 0.0 <= tau_lo < tau_hi:
        raise DomainError("need 0 <= tau_lo < tau_hi")
    gammas = _with_baseline(gammas)
    grid = SpectralGrid()
    base = distribution_F(epsilon, width, grid=grid)
    times = base.positive_times
    keep = (times >= tau_lo) & (times <= tau_hi)
    idx = np.flatnonzero(keep)
    stride = max(1, int(round(idx.size / max(target_rows, 2))))
    idx = idx[::stride]
    table = np.empty((idx.size, len(gammas)))
    failures = 0
    reasons = {}
    for col, g in enumerate(gammas):
        try:
            if g == 0.0:
                dist = base
            else:
                dist = distribution_F_D(
                    epsilon, width, DampingKernel(g, cutoff), grid=grid)
            table[:, col] = np.abs(dist.positive_values[idx])
        except QBarrierError as exc:
            table[:, col] = math.nan
            failures += idx.size
            reasons[gamma_label(g)] = exc
    params = dict(width=width, epsilon=epsilon, cutoff=cutoff, gammas=gammas,
                  window=grid.window, period=grid.period)
    return SweepResult("distribution", "tau_star", times[idx],
                       [gamma_label(g) for g in gammas], table, params,
                       failures=failures, reasons=reasons)


def run_resonances(width: float, count: int) -> SweepResult:
    """Resonance table: energy, phase check, mean traversal, classical
    time, and the transmission probability (should be exactly 1)."""
    eps = resonance_energies(width, count)
    table = np.empty((eps.size, 4))
    for i, e in enumerate(eps):
        kd = math.sqrt(e - 1.0) * width / math.pi
        mean = mean_traversal_closed(float(e), width)
        table[i, 0] = kd
        table[i, 1] = mean.real
        table[i, 2] = classical_crossing_time(float(e))
        table[i, 3] = transmission_prob(float(e), width)
    params = dict(width=width, count=count)
    return SweepResult("resonances", "epsilon", eps,
                       ["kd_over_pi", "mean_tau_star", "tau_cl_star",
                        "transmission"], table, params)


# -- serialization ---------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def format_csv(result: SweepResult, *, timestamp: bool = True) -> str:
    lines = [f"# qbarrier {result.quantity} sweep", f"# schema={_SCHEMA}",
             f"# version={__version__}"]
    for key in sorted(result.params):
        lines.append(f"# {key}={result.params[key]!r}")
    for label in sorted(result.errors):
        finite = [e for e in result.errors[label] if not math.isnan(e)]
        worst = max(finite) if finite else math.nan
        lines.append(f"# max_error_{label}={_fmt(worst)}")
    if result.failures:
        lines.append(f"# failures={result.failures}")
    if timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join([result.axis_name] + list(result.columns)))
    for i in range(result.axis.size):
        cells = [_fmt(result.axis[i])] + [
            _fmt(result.table[i, j]) for j in range(result.table.shape[1])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_json(result: SweepResult, *, timestamp: bool = True) -> str:
    def clean(x: float):
        return None if math.isnan(x) else x

    params = dict(result.params)
    params["schema"] = _SCHEMA
    params["quantity"] = result.quantity
    if timestamp:
        params["generated"] = datetime.now(timezone.utc).isoformat()
    payload = {
        "params": params,
        "columns": [result.axis_name] + list(result.columns),
        "rows": [
            [clean(float(result.axis[i]))]
            + [clean(float(result.table[i, j]))
               for j in range(result.table.shape[1])]
            for i in range(result.axis.size)
        ],
        "error_estimates": {
            label: [clean(float(e)) for e in errs]
            for label, errs in sorted(result.errors.items())
        },
        "version": __version__,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

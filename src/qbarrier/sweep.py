"""Parameter sweeps and their serialization.

Runners assemble one table per request: a single axis column (energy,
time, or resonance index) plus one series per damping rate, with the
clean ``g0`` baseline always present where it makes sense.  Complex
quantities are emitted as magnitudes; that keeps the column schema flat
and matches how the curves are plotted.  Failed points are recorded as
NaN cells, never silently dropped, under one policy kept by ``_cell``: a
cell (a whole column of a time-grid sweep) whose computation raises a
package error is written as NaN, error estimate included, and the first
exception of each failed column is kept; any other exception propagates.
``SweepResult.failures`` counts the NaN cells, so a caller can emit the
partial table and still say what failed and why.

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
    reasons: dict = field(default_factory=dict)  # label -> first exception
    # label -> damped cells whose w_D error is at least |w_D|, if any
    low_significance: dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Failed cells, i.e. the NaN cells of the table."""
        return int(np.count_nonzero(np.isnan(self.table)))


def _with_baseline(gammas) -> list:
    out = {0.0}  # in first, so a -0.0 rate repeats the +0.0 baseline
    for g in gammas:
        if not g >= 0.0:
            raise DomainError(f"damping rates must be nonnegative, got {g!r}")
        out.add(float(g))
    return sorted(out)


def _cell(cells, index, reasons, label, compute) -> None:
    """Store ``compute()`` at ``cells[index]``, a cell or a column.  On a
    package error store nan there instead and keep the first exception of
    column ``label``; any other exception propagates."""
    try:
        cells[index] = compute()
    except QBarrierError as exc:
        cells[index] = math.nan
        reasons.setdefault(label, exc)


def run_transmission(width: float, epsilons: np.ndarray, gammas, cutoff: float,
                     *, tol: float = 1e-6) -> SweepResult:
    """Transmission probability curves, one series per damping rate."""
    gammas = _with_baseline(gammas)
    labels = [gamma_label(g) for g in gammas]
    eps = np.asarray(epsilons, dtype=float)
    # (|w_D|^2, its error, 1 where w_D's error is at least |w_D|)
    cells = np.zeros((eps.size, len(gammas), 3))
    reasons = {}
    for col, g in enumerate(gammas):
        if g == 0.0:
            cells[:, col, 0] = transmission_prob(eps, width)
            continue
        kernel = DampingKernel(g, cutoff)
        for i, e in enumerate(eps):
            _cell(cells, (i, col), reasons, labels[col],
                  lambda: _probability(amplitude_w_D(e, width, kernel,
                                                     tol=tol)))
    params = dict(width=width, cutoff=cutoff, tol=tol,
                  gammas=gammas, n_points=eps.size)
    low = np.count_nonzero(cells[..., 2] == 1.0, axis=0).tolist()
    return SweepResult("transmission", "epsilon", eps, labels, cells[..., 0],
                       params, dict(zip(labels, cells[..., 1].T.tolist())),
                       reasons, {k: n for k, n in zip(labels, low) if n})


def _probability(res) -> tuple:
    size = abs(res.value)
    return (size ** 2, 2.0 * size * res.error_estimate,
            float(res.error_estimate >= size))


def run_mean_deviation(width: float, epsilons: np.ndarray) -> SweepResult:
    """Deviation of the mean traversal magnitude from the classical
    crossing time, in tau_star units.  The derivative route rides along
    as a per-point error estimate."""
    eps = np.asarray(epsilons, dtype=float)
    cells = np.empty((eps.size, 2))  # (deviation, gap between the routes)
    reasons = {}
    for i, e in enumerate(eps):
        _cell(cells, i, reasons, "g0", lambda: _deviation(float(e), width))
    params = dict(width=width, n_points=eps.size)
    return SweepResult("mean_tau_deviation", "epsilon", eps, ["g0"],
                       cells[:, :1], params, {"g0": cells[:, 1].tolist()},
                       reasons)


def _deviation(epsilon: float, width: float) -> tuple:
    closed = mean_traversal_closed(epsilon, width)
    return (abs(closed) - classical_crossing_time(epsilon),
            abs(closed - mean_traversal_derivative(epsilon, width)))


def run_cumulative(width: float, epsilon: float, taus: np.ndarray, gammas,
                   cutoff: float) -> SweepResult:
    """Magnitude of the cumulative traversal amplitude on a time grid.

    Every column sits on one omega grid, so the columns share bare samples
    and trig tables through ``shared``, emptied on return.  The damped
    columns run first, so the clean one finds their samples and the first
    damped sweep holds no trig table; a later damped sweep holds the one
    its predecessor left."""
    gammas = _with_baseline(gammas)
    labels = [gamma_label(g) for g in gammas]
    taus = np.asarray(taus, dtype=float)
    table = np.empty((taus.size, len(gammas)))
    reasons, shared = {}, {}
    for col in [*range(1, len(gammas)), 0]:
        kernel = DampingKernel(gammas[col], cutoff)
        _cell(table, np.s_[:, col], reasons, labels[col],
              lambda: np.abs(cumulative_amplitude(
                  epsilon, width, kernel, taus, shared=shared).values))
    shared.clear()
    params = dict(width=width, epsilon=epsilon, cutoff=cutoff, gammas=gammas,
                  n_points=taus.size)
    return SweepResult("cumulative", "tau_star", taus, labels, table, params,
                       reasons={k: reasons[k] for k in labels if k in reasons})


def run_distribution(width: float, epsilon: float, tau_lo: float,
                     tau_hi: float, target_rows: int, gammas,
                     cutoff: float) -> SweepResult:
    """Magnitude of the traversal distribution on its native transform
    grid, clipped to [tau_lo, tau_hi] and strided down to roughly
    ``target_rows`` rows.  Rows stop at T_p / 2, the grid's last positive
    time (48 on the default grid); a range holding no grid time raises
    DomainError."""
    if not 0.0 <= tau_lo < tau_hi:
        raise DomainError("need 0 <= tau_lo < tau_hi")
    gammas = _with_baseline(gammas)
    grid = SpectralGrid()
    base = distribution_F(epsilon, width, grid=grid)
    times = base.positive_times
    keep = (times >= tau_lo) & (times <= tau_hi)
    idx = np.flatnonzero(keep)
    if not idx.size:
        raise DomainError(f"no time of the distribution grid (step "
                          f"{grid.time_step:g}, last positive time "
                          f"{times[-1]:g}) lies in [{tau_lo:g}, {tau_hi:g}]")
    stride = max(1, int(round(idx.size / max(target_rows, 2))))
    idx = idx[::stride]
    table = np.empty((idx.size, len(gammas)))
    reasons = {}
    for col, g in enumerate(gammas):
        def column():
            dist = base if g == 0.0 else distribution_F_D(
                epsilon, width, DampingKernel(g, cutoff), grid=grid, base=base)
            return np.abs(dist.positive_values[idx])
        _cell(table, np.s_[:, col], reasons, gamma_label(g), column)
    params = dict(width=width, epsilon=epsilon, cutoff=cutoff, gammas=gammas,
                  window=grid.window, period=grid.period)
    return SweepResult("distribution", "tau_star", times[idx],
                       [gamma_label(g) for g in gammas], table, params,
                       reasons=reasons)


def run_resonances(width: float, count: int) -> SweepResult:
    """Resonance table: energy, phase check, mean traversal, classical
    time, and the transmission probability (should be exactly 1)."""
    eps = resonance_energies(width, count)
    table = np.empty((eps.size, 4))
    reasons = {}
    for i, e in enumerate(eps):
        table[i, 0] = math.sqrt(e - 1.0) * width / math.pi
        _cell(table, (i, 1), reasons, "mean_tau_star",
              lambda: mean_traversal_closed(float(e), width).real)
        table[i, 2] = classical_crossing_time(float(e))
        table[i, 3] = transmission_prob(float(e), width)
    params = dict(width=width, count=count)
    return SweepResult("resonances", "epsilon", eps,
                       ["kd_over_pi", "mean_tau_star", "tau_cl_star",
                        "transmission"], table, params, reasons=reasons)


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
    for label in sorted(result.low_significance):
        lines.append(f"# low_significance_{label}="
                     f"{result.low_significance[label]}")
    if result.failures:
        lines.append(f"# failures={result.failures}")
    if timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join([result.axis_name] + list(result.columns)))
    lines += [",".join(map(_fmt, row)) for row in _rows(result)]
    return "\n".join(lines) + "\n"


def _rows(result: SweepResult) -> list:
    """Axis and table as rows of Python floats."""
    return np.column_stack([result.axis, result.table]).tolist()


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
        "rows": [[clean(x) for x in row] for row in _rows(result)],
        "error_estimates": {
            label: [clean(float(e)) for e in errs]
            for label, errs in sorted(result.errors.items())
        },
        "version": __version__,
    }
    if result.low_significance:
        payload["low_significance"] = dict(result.low_significance)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

"""Deterministic adaptive quadrature on Gauss-Kronrod 7/15 panels.

The integrator is deliberately self-contained: a fixed 15 point Kronrod
rule per panel, a worst-first refinement heap with a stable tie-break, and
an explicit truncation bound for semi-infinite ranges.  Identical inputs
produce identical panel sequences, so results are reproducible bit for bit
across runs, which matters for the regression data shipped with the tests.

Integrands must accept a numpy array of abscissae and return an array of
values (real or complex) of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError

# 7/15 Gauss-Kronrod abscissae and weights on [-1, 1].  Even indices are
# the Kronrod-only points; odd indices plus the center form the embedded
# 7 point Gauss rule.
_XGK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WGK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

# All 15 nodes of a panel in ascending order, as offsets from the center
# in units of the half width.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
# Gauss weights aligned with the same 15 slots (zero on Kronrod-only nodes).
_W7 = np.zeros(15)
_W7[1:7:2] = _WG[:3]
_W7[7] = _WG[3]
_W7[9:15:2] = _WG[2::-1]


@dataclass(frozen=True)
class QuadratureResult:
    """Value and certified diagnostics of one adaptive integration."""

    value: complex
    error_estimate: float
    panels_used: int
    tail_bound: float = 0.0


def _eval_panel(fn, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    x = center + half * _NODES
    y = np.asarray(fn(x))
    if y.shape != x.shape:
        raise DomainError("integrand must return one value per abscissa")
    if not np.all(np.isfinite(y)):
        raise DomainError(
            f"integrand returned non-finite values on [{lo!r}, {hi!r}]"
        )
    k15 = half * np.sum(_W15 * y)
    g7 = half * np.sum(_W7 * y)
    return complex(k15), abs(k15 - g7)


def _truncation_cutoff(fn, lo: float, rate: float, tol: float):
    """Pick a finite cutoff W for an integral to +infinity.

    ``rate`` declares the decay law of the integrand, an envelope
    ~ C*exp(-rate*x).  The constant C is measured from samples near the
    candidate cutoff, and the cutoff doubles until the implied remainder
    drops below tol.  Returns (cutoff, bound).
    """
    rate = float(rate)
    if not rate > 0.0:
        raise DomainError(f"tail needs a positive decay rate, got {rate!r}")
    w = lo + max(30.0 / rate, 1.0)

    for _ in range(200):
        xs = w * np.array([0.8, 0.9, 1.0]) if lo >= 0 else np.array(
            [w - 2.0, w - 1.0, w])
        xs = np.maximum(xs, lo + 1e-12 * max(1.0, abs(lo)))
        ys = np.abs(np.asarray(fn(xs)))
        c = float(np.max(ys * np.exp(rate * (xs - w))))
        bound = c / rate
        if bound <= tol or c == 0.0:
            return w, bound
        w *= 2.0
    raise NonConvergenceError(
        "could not certify a truncation cutoff for the tail")


def integrate_adaptive(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    *,
    tail_rate: float | None = None,
    breakpoints: Sequence[float] = (),
    max_panel_width: float | None = None,
    panel_budget: int = 4096,
) -> QuadratureResult:
    """Integrate ``fn`` over [lo, hi] to absolute tolerance ``tol``.

    ``hi`` may be ``math.inf`` if ``tail_rate`` declares the decay rate
    of the integrand's exponential envelope; the range is then truncated
    at a cutoff whose certified remainder is part of the returned
    ``tail_bound``.  ``breakpoints`` seed the initial
    subdivision (known scales, kinks, phase marks) and
    ``max_panel_width`` caps the width of the seed panels, which is the
    cheap way to keep oscillatory integrands resolved from the start.

    Raises NonConvergenceError, carrying the best estimate, if the error
    target is still missed once the panel budget is spent.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if not math.isfinite(lo):
        raise DomainError("lower limit must be finite")
    if math.isinf(hi):
        if tail_rate is None:
            raise DomainError("semi-infinite range needs a tail decay rate")
        hi_eff, tail_bound = _truncation_cutoff(fn, lo, tail_rate, 0.25 * tol)
    else:
        if hi < lo:
            raise DomainError("integration limits out of order")
        hi_eff, tail_bound = hi, 0.0
    if hi_eff == lo:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, tail_bound)

    edges = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi_eff:
            edges.append(b)
    edges.append(hi_eff)

    seeds = []
    for a, b in zip(edges[:-1], edges[1:]):
        if max_panel_width is not None and b - a > max_panel_width:
            parts = int(math.ceil((b - a) / max_panel_width))
        else:
            parts = 1
        step = (b - a) / parts
        seeds.extend((a + i * step, a + (i + 1) * step) for i in range(parts))

    quad_tol = max(tol - tail_bound, 0.5 * tol)
    heap = []
    counter = 0
    total = 0.0 + 0.0j
    total_err = 0.0
    panels = 0
    for a, b in seeds:
        val, err = _eval_panel(fn, a, b)
        panels += 1
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    while total_err > quad_tol and panels + 2 <= panel_budget:
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval at floating point resolution, put it back and stop
            heapq.heappush(heap, (neg_err, counter, a, b, val))
            counter += 1
            break
        v1, e1 = _eval_panel(fn, a, mid)
        v2, e2 = _eval_panel(fn, mid, b)
        panels += 2
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1

    # compensated final re-sum over the surviving panels
    vals = [item[4] for item in heap]
    total = complex(
        math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
    total_err = math.fsum(-item[0] for item in heap)

    if total_err > quad_tol:
        raise NonConvergenceError(
            f"quadrature error {total_err:.3e} above tolerance after "
            f"{panels} panels",
            best_estimate=total,
            error_estimate=total_err + tail_bound,
        )
    return QuadratureResult(total, total_err, panels, tail_bound)

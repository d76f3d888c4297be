"""Deterministic adaptive quadrature on Gauss-Kronrod 7/15 panels.

The integrator is deliberately self-contained: a fixed 15 point Kronrod
rule per panel and a worst-first refinement heap with a stable
tie-break, on finite ranges only.  Identical inputs produce identical
panel sequences, so results are reproducible bit for bit across runs,
which matters for the regression data shipped with the tests.

Integrands must accept a (P, 15) numpy array of panel nodes, one row
per panel, and return an array of values (real or complex) of the same
shape.
"""

from __future__ import annotations

import heapq
import itertools
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

# panels one integration may evaluate before it gives up
_PANEL_BUDGET = 8192


@dataclass(frozen=True)
class QuadratureResult:
    """Value and certified diagnostics of one adaptive integration."""

    value: complex
    error_estimate: float
    panels_used: int


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray):
    """K15 values and |K15 - G7| errors of panels [lo_i, hi_i], one fn call."""
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    x = center[:, None] + half[:, None] * _NODES
    y = np.asarray(fn(x))
    if y.shape != x.shape:
        raise DomainError("integrand must return one value per abscissa")
    if not np.all(np.isfinite(y)):
        i = int(np.argmin(np.all(np.isfinite(y), axis=1)))
        raise DomainError("integrand returned non-finite values on "
                          f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    k15 = half * np.sum(_W15 * y, axis=1)
    g7 = half * np.sum(_W7 * y, axis=1)
    # numpy-scalar abs per panel: the array ufunc may round differently
    return list(map(complex, k15)), [abs(d) for d in k15 - g7]


def integrate_adaptive(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    *,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``fn`` over finite [lo, hi] to absolute tolerance ``tol``.

    ``breakpoints`` inside the range seed the initial subdivision (known
    scales, kinks, phase marks), one seed panel per piece.  Seed panels
    reach ``fn`` in one (P, 15) call, bisections as (2, 15).

    Raises DomainError for infinite or nan limits or width, and
    NonConvergenceError, carrying the best estimate and its error, once
    ``_PANEL_BUDGET`` panels miss the target.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    # false for a nan or infinite limit, lo > hi, or an overflowing width
    if not 0.0 <= hi - lo < math.inf:
        raise DomainError(f"need finite lo <= hi, got [{lo!r}, {hi!r}]")
    if hi == lo:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)

    inner = sorted(b for b in set(map(float, breakpoints)) if lo < b < hi)
    edges = [lo, *inner, hi]
    # a + (b - a) is not always b in floating point; the seed layout, and
    # so every panel tree and pinned value built on it, keeps that sum
    seeds = [(a, a + (b - a)) for a, b in zip(edges[:-1], edges[1:])]
    vals, errs = _eval_panels(fn, *np.array(seeds).T)
    # keys (-err, serial) are unique, so the pop order does not depend on
    # how the heap was built
    heap = [(-err, i, a, b, val)
            for i, ((a, b), val, err) in enumerate(zip(seeds, vals, errs))]
    heapq.heapify(heap)
    serial = itertools.count(len(heap))
    panels = len(heap)
    total_err = 0.0
    for err in errs:
        total_err += err

    while total_err > tol and panels + 2 <= _PANEL_BUDGET:
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval at floating point resolution, put it back and stop
            heapq.heappush(heap, (neg_err, next(serial), a, b, val))
            break
        (v1, v2), (e1, e2) = _eval_panels(
            fn, np.array([a, mid]), np.array([mid, b]))
        panels += 2
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, next(serial), a, mid, v1))
        heapq.heappush(heap, (-e2, next(serial), mid, b, v2))

    # compensated final re-sum over the surviving panels
    vals = [item[4] for item in heap]
    total = complex(
        math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
    total_err = math.fsum(-item[0] for item in heap)

    if total_err > tol:
        raise NonConvergenceError(
            f"quadrature error {total_err:.3e} above tolerance after "
            f"{panels} panels",
            best_estimate=total,
            error_estimate=total_err,
        )
    return QuadratureResult(total, total_err, panels)

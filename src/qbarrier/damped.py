r"""Transmission amplitude with environmental suppression.

The suppressed amplitude is the spectral average of the bare amplitude
over the transform of the kernel weight,

    w_D = (1/2 pi) \int dw  w(E, V0 - hbar w) gtilde(w),

with ``gtilde`` from :meth:`qbarrier.kernel.DampingKernel.sqrt_f_spectrum`.
A naive cutoff of this integral cannot be certified at useful accuracy:
``gtilde`` falls off only like ``1/(i w)`` because ``sqrt(f(0)) = 1``, so
the remainder outside a window shrinks slower than any practical budget
allows (the oscillatory decay of the bare amplitude helps the value but
not a rigorous bound).

Instead the kernel spectrum is split against a small ladder of decaying
exponentials ``sum_j a_j e^{-s_j t}`` whose first ``m`` derivatives at
t = 0 match those of ``sqrt(f)``:

* the ladder part integrates in closed form; each term closes in the
  upper half plane around the simple pole at ``w = i s_j`` and leaves one
  bare-amplitude evaluation at a complex height,
* the residual spectrum then decays like ``w**-(m+1)``, so a modest
  cutoff certifies the remaining real-axis integral.

With m = 4 the residual envelope is ``|Delta_4| / w^5`` where
``Delta_4`` measures the fourth-derivative mismatch; both the analytic
envelope and an empirical sample at the window edge feed the reported
error bound.  The clean limit gamma = 0 short-circuits to the bare
amplitude exactly.

A weak table per kernel, shared by equal kernels, keeps the ladder, each
tol's window and the residual interpolant both damped routes read:
``_CHEB_POINTS`` second-kind Chebyshev points on each panel [0, s0],
[s0, 2 s0], ..., up to the one holding 40 sigma, each its own spectrum
call, within 1.8e-15 |gtilde| of a direct call.  From 40 sigma on, where
the spectrum is its large-omega series, the residual is a direct call
(weak damping: 8 panels, not 21).  w_D's error carries that share.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .barrier import (amplitude_w, amplitude_w_complex_height,
                      check_height_shift)
from .errors import DegenerateKernelError, DomainError, NonConvergenceError
from .kernel import _SERIES_SIGMAS, DampingKernel, _real
from .quadrature import integrate_adaptive

_LADDER_ORDER = 4
# heights per bare-amplitude call of the height sweep, which bounds its
# working set; no result depends on it
_SWEEP_BLOCK = 1 << 13
# second-kind Chebyshev points per panel of the residual interpolant
_CHEB_POINTS = 32
_BARY = (-1.0) ** np.arange(_CHEB_POINTS)  # their barycentric weights
_BARY[[0, -1]] *= 0.5
# per kernel: [ladder, (cutoff, tail) by tol, panel nodes, panel values]
_RESIDUAL_TABLES = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SubtractionLadder:
    """Exponential model of sqrt(f) matching its short-time derivatives."""

    rates: np.ndarray
    weights: np.ndarray
    mismatch: float  # of the first unmatched derivative, the residual scale

    def spectrum(self, omega) -> np.ndarray:
        """Transform of the ladder, ``sum_j a_j / (s_j + i omega)``."""
        terms = self.weights / (self.rates + 1j * np.asarray(omega)[..., None])
        # from +0 in rate order, as a loop over the rungs adds them
        return sum(terms.T, 0j).T


def subtraction_ladder(kernel: DampingKernel) -> SubtractionLadder:
    """Build the ladder for ``kernel``; rates are octaves of the slowest
    decay rate of sqrt(f), which keeps the small linear system well
    conditioned down to weak damping."""
    if kernel.gamma == 0.0:
        raise DegenerateKernelError("clean limit needs no subtraction ladder")
    rates = kernel.decay_gap * 2.0 ** np.arange(_LADDER_ORDER)
    taylor = kernel.taylor_sqrt_f(_LADDER_ORDER)
    vand = (-rates[None, :]) ** np.arange(_LADDER_ORDER)[:, None]
    try:
        weights = np.linalg.solve(vand, taylor[:_LADDER_ORDER])
    except np.linalg.LinAlgError as exc:  # its powers of the rates underflow
        raise DegenerateKernelError(f"no subtraction ladder for decay gap "
                                    f"{kernel.decay_gap:.3e}: {exc}") from exc
    model = float(np.sum(weights * (-rates) ** _LADDER_ORDER).real)
    return SubtractionLadder(rates, weights,
                             abs(float(taylor[_LADDER_ORDER]) - model))


def _table(kernel: DampingKernel) -> list:
    """The kernel's [ladder, windows, nodes, values], made on first use."""
    entry = _RESIDUAL_TABLES.get(kernel)
    if entry is None:
        empty = np.empty((0, _CHEB_POINTS))
        entry = _RESIDUAL_TABLES[kernel] = [subtraction_ladder(kernel), {},
                                            empty, empty]
    return entry


def residual_spectrum(kernel: DampingKernel, omega) -> np.ndarray:
    """Kernel spectrum less its ladder's, decaying like omega^-5; made at
    |omega| and conjugated for omega < 0, so -0 mirrors a cancelled +0."""
    flat = _real(omega, "spectral frequencies")
    x = np.abs(flat)
    out = np.asarray(kernel.sqrt_f_spectrum(x) - _table(kernel)[0].spectrum(x))
    return np.conjugate(out, out=out, where=flat < 0.0)[()]


def _residual(kernel: DampingKernel, omega) -> np.ndarray:
    """``residual_spectrum`` at real ``omega``, conjugated for omega < 0:
    ``_interpolated`` below ``_SERIES_SIGMAS`` sigma, then a direct call."""
    entry, flat = _table(kernel), np.asarray(omega, dtype=float).ravel()
    x, out = np.abs(flat), np.empty(flat.shape, dtype=complex)
    far = x >= _SERIES_SIGMAS * kernel.sigma
    with np.errstate(all="ignore"):
        if not far.all():
            out[~far] = _interpolated(kernel, entry, x[~far])
        if far.any():
            out[far] = residual_spectrum(kernel, x[far])
    np.conjugate(out, out=out, where=flat < 0.0)
    return out.reshape(np.shape(omega))


def _interpolated(kernel: DampingKernel, entry: list, x: np.ndarray):
    """The residual at nonempty 0 <= x < 40 sigma on panels geometric about
    its nearest singularity, i s0; a node takes its value."""
    while not len(entry[2]) or entry[2][-1, -1] < x.max():
        hi = kernel.decay_gap * 2.0 ** len(entry[2])
        lo = 0.5 * hi if len(entry[2]) else 0.0
        nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(
            np.pi * np.arange(_CHEB_POINTS) / (_CHEB_POINTS - 1))
        nodes[0], nodes[-1] = lo, hi
        entry[2:] = (np.vstack([entry[2], nodes]),
                     np.vstack([entry[3], residual_spectrum(kernel, nodes)]))
    nodes, values = entry[2:]
    panel = np.searchsorted(nodes[:, 0], x, side="right") - 1
    out = np.empty(x.shape, dtype=complex)
    for i in range(0, x.size, 128):
        p = panel[i:i + 128]
        inv = _BARY / (x[i:i + 128, None] - nodes[p])
        out[i:i + 128] = np.einsum("kj,kj->k", inv, values[p]) / inv.sum(1)
    for i in np.flatnonzero(~np.isfinite(out)).tolist():
        out[i] = values[panel[i], np.argmin(np.abs(x[i] - nodes[panel[i]]))]
    return out


@dataclass(frozen=True)
class DampedAmplitude:
    """Suppressed amplitude with its certified error budget."""

    value: complex
    error_estimate: float
    cutoff: float
    panels_used: int
    bare: complex


def _phase_breakpoints(epsilon: float, width: float, start: float,
                       stop: float) -> list:
    """Marks spaced a quarter internal phase period apart, where the
    shifted-height amplitude oscillates in the spectral variable."""
    marks = []
    omega_osc = 0.5 * width * (1.0 - epsilon)  # internal phase turns real here
    lo = max(start, omega_osc)
    if lo >= stop:
        return marks
    theta = width * math.sqrt(max(epsilon - 1.0 + 2.0 * lo / width, 0.0))
    while len(marks) <= 4000:
        theta += 0.5 * math.pi
        try:
            om = 0.5 * width * ((theta / width) ** 2 - (epsilon - 1.0))
        except OverflowError:
            # past any window check_height_shift admits, like every later mark
            break
        if om >= stop:
            break
        marks.append(om)
    return marks


def amplitude_w_D(epsilon: float, width: float, kernel: DampingKernel, *,
                  tol: float = 1e-6) -> DampedAmplitude:
    """Suppressed amplitude at reduced energy ``epsilon``.

    ``tol`` is the absolute accuracy target for the amplitude and must lie
    in (0, 1e-3].  Raises NonConvergenceError with the best estimate
    attached if the certified budget misses it.
    """
    if not 0.0 < tol <= 1e-3:
        raise DomainError(f"tol must lie in (0, 1e-3], got {tol!r}")
    bare = amplitude_w(float(epsilon), width)
    width = float(width)
    if kernel.gamma == 0.0:
        return DampedAmplitude(bare, 0.0, 0.0, 0, bare)

    ladder, windows = _table(kernel)[:2]

    # grow the window until the omega^-5 envelope bounds the tail, per tol
    if tol not in windows:
        cutoff = max(32.0, 8.0 * float(ladder.rates[-1]))
        for _ in range(60):
            edges = cutoff * np.array([0.8, 0.9, 1.0])  # |g| is even in omega
            g_edges = residual_spectrum(kernel, edges)
            empirical = float(np.max(np.abs(g_edges) * np.abs(edges) ** 5))
            scale = max(ladder.mismatch, 2.0 * empirical)
            tail = scale / (4.0 * math.pi * cutoff ** 4)
            if tail <= 0.1 * tol:
                break
            cutoff *= 2.0
        else:
            raise NonConvergenceError(f"residual tail bound stuck at "
                                      f"{tail:.3e} for cutoff {cutoff:.3e}")
        windows[tol] = cutoff, tail
    cutoff, tail = windows[tol]
    # every height below, ladder poles included, lies within the window
    check_height_shift(width, cutoff)
    closed = complex(np.sum(ladder.weights * amplitude_w_complex_height(
        epsilon, width, np.array([1.0 - 2j * sj / width
                                  for sj in ladder.rates]))))

    # seed marks at +-gap 2^k: the ladder rates (k = 0 .. 3); six octaves
    # below s0, where the residual's cancellation structure lives as well;
    # and rungs out to the window, since the residual's shoulder spans a few
    # decades above the ladder rates and far panels are too wide to see it
    gap, marks, k = kernel.decay_gap, [], -6
    while k <= 3 or gap * 2.0 ** k < cutoff:
        marks += [-gap * 2.0 ** k, gap * 2.0 ** k]
        k += 1
    marks += _phase_breakpoints(epsilon, width, float(ladder.rates[-1]), cutoff)

    def integrand(om):
        return amplitude_w_complex_height(
            epsilon, width, 1.0 - (2.0 / width) * om) * _residual(kernel, om)

    interp = _interpolation_error(kernel, cutoff)
    try:
        quad = integrate_adaptive(
            integrand, -cutoff, cutoff, 0.85 * tol * 2.0 * math.pi,
            breakpoints=marks)
    except NonConvergenceError as exc:
        # on a finite range only the panel budget raises, with both values
        raise NonConvergenceError(
            f"spectral integral did not converge at epsilon {float(epsilon)}",
            best_estimate=closed + exc.best_estimate / (2.0 * math.pi),
            error_estimate=exc.error_estimate / (2.0 * math.pi) + tail + interp,
        ) from exc

    value = closed + quad.value / (2.0 * math.pi)
    # quadrature 0.85 tol, window 0.1 tol: only tol below ~3e-13 can miss
    error = quad.error_estimate / (2.0 * math.pi) + tail + interp
    if error > tol:
        raise NonConvergenceError(
            f"interpolation error {interp:.3e} leaves no room for tol {tol:g}",
            best_estimate=value, error_estimate=error)
    return DampedAmplitude(value, error, cutoff, quad.panels_used, bare)


def _interpolation_error(kernel: DampingKernel, cutoff: float) -> float:
    """w_D's error share from ``_residual``, |w| <= 1 times 2.5e-15 (1/2 pi)
    int |gtilde| over [-cutoff, cutoff], with |gtilde| <= min(g0, v/|omega|):
    g0 = 1/s0 + sigma/s0^2 >= int sqrt(f), as f <= (1 + 2 sigma t) e^{-2 s0 t},
    and v = 2 max sqrt(f) by parts, as sqrt(f) rises once from 1 and decays.
    It covers the series past 40 sigma, within 2.2e-16 |gtilde| of mpmath."""
    s0, sig = kernel.decay_gap, kernel.sigma
    g0 = 1.0 / s0 + sig / s0 ** 2
    v = 2.0 * math.sqrt(sig / s0 * math.exp(s0 / sig - 1.0))  # max f's bound
    return 2.5e-15 * v * (1.0 + math.log(max(cutoff * g0 / v, 1.0))) / math.pi


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, the length scipy.fft.next_fast_len
    picks: every odd 11-smooth m below the power of two at or above n,
    times the least power of two that lifts it to n."""
    best = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        for m in odd[:]:
            m *= p
            while m < best:
                odd.append(m)
                m *= p
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def amplitude_w_D_height_sweep(
    epsilon: float,
    width: float,
    kernel: DampingKernel,
    omega_grid: np.ndarray,
    *,
    shared: dict | None = None,
) -> np.ndarray:
    """Suppressed amplitude at heights shifted by ``-hbar * omega`` for
    ``omega_grid == h * np.arange(-n, n + 1)``, h > 0, n > 0, or DomainError.

    This is the vectorized workhorse behind cumulative traversal curves:
    the ladder part is a handful of closed evaluations per grid point and
    the residual part one FFT convolution of bare samples on
    ``h * np.arange(-n - m, n + m + 1)``, whose middle is the caller's
    grid bit for bit, against the kernel's residual interpolant out to the
    half-width ``W = m h`` where its ``mismatch / omega^5`` envelope leaves a
    tail below 1e-10, clamped to [40, 200] (figure5's kernel: 8 calls
    summing 235 nodes, not 8,951, then none).  Where the tail bound
    ``max(mismatch, 1e-4) / (4 pi W^4)`` exceeds 1e-5 |H0|, H0 the value at
    omega = 0, it raises NonConvergenceError with H0 and the bound.  Bare
    amplitudes go ``_SWEEP_BLOCK`` heights a call, so only the output, the
    FFT buffer and the residual transform span the grid, and no bit depends
    on the block.  In the clean limit the sweep degenerates to bare
    samples.  ``shared``, a dict a caller keeps for one table, holds the
    bare samples on the caller's grid, keyed by (epsilon, width, h, n):
    a damped sweep puts them there, and a clean sweep on the same grid
    returns them without evaluating a height.  It stays beside
    ``amplitude_w_D`` because a C_D curve needs 65,537 heights: about 40 s
    of certified points (0.6 ms each at gamma 5e-3), 0.03 s of sweep on a
    2-core machine, 0.016 s of it the ladder's off-axis heights.
    """
    om = np.asarray(omega_grid, dtype=float)
    n = (om.size - 1) // 2
    step = om.flat[n + 1] if n > 0 else 0.0
    if not (step > 0.0 and np.array_equal(om, step * np.arange(-n, n + 1))):
        raise DomainError("omega_grid must be h * arange(-n, n+1), h, n > 0")

    def shifted(x):
        check_height_shift(width, np.max(np.abs(x)))
        return amplitude_w_complex_height(
            epsilon, width, 1.0 - (2.0 / width) * x)

    # the first block holds the largest |omega|, so it meets any overflow
    blocks = [np.s_[i:i + _SWEEP_BLOCK]
              for i in range(0, om.size, _SWEEP_BLOCK)]
    key = ("bare", float(epsilon), float(width), step, n)
    out = np.zeros(om.shape, dtype=complex)
    if kernel.gamma == 0.0:
        if shared is not None and key in shared:
            return shared[key].copy()
        for b in blocks:
            out[b] = shifted(om[b])
        return out

    ladder = _table(kernel)[0]
    envelope = max(ladder.mismatch, 1e-4)
    resid_halfwidth = (envelope / (4.0 * math.pi * 1e-10)) ** 0.25
    resid_halfwidth = float(min(max(resid_halfwidth, 40.0), 200.0))
    m = int(math.ceil(resid_halfwidth / step))
    # omega >= 0, mirrored; made before the ladder blocks, RSS peaks lower
    half = _residual(kernel, step * np.arange(m + 1))
    g_res = np.concatenate([np.conj(half[:0:-1]), half])
    for b in blocks:
        for aj, sj in zip(ladder.weights, ladder.rates):
            out[b] += aj * shifted(om[b] + 1j * sj)

    # correlation against the residual spectrum, out[i] = sum_j w(om_i + u_j) g(u_j),
    # as the "valid" part of a full linear convolution done by FFT; samples
    # are assigned, not added, into the zero padding: 0.0 + -0.0 is +0.0
    size = om.size + 2 * m
    spec = np.zeros(_next_fast_len(size + g_res.size - 1), dtype=complex)
    for i in range(0, size, _SWEEP_BLOCK):
        j = np.arange(i, min(i + _SWEEP_BLOCK, size)) - (n + m)
        spec[i:i + j.size] = shifted(step * j)
    if shared is not None and key not in shared:  # the caller's grid
        shared[key] = spec[m:m + om.size].copy()
    np.fft.fft(spec, out=spec)
    spec *= np.fft.fft(g_res[::-1], spec.size)
    np.fft.ifft(spec, out=spec)
    valid = spec[g_res.size - 1:size]
    valid *= step / (2.0 * math.pi)
    out += valid

    tail = envelope / (4.0 * math.pi * resid_halfwidth ** 4)
    h0 = complex(out[n])
    if tail > 1e-5 * abs(h0):
        raise NonConvergenceError(
            f"residual tail bound {tail:.3e} at half-width "
            f"{resid_halfwidth:g} exceeds 1e-5 of |H0| = {abs(h0):.3e}",
            best_estimate=h0, error_estimate=tail)
    return out

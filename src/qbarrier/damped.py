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

A weak table per kernel keeps the ladder both damped routes read, each tol's
window, and each panel's residual row by node bytes: made once, in one call
per spectrum rule with the other rows missing, a row keeps the bits of its
own 15-node call.  The residual spectrum is conjugate-symmetric bit for bit,
so a row of negative nodes is kept as its mirror, served conjugated in
reverse (``figure3``: 770 spectrum calls; 1,280 making mirrors and windows
anew).  Equal kernels share; past ``_PANEL_BUDGET`` rows a call clears them.
The height sweep keeps nothing there: it interpolates its residual half from
one spectrum call on Chebyshev panels (``figure5``: 320 nodes, not 8,951).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .barrier import (amplitude_w, amplitude_w_complex_height,
                      check_height_shift)
from .errors import DegenerateKernelError, DomainError, NonConvergenceError
from .kernel import DampingKernel
from .quadrature import _PANEL_BUDGET, integrate_adaptive

_LADDER_ORDER = 4
# heights per bare-amplitude call of the height sweep, which bounds its
# working set; no result depends on it
_SWEEP_BLOCK = 1 << 13
# second-kind Chebyshev points per panel of the sweep's residual interpolant
_CHEB_POINTS = 32
# per kernel: (ladder, residual rows by node bytes, (cutoff, tail) by tol)
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


def _table(kernel: DampingKernel) -> tuple:
    """The kernel's (ladder, residual rows, windows), made on first use."""
    entry = _RESIDUAL_TABLES.get(kernel)
    if entry is None:
        entry = _RESIDUAL_TABLES[kernel] = (subtraction_ladder(kernel), {}, {})
    return entry


def residual_spectrum(kernel: DampingKernel, omega) -> np.ndarray:
    """Kernel spectrum minus its ladder's spectrum; decays like omega^-5."""
    return kernel.sqrt_f_spectrum(omega) - _table(kernel)[0].spectrum(omega)


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

    ladder, rows, windows = _table(kernel)
    if len(rows) > _PANEL_BUDGET:
        rows.clear()

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
        # a row of negative nodes is keyed, computed and kept as its mirror,
        # and served as that row's conjugate in reverse
        flip = om[:, -1] < 0.0
        nodes = np.where(flip[:, None], -om[:, ::-1], om)
        keys = [row.tobytes() for row in nodes]
        missing = {}  # spectrum rule -> {key: row index} not in the table
        for i, peak in enumerate(np.max(np.abs(om), axis=1).tolist()):
            if keys[i] not in rows:
                missing.setdefault(kernel.spectrum_rule(peak), {})[keys[i]] = i
        for new in missing.values():
            rows.update(zip(new, residual_spectrum(
                kernel, nodes[list(new.values())])))
        g = np.array([rows[key] for key in keys])
        shifted = amplitude_w_complex_height(
            epsilon, width, 1.0 - (2.0 / width) * om)
        return shifted * np.where(flip[:, None], np.conj(g[:, ::-1]), g)

    try:
        quad = integrate_adaptive(
            integrand, -cutoff, cutoff, 0.85 * tol * 2.0 * math.pi,
            breakpoints=marks)
    except NonConvergenceError as exc:
        # on a finite range only the panel budget raises, with both values
        raise NonConvergenceError(
            f"spectral integral did not converge at epsilon {float(epsilon)}",
            best_estimate=closed + exc.best_estimate / (2.0 * math.pi),
            error_estimate=exc.error_estimate / (2.0 * math.pi) + tail,
        ) from exc

    value = closed + quad.value / (2.0 * math.pi)
    # <= 0.95 tol: the quadrature returns within 0.85 tol, the window at 0.1 tol
    error = quad.error_estimate / (2.0 * math.pi) + tail
    return DampedAmplitude(value, error, cutoff, quad.panels_used, bare)


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


def _residual_half(kernel: DampingKernel, step: float, m: int) -> np.ndarray:
    """``residual_spectrum`` at ``step * np.arange(m + 1)``, interpolated on
    panels [0, s0], [s0 2^k, s0 2^(k+1)], ... up to W = step * m, as it is
    singular nearest at i s0; a grid point on a node takes the node's value."""
    edges = [0.0, kernel.decay_gap]
    while edges[-1] < step * m:
        edges.append(2.0 * edges[-1])
    lo, hi = np.array(edges[:-1]), np.array(edges[1:-1] + [step * m])
    cheb = -np.cos(np.pi * np.arange(_CHEB_POINTS) / (_CHEB_POINTS - 1))
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * cheb
    nodes[:, 0], nodes[:, -1] = lo, hi
    g = residual_spectrum(kernel, nodes)  # one call, peak W
    bary = (-1.0) ** np.arange(_CHEB_POINTS)
    bary[[0, -1]] *= 0.5
    cols = np.dstack([g.real, g.imag, np.ones(g.shape)]) * bary[:, None]
    x = step * np.arange(m + 1)
    cuts = [*np.searchsorted(x, lo).tolist(), m + 1]
    out = np.empty((m + 1, 2))  # Re, Im
    inv, num = np.empty((256, _CHEB_POINTS)), np.empty((256, 3))  # reused
    for p in range(lo.size):
        for i in range(cuts[p], cuts[p + 1], 256):
            k = min(256, cuts[p + 1] - i)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.subtract(x[i:i + k, None], nodes[p], out=inv[:k])
                np.matmul(np.divide(1.0, inv[:k], out=inv[:k]), cols[p],
                          out=num[:k])
                np.divide(num[:k, :2], num[:k, 2:], out=out[i:i + k])
            for r in np.flatnonzero(~np.isfinite(num[:k, 2])).tolist():
                out.view(complex)[i + r] = g[p][nodes[p] == x[i + r]]
    return out.view(complex)[:, 0]


def amplitude_w_D_height_sweep(
    epsilon: float,
    width: float,
    kernel: DampingKernel,
    omega_grid: np.ndarray,
) -> np.ndarray:
    """Suppressed amplitude at heights shifted by ``-hbar * omega`` for
    ``omega_grid == h * np.arange(-n, n + 1)``, h > 0, n > 0, or DomainError.

    This is the vectorized workhorse behind cumulative traversal curves:
    the ladder part is a handful of closed evaluations per grid point and
    the residual part one FFT convolution of bare samples on
    ``h * np.arange(-n - m, n + m + 1)``, whose middle is the caller's
    grid bit for bit, against the residual spectrum out to the half-width
    ``W = m h`` where its ``mismatch / omega^5`` envelope leaves a tail below
    1e-10, clamped to [40, 200].  That spectrum is interpolated on
    omega >= 0 from ``_CHEB_POINTS`` Chebyshev points per panel, within
    1.8e-15 |``sqrt_f_spectrum``| of a direct call, and mirrored: 320
    spectrum nodes, not 8,951, at figure5's kernel.  Where the tail bound
    ``max(mismatch, 1e-4) / (4 pi W^4)`` exceeds 1e-5 |H0|, H0 the value at
    omega = 0, it raises NonConvergenceError with H0 and the bound.  Bare
    amplitudes go ``_SWEEP_BLOCK`` heights a call, so only the output, the
    FFT buffer and the residual transform span the grid, and no bit depends
    on the block.  In the clean limit the sweep degenerates to bare
    samples.  It stays beside ``amplitude_w_D`` because a C_D curve needs
    65,537 heights: about 3 min of certified points (2.5 ms each at
    gamma 5e-3), 0.09 s of sweep on a 2-core machine.
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
    out = np.zeros(om.shape, dtype=complex)
    if kernel.gamma == 0.0:
        for b in blocks:
            out[b] = shifted(om[b])
        return out

    ladder = _table(kernel)[0]
    envelope = max(ladder.mismatch, 1e-4)
    resid_halfwidth = (envelope / (4.0 * math.pi * 1e-10)) ** 0.25
    resid_halfwidth = float(min(max(resid_halfwidth, 40.0), 200.0))
    m = int(math.ceil(resid_halfwidth / step))
    # conjugate-symmetric: interpolate omega >= 0, mirror the rest; made
    # before the ladder blocks' temporaries, it kept the peak RSS lower
    half = _residual_half(kernel, step, m)
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

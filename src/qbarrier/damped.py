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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import amplitude_w, amplitude_w_complex_height
from .errors import DegenerateKernelError, DomainError, NonConvergenceError
from .kernel import DampingKernel
from .quadrature import integrate_adaptive

_LADDER_ORDER = 4


@dataclass(frozen=True)
class SubtractionLadder:
    """Exponential model of sqrt(f) matching its short-time derivatives."""

    rates: np.ndarray
    weights: np.ndarray
    taylor: np.ndarray

    @property
    def mismatch(self) -> float:
        """Mismatch of the first unmatched derivative, the residual scale."""
        p = len(self.rates)
        model = float(np.sum(self.weights * (-self.rates) ** p).real)
        return abs(float(self.taylor[p]) - model)

    def spectrum(self, omega) -> np.ndarray:
        """Transform of the ladder, ``sum_j a_j / (s_j + i omega)``."""
        om = np.asarray(omega)
        acc = np.zeros(np.shape(om), dtype=complex)
        for aj, sj in zip(self.weights, self.rates):
            acc = acc + aj / (sj + 1j * om)
        return acc


def subtraction_ladder(kernel: DampingKernel) -> SubtractionLadder:
    """Build the ladder for ``kernel``; rates are octaves of the slowest
    decay rate of sqrt(f), which keeps the small linear system well
    conditioned down to weak damping."""
    if kernel.gamma == 0.0:
        raise DegenerateKernelError("clean limit needs no subtraction ladder")
    rates = kernel.decay_gap * 2.0 ** np.arange(_LADDER_ORDER)
    taylor = kernel.taylor_sqrt_f(_LADDER_ORDER)
    vand = (-rates[None, :]) ** np.arange(_LADDER_ORDER)[:, None]
    weights = np.linalg.solve(vand, taylor[:_LADDER_ORDER])
    return SubtractionLadder(rates, weights, taylor)


def residual_spectrum(kernel: DampingKernel, ladder: SubtractionLadder,
                      omega) -> np.ndarray:
    """Kernel spectrum minus the ladder spectrum; decays like omega^-5."""
    return kernel.sqrt_f_spectrum(omega) - ladder.spectrum(omega)


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
    theta_of = lambda om: width * math.sqrt(max(epsilon - 1.0 + 2.0 * om / width, 0.0))
    omega_osc = 0.5 * width * (1.0 - epsilon)  # internal phase turns real here
    lo = max(start, omega_osc)
    if lo >= stop:
        return marks
    theta = theta_of(lo)
    while True:
        theta += 0.5 * math.pi
        om = 0.5 * width * ((theta / width) ** 2 - (epsilon - 1.0))
        if om >= stop:
            break
        marks.append(om)
        if len(marks) > 4000:
            break
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
    if kernel.gamma == 0.0:
        return DampedAmplitude(bare, 0.0, 0.0, 0, bare)

    ladder = subtraction_ladder(kernel)
    closed = complex(np.sum(ladder.weights * np.asarray([
        amplitude_w_complex_height(epsilon, width, 1.0 - 2j * sj / width)
        for sj in ladder.rates])))

    def g_res(om):
        return residual_spectrum(kernel, ladder, om)

    # grow the window until the omega^-5 envelope certifies the tail
    cutoff = max(32.0, 8.0 * float(ladder.rates[-1]))
    tail = math.inf
    for _ in range(60):
        edges = cutoff * np.array([-1.0, -0.9, -0.8, 0.8, 0.9, 1.0])
        empirical = float(np.max(np.abs(g_res(edges)) * np.abs(edges) ** 5))
        scale = max(ladder.mismatch, 2.0 * empirical)
        tail = scale / (4.0 * math.pi * cutoff ** 4)
        if tail <= 0.1 * tol:
            break
        cutoff *= 2.0
    if tail > 0.1 * tol:
        raise NonConvergenceError(
            f"residual tail bound stuck at {tail:.3e} for cutoff {cutoff:.3e}")

    marks = [-s for s in ladder.rates] + list(ladder.rates)
    # the residual's cancellation structure lives below s0 as well
    sub = float(ladder.rates[0])
    for _ in range(6):
        sub *= 0.5
        marks += [-sub, sub]
    # dyadic rungs out to the window on both sides: the residual's
    # shoulder spans a few decades above the ladder rates, and the far
    # panels are too wide to notice it on their own
    rung = float(ladder.rates[-1])
    while rung < cutoff:
        marks += [-rung, rung]
        rung *= 2.0
    marks += _phase_breakpoints(epsilon, width, float(ladder.rates[-1]), cutoff)

    def integrand(om):
        shifted = amplitude_w_complex_height(
            epsilon, width, 1.0 - (2.0 / width) * om)
        return shifted * g_res(om)

    try:
        quad = integrate_adaptive(
            integrand, -cutoff, cutoff, 0.85 * tol * 2.0 * math.pi,
            breakpoints=marks)
    except NonConvergenceError as exc:
        # on a finite range only the panel budget raises, with both values
        raise NonConvergenceError(
            f"spectral integral did not converge at epsilon {epsilon!r}",
            best_estimate=closed + exc.best_estimate / (2.0 * math.pi),
            error_estimate=exc.error_estimate / (2.0 * math.pi) + tail,
        ) from exc

    value = closed + quad.value / (2.0 * math.pi)
    error = quad.error_estimate / (2.0 * math.pi) + tail
    if error > tol:
        raise NonConvergenceError(
            f"certified error {error:.3e} above tol {tol:.3e}",
            best_estimate=value, error_estimate=error)
    return DampedAmplitude(value, error, cutoff, quad.panels_used, bare)


def transmission_prob_D(epsilon: float, width: float, kernel: DampingKernel,
                        *, tol: float = 1e-6) -> float:
    """Suppressed transmission probability ``|w_D|**2``."""
    return abs(amplitude_w_D(epsilon, width, kernel, tol=tol).value) ** 2


def amplitude_w_D_height_sweep(
    epsilon: float,
    width: float,
    kernel: DampingKernel,
    omega_grid: np.ndarray,
) -> np.ndarray:
    """Suppressed amplitude with the barrier height shifted by
    ``-hbar * omega`` for every ``omega`` on a uniform grid.

    This is the vectorized workhorse behind cumulative traversal curves:
    the ladder part is a handful of closed evaluations per grid point and
    the residual part becomes one discrete convolution of bare-amplitude
    samples against the residual spectrum (both on the same step, done
    with an FFT).  The residual spectrum is kept out to the half-width
    where its ``mismatch / omega^5`` envelope leaves a tail below 1e-10,
    clamped to [40, 200].  In the clean limit the sweep degenerates to
    bare samples.
    """
    om = np.asarray(omega_grid, dtype=float)
    if om.ndim != 1 or om.size < 2:
        raise DomainError("omega_grid must be a 1-d grid")
    steps = np.diff(om)
    step = steps[0]
    if step <= 0.0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise DomainError("omega_grid must be uniform and ascending")

    def shifted(x):
        return amplitude_w_complex_height(
            epsilon, width, 1.0 - (2.0 / width) * np.asarray(x))

    if kernel.gamma == 0.0:
        return shifted(om)

    ladder = subtraction_ladder(kernel)
    out = np.zeros(om.shape, dtype=complex)
    for aj, sj in zip(ladder.weights, ladder.rates):
        out += aj * shifted(om + 1j * sj)

    resid_halfwidth = (max(ladder.mismatch, 1e-4)
                       / (4.0 * math.pi * 1e-10)) ** 0.25
    resid_halfwidth = float(min(max(resid_halfwidth, 40.0), 200.0))
    n_half = int(math.ceil(resid_halfwidth / step))
    u = step * np.arange(-n_half, n_half + 1)
    g_res = residual_spectrum(kernel, ladder, u)
    x_ext = om[0] + step * np.arange(-n_half, om.size + n_half)
    w_ext = shifted(x_ext)
    # correlation against the residual spectrum, out[i] = sum_m w(om_i + u_m) g(u_m),
    # as the "valid" part of a full linear convolution done by FFT; scipy.fft
    # is imported here so that paths without a height sweep never load it
    from scipy.fft import next_fast_len

    n_fft = next_fast_len(w_ext.size + g_res.size - 1)
    full = np.fft.ifft(np.fft.fft(w_ext, n_fft) * np.fft.fft(g_res[::-1], n_fft))
    out += full[g_res.size - 1:w_ext.size] * (step / (2.0 * math.pi))
    return out

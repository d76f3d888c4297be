r"""Traversal-time amplitude distributions and their summary statistics.

The bare amplitude admits a spectral decomposition over traversal times:
the distribution ``F(tau)`` is the inverse transform of the bare
amplitude sampled at shifted barrier heights, normalized so that
``integral F dtau = 1``.  A Gaussian spectral window of width
``Omega_w`` makes the transform absolutely convergent while preserving
the total weight and, because it is even, the first moment.

Discretely everything lives on a period ``T_p`` with ``N`` samples: the
window spectrum is sampled on ``omega_j = -W + j d_omega`` (``omega = 0``
exactly on the grid) and one FFT produces ``F`` on ``tau_n = n d_tau``.
The choice ``W d_tau = pi`` turns the frequency offset into the exact
alternating sign ``(-1)^n``, and the discrete total ``d_tau sum_n F_n``
equals 1 to machine precision by construction (only the on-grid
``omega = 0`` sample survives the alternating sum).  Samples in the top
half of the period alias negative times, where causality keeps ``F``
at the window floor; moments are therefore taken over signed times.

Suppression by the environment multiplies the integrand by
``sqrt(f(tau))``; after renormalizing, the normalization constant must
agree with ``w_D / w``, which is one of the package cross-checks.

Mean traversal times come from two independent routes: the closed
rational expression in ``(k, kappa, sin, cos)`` and a Richardson
extrapolated height derivative of ``log w``.

The cumulative suppressed amplitude uses the causal sine-kernel form

    C_D(tau) = (1 / (pi H0)) \int H(w) sin(w tau) / w dw,

``H(w)`` being the suppressed amplitude at height ``V0 - hbar w`` and
``H0 = H(0)`` the suppressed amplitude itself.  Splitting ``H`` into
``H0`` (handled exactly through the sine integral) plus a regular
remainder integrated by a linear Filon rule keeps the evaluation stable
from ``tau = 0`` (where the result is exactly 0) to the plateau at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import amplitude_w, amplitude_w_complex_height
from .damped import amplitude_w_D_height_sweep
from .errors import DegenerateSuppressionError, DomainError, WindowError
from .kernel import DampingKernel
from .units import wave_numbers

# frequency range of the distribution transform, in window widths per side
_SPAN_FACTOR = 8.0
# spectral grid of the cumulative amplitude; the step is refined further
# when the kernel's slowest decay rate needs finer sampling
_CUMULATIVE_HALFWIDTH = 409.6
_CUMULATIVE_MAX_STEP = 0.0125


@dataclass(frozen=True)
class SpectralGrid:
    """Discretization of the spectral transform behind ``F(tau)``.

    ``window`` is the Gaussian width Omega_w (1/tau_star) and ``period``
    the time period T_p (tau_star) fixing the frequency step 2 pi / T_p.
    The frequency range covers eight window widths on each side before
    the sample count is rounded up to a power of two.
    """

    window: float = 60.0
    period: float = 96.0

    def __post_init__(self):
        if not (self.window > 0.0 and self.period > 0.0):
            raise WindowError(f"inconsistent spectral grid: {self!r}")

    @property
    def freq_step(self) -> float:
        return 2.0 * math.pi / self.period

    @property
    def n_samples(self) -> int:
        need = 2.0 * _SPAN_FACTOR * self.window / self.freq_step
        n = 1 << max(4, math.ceil(math.log2(need)))
        if n > (1 << 22):
            raise WindowError(f"grid of {n} samples is beyond reason")
        return n

    @property
    def halfwidth(self) -> float:
        return 0.5 * self.n_samples * self.freq_step

    @property
    def time_step(self) -> float:
        return self.period / self.n_samples


@dataclass(frozen=True)
class TraversalDistribution:
    """Sampled distribution over one transform period.

    ``values[n]`` belongs to ``times[n] = n * step`` for the first half
    of the period and to ``times[n] - period`` (aliased negative times)
    for the second half.
    """

    times: np.ndarray
    values: np.ndarray
    step: float
    period: float
    window: float
    amplitude: complex
    suppression: complex

    @property
    def signed_times(self) -> np.ndarray:
        n = self.times.size
        half = n // 2
        return np.where(np.arange(n) <= half, self.times,
                        self.times - self.period)

    @property
    def positive_times(self) -> np.ndarray:
        return self.times[: self.times.size // 2 + 1]

    @property
    def positive_values(self) -> np.ndarray:
        return self.values[: self.times.size // 2 + 1]

    def total(self) -> complex:
        """Discrete normalization, exactly 1 for any bare distribution."""
        return complex(self.step * self.values.sum())

    def moment(self, order: int) -> complex:
        if order < 0:
            raise DomainError("moment order must be nonnegative")
        return complex(
            self.step * (self.signed_times ** order * self.values).sum())

    def negative_leakage(self) -> float:
        """Largest magnitude on strictly negative signed times; a window
        floor check, not physics."""
        mask = self.signed_times < 0.0
        return float(np.max(np.abs(self.values[mask])))


def distribution_F(epsilon: float, width: float, *,
                   grid: SpectralGrid | None = None) -> TraversalDistribution:
    """Windowed traversal-time distribution of the bare amplitude."""
    grid = grid or SpectralGrid()
    n = grid.n_samples
    dw = grid.freq_step
    w_half = grid.halfwidth
    omegas = -w_half + dw * np.arange(n)
    shifted = amplitude_w_complex_height(
        epsilon, width, 1.0 - (2.0 / width) * omegas)
    window = np.exp(-0.5 * (omegas / grid.window) ** 2)
    bare = amplitude_w(float(epsilon), width)
    spec = np.fft.fft(shifted * window)
    signs = 1.0 - 2.0 * (np.arange(n) & 1)
    values = (dw / (2.0 * math.pi * bare)) * signs * spec
    times = grid.time_step * np.arange(n)
    return TraversalDistribution(
        times=times, values=values, step=grid.time_step, period=grid.period,
        window=grid.window, amplitude=bare, suppression=1.0 + 0.0j)


def distribution_F_D(epsilon: float, width: float, kernel: DampingKernel, *,
                     grid: SpectralGrid | None = None) -> TraversalDistribution:
    """Suppressed and renormalized traversal-time distribution.

    The renormalization constant is stored as ``suppression`` and must
    reproduce the ratio of suppressed to bare amplitude computed by the
    independent spectral route.
    """
    base = distribution_F(epsilon, width, grid=grid)
    weight = kernel.sqrt_f(np.abs(base.signed_times))
    weighted = weight * base.values
    s = complex(base.step * weighted.sum())
    if abs(s) == 0.0:
        raise DegenerateSuppressionError(
            "suppression annihilated the distribution")
    return TraversalDistribution(
        times=base.times, values=weighted / s, step=base.step,
        period=base.period, window=base.window, amplitude=base.amplitude,
        suppression=s)


def mean_traversal_closed(epsilon: float, width: float) -> complex:
    """Mean traversal time (tau_star units) in closed form.

    Valid away from ``epsilon = 1`` where the expression turns 0/0 (the
    limit exists; use the derivative route there).  The real part crosses
    the classical crossing time at the resonances, where the mean is
    exactly real.
    """
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    if abs(epsilon - 1.0) < 1e-8:
        raise DomainError("closed mean is indeterminate at epsilon = 1")
    k, kappa = wave_numbers(float(epsilon))
    theta = kappa * width
    s, c = np.sin(theta), np.cos(theta)
    asum = k * k + kappa * kappa
    bdif = k * k - kappa * kappa
    den = bdif * bdif * s * s + 4.0 * k * k * kappa * kappa
    re_term = (2.0 * k / kappa) * (asum * theta - bdif * s * c) / den
    im_term = (bdif * s / (kappa * kappa)) * (bdif * theta * c - asum * s) / den
    return complex((re_term + 1j * im_term) / width)


def mean_traversal_derivative(epsilon: float, width: float, *,
                              step: float = 1e-4) -> complex:
    """Mean traversal time from the height derivative of ``log w``,
    centered differences with one Richardson pass.  The workhorse
    cross-check for the closed form."""
    if not 0.0 < step < 0.1:
        raise DomainError(f"step out of range: {step!r}")
    bare = amplitude_w(float(epsilon), width)

    def central(h: float) -> complex:
        up = amplitude_w_complex_height(epsilon, width, 1.0 + h)
        dn = amplitude_w_complex_height(epsilon, width, 1.0 - h)
        return (up - dn) / (2.0 * h * bare)

    coarse = central(step)
    fine = central(0.5 * step)
    return complex((2.0j / width) * (4.0 * fine - coarse) / 3.0)


@dataclass(frozen=True)
class CumulativeResult:
    times: np.ndarray
    values: np.ndarray
    suppressed_amplitude: complex
    step: float
    halfwidth: float


def cumulative_amplitude(
    epsilon: float,
    width: float,
    kernel: DampingKernel,
    times,
) -> CumulativeResult:
    """Cumulative traversal amplitude ``C_D`` on the requested times.

    Exactly 0 at ``tau = 0``, tends to 1, and its derivative reproduces
    the suppressed distribution.  The clean limit gives the cumulative of
    the bare distribution.  Raises WindowError when the kernel decays so
    slowly that the grid would need more than 5e6 steps per side.
    """
    taus = np.asarray(times, dtype=float)
    if not np.all(taus >= 0.0):
        raise DomainError("cumulative times must be nonnegative")

    step = _CUMULATIVE_MAX_STEP
    if kernel.gamma > 0.0:
        step = min(step, kernel.decay_gap / 25.0)
    per_side = _CUMULATIVE_HALFWIDTH / step
    if per_side > 5e6:
        raise WindowError(f"cumulative grid of {per_side:.3g} steps per "
                          "side is beyond reason")
    n_half = int(math.ceil(per_side))
    w_half = n_half * step
    grid = step * np.arange(-n_half, n_half + 1)

    heights = amplitude_w_D_height_sweep(epsilon, width, kernel, grid)
    h0 = complex(heights[n_half])
    if abs(h0) < 1e-250:
        raise DegenerateSuppressionError(
            "suppressed amplitude vanished; cumulative undefined")

    psi = np.empty_like(heights)
    nonzero = grid != 0.0
    psi[nonzero] = (heights[nonzero] - h0) / (math.pi * grid[nonzero])
    psi[n_half] = (heights[n_half + 1] - heights[n_half - 1]) / (
        2.0 * step * math.pi)

    dpsi = np.diff(psi)
    psi_edge_diff = psi[0] - psi[-1]

    flat = taus.ravel()
    integrals = np.empty(flat.shape, dtype=complex)
    for idx, tau in enumerate(flat):
        if tau == 0.0:
            integrals[idx] = 0.0
        elif w_half * tau <= math.pi:
            # no oscillation across the window yet, plain trapezoid
            vals = psi * np.sin(grid * tau)
            integrals[idx] = step * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        else:
            # linear Filon: the cell-boundary cosine terms telescope
            sins = np.sin(grid * tau)
            integrals[idx] = ((dpsi * np.diff(sins)).sum() / (tau * tau * step)
                              + psi_edge_diff * math.cos(w_half * tau) / tau)
    # imported here so that paths without a cumulative curve never load it
    from scipy.special import sici

    si_vals, _ = sici(w_half * flat)
    values = (1.0 + integrals / h0
              - (2.0 / math.pi) * (0.5 * math.pi - si_vals))
    return CumulativeResult(
        times=taus, values=values.reshape(taus.shape),
        suppressed_amplitude=h0, step=step, halfwidth=w_half)

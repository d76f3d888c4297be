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
``H0 = H(0)`` the suppressed amplitude itself.  ``H0`` goes through the
sine integral exactly.  Of the remainder ``(H - H0) / (pi w)`` only the
odd part counts, sin being odd; the linear Filon rule integrates it as
one closed ``sinc^2``-weighted sum for every ``tau``, exactly 0 at 0.
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
# coarse height step of the derivative route to the mean traversal time
_DERIVATIVE_STEP = 1e-4


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
        if not (0.0 < self.window < math.inf
                and 0.0 < self.period < math.inf):
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


def mean_traversal_derivative(epsilon: float, width: float) -> complex:
    """Mean traversal time from the height derivative of ``log w``,
    centered differences with one Richardson pass.  The workhorse
    cross-check for the closed form."""
    bare = amplitude_w(float(epsilon), width)

    def central(h: float) -> complex:
        up = amplitude_w_complex_height(epsilon, width, 1.0 + h)
        dn = amplitude_w_complex_height(epsilon, width, 1.0 - h)
        return (up - dn) / (2.0 * h * bare)

    coarse = central(_DERIVATIVE_STEP)
    fine = central(0.5 * _DERIVATIVE_STEP)
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
    the bare distribution.  Raises DomainError for a negative or infinite
    time and WindowError when the kernel decays so slowly that the grid
    would need more than 5e6 steps per side.
    """
    taus = np.asarray(times, dtype=float)
    if not np.all((taus >= 0.0) & (taus < math.inf)):
        raise DomainError("cumulative times must be finite and nonnegative")

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

    # psi = (H - H0) / (pi w) enters as its odd part d_k = psi_k - psi_{-k}
    omegas = grid[n_half + 1:]
    odd = (heights[n_half + 1:] + heights[n_half - 1::-1] - 2.0 * h0) / (
        math.pi * omegas)
    # linear Filon in closed form: the hat at w_k integrates to
    # h sinc^2(tau h/2) sin(w_k tau); the half hat at W adds an edge term
    columns = np.stack([odd.real, odd.imag], axis=1)
    columns[-1] *= 0.5
    flat = taus.ravel()
    sums = np.empty((flat.size, 2))
    rows = max(1, (1 << 18) // omegas.size)
    for i0 in range(0, flat.size, rows):
        phases = np.outer(flat[i0:i0 + rows], omegas)
        sums[i0:i0 + rows] = np.sin(phases, out=phases) @ columns
    edge = np.divide(odd[-1] * np.cos(w_half * flat)
                     * (1.0 - np.sinc(step * flat / math.pi)), flat,
                     out=np.zeros(flat.shape, dtype=complex), where=flat > 0.0)
    integrals = (step * np.sinc(0.5 * step * flat / math.pi) ** 2
                 * (sums[:, 0] + 1j * sums[:, 1]) - edge)
    # imported here so that paths without a cumulative curve never load it
    from scipy.special import sici

    si_vals, _ = sici(w_half * flat)
    values = (1.0 + integrals / h0
              - (2.0 / math.pi) * (0.5 * math.pi - si_vals))
    return CumulativeResult(
        times=taus, values=values.reshape(taus.shape),
        suppressed_amplitude=h0, step=step, halfwidth=w_half)

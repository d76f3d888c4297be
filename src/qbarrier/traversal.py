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
``H0 = H(0)`` the suppressed amplitude itself.  The trapezoid rule on
``w_k = k h`` over ``[-W, W]``, half weight at the ends, integrates it
once the Gaussian ``H0 exp(-w^2)`` is taken off ``H``: that part sums to
``H0 erf(tau / 2)`` to the last bit (its aliases at ``2 pi / h`` vanish),
and what is left is ``O(w)`` near 0, so the sums round like the remainder,
not like ``H0 / w``.  The pair ``+-w_k`` gives
``(H_k + H_-k - 2 H0 exp(-w_k^2)) sin(w_k tau) / (pi w_k)``, and ``C_D``
is exactly 0 at 0.  Its ``N`` sines per ``tau`` come by angle addition
from about ``4 sqrt(N)``.  The step error, the ``h^2`` endpoint term, is
about ``(h tau)^2 / 12`` times the window-edge error
``~ |H(W)| / (pi W tau |H0|)`` that truncating at ``W`` leaves, so the
step is ``1 / max(tau_max, 80)``: the step error stays within about a
twelfth of the edge error (1% at ``tau = 30`` on the default step), and
past ``tau_max = 80`` the grid grows with ``tau_max``.  The step follows
the times alone; the height sweep picks its own step for the kernel.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .barrier import (_DEEP_IMAG, amplitude_w, amplitude_w_complex_height,
                      check_height_shift)
from .damped import amplitude_w_D_height_sweep
from .errors import DegenerateSuppressionError, DomainError, WindowError
from .kernel import DampingKernel
from .units import wave_numbers

# frequency range of the distribution transform, in window widths per side
_SPAN_FACTOR = 8.0
# half-width of the cumulative amplitude's spectral grid
_CUMULATIVE_HALFWIDTH = 409.6
# coarse height step of the derivative route to the mean traversal time,
# shrunk on wide barriers (see _derivative_step)
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
        # clamped, so that a need that overflows to inf is refused as well
        n = 1 << max(4, math.ceil(math.log2(min(need, 2.0 ** 23))))
        if n > (1 << 22):
            raise WindowError(
                f"grid of at least {need:.4g} samples is beyond reason")
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
        return np.where(np.arange(n) <= n // 2, self.times,
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


def distribution_F(epsilon: float, width: float, *,
                   grid: SpectralGrid | None = None) -> TraversalDistribution:
    """Windowed traversal-time distribution of the bare amplitude."""
    grid = grid or SpectralGrid()
    n = grid.n_samples
    dw = grid.freq_step
    w_half = grid.halfwidth
    omegas = -w_half + dw * np.arange(n)
    check_height_shift(width, w_half)
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
                     grid: SpectralGrid | None = None,
                     base: TraversalDistribution | None = None
                     ) -> TraversalDistribution:
    """Suppressed and renormalized traversal-time distribution.

    The renormalization constant is stored as ``suppression`` and must
    reproduce the ratio of suppressed to bare amplitude computed by the
    independent spectral route.  Raises WindowError once the kernel's
    decay rate reaches the window width, which then cannot resolve it.
    ``base``, the bare distribution already made on ``grid``, saves making
    it again; one from another grid or amplitude raises DomainError.
    """
    grid = grid or SpectralGrid()
    if kernel.decay_gap >= grid.window:
        raise WindowError(
            f"kernel decay rate {kernel.decay_gap:.6g} reaches the spectral "
            f"window {grid.window!r}; the window cannot resolve it")
    if base is None:
        base = distribution_F(epsilon, width, grid=grid)
    elif (SpectralGrid(base.window, base.period) != grid
          or base.suppression != 1.0
          or base.amplitude != amplitude_w(float(epsilon), width)):
        raise DomainError("base is not the bare distribution on this grid "
                          "at this energy and width")
    weight = kernel.sqrt_f(np.abs(base.signed_times))
    weighted = weight * base.values
    s = complex(base.step * weighted.sum())
    if abs(s) == 0.0:
        raise DegenerateSuppressionError(
            "suppression annihilated the distribution")
    return replace(base, values=weighted / s, suppression=s)


def mean_traversal_closed(epsilon: float, width: float) -> complex:
    """Mean traversal time (tau_star units) in closed form.

    Valid away from ``epsilon = 1`` where the expression turns 0/0 (the
    limit exists; use the derivative route there).  The real part crosses
    the classical crossing time at the resonances, where the mean is
    exactly real.  Deep below the barrier, where sin^2(kappa d) would
    overflow, numerator and denominator are divided by it.  Raises
    DomainError below the smallest normal width, where ``/ width`` overflows.
    """
    if not width >= sys.float_info.min:
        raise DomainError(f"width must be positive and normal, got {width!r}")
    if abs(epsilon - 1.0) < 1e-8:
        raise DomainError("closed mean is indeterminate at epsilon = 1")
    k, kappa = wave_numbers(float(epsilon))
    theta = kappa * width
    asum = k * k + kappa * kappa
    bdif = k * k - kappa * kappa
    if theta.imag > _DEEP_IMAG:
        # divided through by sin^2, which overflows: there cot = -i and
        # 1 / sin^2 = -4 e^{2 i theta} to double precision
        inv_s2 = -4.0 * cmath.exp(2j * theta)
        den = bdif * bdif + 4.0 * k * k * kappa * kappa * inv_s2
        re_term = (2.0 * k / kappa) * (asum * theta * inv_s2 + 1j * bdif) / den
        im_term = (bdif / (kappa * kappa)) * (-1j * bdif * theta - asum) / den
        return complex((re_term + 1j * im_term) / width)
    s, c = np.sin(theta), np.cos(theta)
    den = bdif * bdif * s * s + 4.0 * k * k * kappa * kappa
    re_term = (2.0 * k / kappa) * (asum * theta - bdif * s * c) / den
    im_term = (bdif * s / (kappa * kappa)) * (bdif * theta * c - asum * s) / den
    return complex((re_term + 1j * im_term) / width)


def _derivative_step(epsilon: float, width: float) -> float:
    """``_DERIVATIVE_STEP``, or where it is smaller the power of two below
    r K^2 / width, K^2 = max(|epsilon - 1|, (pi / width)^2): the phase
    turns faster with the height on wide barriers.  r = 0.01, or from
    K width ~ 440 up 4 (u K width)^(1/5), u = 2^-52, where the r^4
    truncation of the Richardson pass meets the phase's rounding u K width
    over the step (4 measured up to width 3e11).  A power of two keeps
    ``1 +- h`` and ``1 +- h/2`` exact; r K^2 / width below 2^-51 is refused."""
    phase = math.pi / max(width, 1e-150)  # squared without overflow
    k2 = max(abs(epsilon - 1.0), phase ** 2)
    if 0.01 * k2 / width >= _DERIVATIVE_STEP:
        return _DERIVATIVE_STEP
    r = max(0.01, 4.0 * (2.0 ** -52 * math.sqrt(k2) * width) ** 0.2)
    scale = min(r * k2 / width, _DERIVATIVE_STEP)
    if not scale >= 2.0 ** -51:
        raise DomainError(f"the derivative route needs a height step below "
                          f"2**-51 at epsilon {epsilon}, width {width}")
    return math.ldexp(0.5, math.frexp(scale)[1])


def mean_traversal_derivative(epsilon: float, width: float) -> complex:
    """Mean traversal time from the height derivative of ``log w``,
    centered differences with one Richardson pass.  The workhorse
    cross-check for the closed form, refusing subnormal widths as it does."""
    if not width >= sys.float_info.min:
        raise DomainError(f"width must be positive and normal, got {width!r}")
    bare = amplitude_w(float(epsilon), width)
    if bare == 0.0:
        raise DomainError(f"bare amplitude underflows to 0 at epsilon "
                          f"{epsilon}, width {width}")

    step = _derivative_step(float(epsilon), width)
    up, dn, up2, dn2 = map(complex, amplitude_w_complex_height(
        epsilon, width, 1.0 + step * np.array([1.0, -1.0, 0.5, -0.5])))
    coarse = (up - dn) / (2.0 * step * bare)
    fine = (up2 - dn2) / (step * bare)  # 2 (step / 2) is step exactly
    return complex((2.0j / width) * (4.0 * fine - coarse) / 3.0)


def _trig(block: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> list:
    """cos and sin of ``block * fine``, sin and cos of ``block * coarse``."""
    inner, outer = block * fine, block * coarse
    return [np.cos(inner), np.sin(inner), np.sin(outer), np.cos(outer)]


@dataclass(frozen=True)
class CumulativeResult:
    """``C_D`` on the requested times, which lie in [0, 1 / step].

    ``values`` has the shape of ``times``; ``suppressed_amplitude`` is
    ``H0``, the sweep's sample at ``omega = 0``; ``step`` and ``halfwidth``
    are the frequency step h and the half-width W of the trapezoid grid.
    """

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
    *,
    shared: dict | None = None,
) -> CumulativeResult:
    """Cumulative traversal amplitude ``C_D`` on the requested times.

    Exactly 0 at ``tau = 0``, tends to 1, and its derivative reproduces
    the suppressed distribution.  The clean limit gives the cumulative of
    the bare distribution.  The step is 1 / max(tau_max, 80), whatever
    the kernel.  Raises DomainError for a negative or infinite time or one
    past 5e6 / W = 12,207, where that step would need more than 5e6 steps
    per side.  ``shared``, a dict kept for one table, lends later calls on
    the grid the bare samples (see ``amplitude_w_D_height_sweep``, which
    raises WindowError for a kernel too slow for it) and, for the same
    times, the first row block's trig tables; no bit depends on it.
    """
    taus = np.asarray(times, dtype=float)
    if not np.all((taus >= 0.0) & (taus < math.inf)):
        raise DomainError("cumulative times must be finite and nonnegative")

    flat = taus.ravel()
    # erf(tau / 2): the sum of the Gaussian H0 exp(-w^2) taken off H below,
    # over H0
    gauss = np.array([math.erf(0.5 * tau) for tau in flat])
    tau_max = float(np.max(taus, initial=0.0))
    if _CUMULATIVE_HALFWIDTH * tau_max > 5e6:
        raise DomainError(f"time {tau_max!r} is too large: its frequency "
                          "step 1/tau needs over 5e6 steps per side")
    # keeps the step error below the edge error; 1/80 is 0.0125 exactly
    step = 1.0 / max(tau_max, 80.0)
    n_half = int(math.ceil(_CUMULATIVE_HALFWIDTH / step))
    w_half = n_half * step
    grid = step * np.arange(-n_half, n_half + 1)

    heights = amplitude_w_D_height_sweep(epsilon, width, kernel, grid,
                                         shared=shared)
    h0 = complex(heights[n_half])
    if abs(h0) < 1e-250:
        raise DegenerateSuppressionError(
            "suppressed amplitude vanished; cumulative undefined")

    # the trapezoid rule on (H - H0 exp(-w^2)) sin(w tau) / (pi w): the pair
    # +-w_k gives c_k sin(w_k tau), half weight at W, and w = 0 gives 0; the
    # Gaussian adds erf(tau / 2) (module docstring).  By angle addition over
    # w_k = (b L + j + 1) h, with L = ceil(sqrt(N)) (span) and b below
    # B = ceil(N / L) (count), a tau needs sin and cos of (j + 1) h tau and
    # b L h tau: 2 (L + B), not N; the sums over j are products with the
    # zero-padded table[j, (re/im, b)]
    omegas = grid[n_half + 1:]
    coeffs = heights[n_half + 1:] + heights[n_half - 1::-1]
    coeffs -= 2.0 * h0 * np.exp(-omegas * omegas)
    coeffs /= math.pi * omegas
    span = math.isqrt(n_half - 1) + 1
    count = -(-n_half // span)
    table = np.zeros((2, count * span))
    table[:, :n_half] = coeffs.real, coeffs.imag
    table[:, n_half - 1] *= 0.5
    table = table.reshape(2 * count, span).T
    coarse = step * (span * np.arange(count))
    sums = np.empty((flat.size, 2))
    # row blocks keep each trig table within 2^18 elements, 29 rows or more
    rows = (1 << 18) // (2 * (span + count))
    key = ("trig", step, n_half, flat.tobytes())
    cache = {} if shared is None else shared
    if key not in cache:
        cache[key] = _trig(flat[:rows, None], omegas[:span], coarse)
    for i0 in range(0, flat.size, rows):
        trig = cache[key] if i0 == 0 else _trig(
            flat[i0:i0 + rows, None], omegas[:span], coarse)
        cos_part = (trig[0] @ table).reshape(-1, 2, count)
        sin_part = (trig[1] @ table).reshape(-1, 2, count)
        sums[i0:i0 + rows] = ((cos_part * trig[2][:, None]).sum(axis=2)
                              + (sin_part * trig[3][:, None]).sum(axis=2))
    values = step * (sums[:, 0] + 1j * sums[:, 1]) / h0 + gauss
    return CumulativeResult(
        times=taus, values=values.reshape(taus.shape),
        suppressed_amplitude=h0, step=step, halfwidth=w_half)

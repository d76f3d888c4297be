r"""Independent cross-check routes, kept apart from the engines.

Each function re-derives, by different algebra, a quantity the engines
compute: the clean amplitude ``w`` as a reflection series and as an
assembly of hard-wall propagators, the kernel ``f(t)`` from the
influence coefficients, ``sqrt(f)`` as its exponential series, the
residual spectrum as a direct sum at every frequency, and the
cumulative amplitude ``C_D`` as an endpoint-corrected trapezoid sum with
one sine per node.
The package ships only what its runs use, so these routes live with
the tests, which import this file as a plain module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qbarrier.barrier import _check_inputs
from qbarrier.damped import amplitude_w_D_height_sweep, subtraction_ladder
from qbarrier.errors import (DegenerateKernelError, DomainError,
                             NonConvergenceError)
from qbarrier.kernel import DampingKernel, _central_binomials
from qbarrier.units import wave_numbers


class PoleError(DomainError):
    """Evaluation requested exactly at a non-removable singularity."""


MASS = 0.5
# round trips reflection_series_w sums before it gives up
_SERIES_MAX_TERMS = 10000


# -- clean amplitude ----------------------------------------------------------

@dataclass(frozen=True)
class SeriesApproximation:
    """Partial sum of a convergent expansion with its remainder bound."""

    value: complex
    terms_used: int
    tail_bound: float


def reflection_series_w(
    epsilon: float,
    width: float,
    *,
    tol: float = 1e-12,
) -> SeriesApproximation:
    """Amplitude as the sum over internal reflection round trips.

    Each round trip multiplies the amplitude by
    ``rho = r**2 exp(2 i kappa d)`` with the single-interface reflection
    coefficient ``r = (kappa - k) / (kappa + k)``.  Above the barrier
    ``|r| < 1`` and below it the round-trip phase decays, so the series
    converges everywhere except at ``epsilon = 1`` where ``|rho| = 1``;
    that case raises NonConvergenceError.  The geometric remainder bound
    is returned alongside the partial sum.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    _check_inputs(epsilon, width)
    k, kappa = wave_numbers(float(epsilon))
    pref = (cmath.exp(-1j * k * width) * 4.0 * k * kappa
            / (k + kappa) ** 2 * cmath.exp(1j * kappa * width))
    rho = ((kappa - k) / (kappa + k)) ** 2 * cmath.exp(2j * kappa * width)
    arho = abs(rho)
    if arho >= 1.0:
        raise NonConvergenceError(
            f"round-trip factor has modulus {arho:.6f}, series diverges "
            f"(epsilon = {epsilon!r})")
    apref = abs(pref)
    term = 1.0 + 0.0j
    total = 0.0 + 0.0j
    decay = arho
    for n in range(_SERIES_MAX_TERMS):
        total += term
        tail = apref * decay / (1.0 - arho)
        if tail <= tol:
            return SeriesApproximation(pref * total, n + 1, tail)
        term *= rho
        decay *= arho
    raise NonConvergenceError(
        f"series still above tol after {_SERIES_MAX_TERMS} terms",
        best_estimate=pref * total,
        error_estimate=apref * decay / (1.0 - arho))


# -- region propagators with hard walls at the barrier edges, and their
# assembly into w.  They vanish at the walls, are outgoing at infinity
# and jump by -1 in derivative at coincidence.

def green_free(epsilon: float, x: float, xp: float) -> complex:
    """Free outgoing propagator between two points."""
    k = math.sqrt(epsilon)
    return 0.5j / k * cmath.exp(1j * k * abs(x - xp))


def green_left(epsilon: float, x: float, xp: float) -> complex:
    """Propagator left of the barrier with a hard wall at x = 0."""
    if x > 0.0 or xp > 0.0:
        raise DomainError("green_left needs both points at x <= 0")
    k = math.sqrt(epsilon)
    lo, hi = min(x, xp), max(x, xp)
    return -1.0 / k * cmath.exp(-1j * k * lo) * math.sin(k * hi)


def green_inside(epsilon: float, width: float, x: float, xp: float) -> complex:
    """Propagator inside the barrier with hard walls at both edges.

    Has true poles at the hard-wall eigenmodes ``kappa * width = n pi``;
    those raise PoleError rather than returning an overflow.
    """
    if not (0.0 <= x <= width and 0.0 <= xp <= width):
        raise DomainError("green_inside needs both points in [0, width]")
    _, kappa = wave_numbers(float(epsilon))
    s = cmath.sin(kappa * width)
    if abs(s) < 1e-13:
        raise PoleError("evaluation at an internal hard-wall mode")
    lo, hi = min(x, xp), max(x, xp)
    return -cmath.sin(kappa * lo) * cmath.sin(kappa * (hi - width)) / (kappa * s)


def green_right(epsilon: float, width: float, x: float, xp: float) -> complex:
    """Propagator right of the barrier with a hard wall at x = width."""
    if x < width or xp < width:
        raise DomainError("green_right needs both points at x >= width")
    k = math.sqrt(epsilon)
    lo, hi = min(x, xp), max(x, xp)
    return (1.0 / k * cmath.exp(1j * k * (hi - width))
            * math.sin(k * (lo - width)))


def assemble_transmission_green(
    epsilon: float,
    width: float,
    x_source: float,
    x_detect: float,
) -> complex:
    """Full propagator from a source left of the barrier to a detector
    right of it, assembled from restricted propagators and local junction
    corrections at the two edges.

    The two-edge system closes into a 2 x 2 linear problem: ``V`` holds
    the wall-to-wall legs through the interior, the diagonal ``X`` the
    local excursion weight at an edge, and the resummed junction matrix is
    ``M = V (1 - X V)^{-1}``.
    """
    if not x_source < 0.0:
        raise DomainError("source must sit left of the barrier")
    if not x_detect > width:
        raise DomainError("detector must sit right of the barrier")
    _check_inputs(epsilon, width)
    k, kappa = wave_numbers(float(epsilon))
    s = cmath.sin(kappa * width)
    c = cmath.cos(kappa * width)
    if abs(s) < 1e-13:
        raise PoleError("junction blocks are singular at a hard-wall mode")
    # the junction gauge fixes only the product of leg and excursion
    # factors; this split (negative legs, excursion -ik) makes the
    # transparent-barrier limit come out as the free propagator exactly
    alpha = -kappa / (k * k * s)
    legs = np.array([[-c * alpha, alpha], [alpha, -c * alpha]])
    m = np.linalg.solve(np.eye(2) + 1j * k * legs, legs)
    hit = cmath.exp(-1j * k * x_source)
    emit = cmath.exp(1j * k * (x_detect - width))
    return hit * m[0, 1] * emit


def transmission_from_green(
    epsilon: float,
    width: float,
    x_source: float = -1.7,
    x_detect: float | None = None,
) -> complex:
    """Amplitude ratio recovered from the assembled propagator.

    Divides out the free propagator between the same two points; the
    result must not depend on where source and detector sit.
    """
    if x_detect is None:
        x_detect = width + 2.3
    g = assemble_transmission_green(epsilon, width, x_source, x_detect)
    return g / green_free(epsilon, x_source, x_detect)


# -- damping kernel -----------------------------------------------------------

class CLCoefficients(NamedTuple):
    """Time dependent coefficients of the quadratic influence phase."""

    symmetric: np.ndarray
    decaying: np.ndarray
    growing: np.ndarray


def propagator_coefficients(kernel: DampingKernel, t) -> CLCoefficients:
    """The three influence coefficients of ``kernel`` at times t > 0.

    Each carries one factor of the particle mass, so in the clean
    limit all three reduce to the free-particle ``m / (2t)`` and in
    general ``f(t) = (2 t / m) * growing(t)`` holds identically.  The
    short-time pole makes t = 0 invalid.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise PoleError("influence coefficients diverge at t <= 0")
    if kernel.gamma == 0.0:
        half = MASS * 0.5 / t
        return CLCoefficients(half, half, half)
    sig = kernel.sigma
    den = -np.expm1(-2.0 * sig * t)
    sym = MASS * 0.5 * sig * (1.0 + np.exp(-2.0 * sig * t)) / den
    dec = MASS * sig * np.exp(-(kernel.gamma + sig) * t) / den
    gro = MASS * sig * np.exp((kernel.gamma - sig) * t) / den
    return CLCoefficients(sym, dec, gro)


def peak_time(kernel: DampingKernel) -> float:
    """Location of the (tiny) maximum of f; 0.0 in the clean limit.

    f grows on [0, t0] with total rise of order (gamma/sigma)^2 and
    only decays monotonically beyond t0, so grids probing the decay
    should start past this point.
    """
    if kernel.gamma == 0.0:
        return 0.0
    sig = kernel.sigma

    def excess(t: float) -> float:
        x = sig * t
        if x < 1e-3:
            # sigma coth(sigma t) - 1/t = sigma^2 t/3 - sigma^4 t^3/45
            return sig * x / 3.0 - sig * x ** 3 / 45.0 - kernel.gamma
        return sig / math.tanh(x) - 1.0 / t - kernel.gamma

    lo = hi = 3.0 * kernel.gamma / sig ** 2
    while excess(lo) > 0.0:
        lo /= 4.0
    while excess(hi) < 0.0:
        hi *= 4.0
    # excess rises with t (1/t^2 > sigma^2/sinh^2(sigma t)): bisect fully
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
        mid = 0.5 * (lo + hi)
    return float(mid)


def series_coefficients(kernel: DampingKernel, n_terms: int):
    """Amplitudes and rates of the exponential expansion of sqrt(f)."""
    if kernel.gamma == 0.0:
        raise DegenerateKernelError("clean limit has no exponential expansion")
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    rates = kernel.decay_gap + 2.0 * kernel.sigma * np.arange(n_terms)
    return _central_binomials(n_terms), rates


def sqrt_f_series(kernel: DampingKernel, t, n_terms: int):
    """Partial sum of the exponential expansion of sqrt(f) at t > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise DomainError("the expansion holds for t > 0")
    amps, rates = series_coefficients(kernel, n_terms)
    acc = np.sqrt(2.0 * kernel.sigma * t) * (
        amps * np.exp(-np.multiply.outer(t, rates))).sum(axis=-1)
    return float(acc) if acc.ndim == 0 else acc


def residual_spectrum(kernel: DampingKernel, omega) -> np.ndarray:
    """Kernel spectrum less its ladder's by direct sums at every frequency,
    the reference for the residual interpolant; made at |omega| and
    conjugated for omega < 0, so -0 mirrors a cancelled +0."""
    flat = np.asarray(omega, dtype=float)
    x = np.abs(flat)
    out = np.asarray(kernel.sqrt_f_spectrum(x)
                     - subtraction_ladder(kernel).spectrum(x))
    return np.conjugate(out, out=out, where=flat < 0.0)[()]


# -- cumulative amplitude -----------------------------------------------------

class TrapezoidCumulative(NamedTuple):
    """C_D on [-W, W] and the coefficient ``(g'(W) - g'(-W)) / (12 H0)``
    of the endpoint term that a trapezoid step h adds, h^2 times it."""

    values: np.ndarray
    endpoint: np.ndarray


def trapezoid_cumulative(epsilon: float, width: float, kernel: DampingKernel,
                         taus, step: float,
                         w_half: float) -> TrapezoidCumulative:
    """C_D(tau) = (1 / (pi H0)) int_{-W}^{W} H(w) sin(w tau) / w dw by the
    trapezoid rule at ``step`` on W = ``w_half``, less its h^2 endpoint
    term (h^2 / 12)(g'(W) - g'(-W)), g being the integrand and H' at +-W
    one-sided three-point differences.  One sine per node and time, no
    angle addition and no Gaussian split; H is the height sweep on this
    grid.  A plain trapezoid sum at step h is ``values + h^2 endpoint`` up
    to its h^4 term."""
    n_half = int(round(w_half / step))
    grid = step * np.arange(-n_half, n_half + 1)
    heights = amplitude_w_D_height_sweep(epsilon, width, kernel, grid)
    h0 = complex(heights[n_half])
    omegas = grid[n_half + 1:]
    coeffs = (heights[n_half + 1:] + heights[n_half - 1::-1]) / (
        math.pi * omegas)
    coeffs[-1] *= 0.5
    # g = H s with s(w) = sin(w tau) / (pi w) even, so g'(W) - g'(-W) =
    # (H'(W) - H'(-W)) s(W) + (H(W) + H(-W)) s'(W)
    slope_diff = ((3.0 * heights[-1] - 4.0 * heights[-2] + heights[-3])
                  + (3.0 * heights[0] - 4.0 * heights[1] + heights[2])) / (
                      2.0 * step)
    edge_sum = heights[-1] + heights[0]
    taus = np.asarray(taus, dtype=float)
    values = np.empty(taus.size, dtype=complex)
    endpoint = np.empty(taus.size, dtype=complex)
    for i, tau in enumerate(taus.ravel()):
        sin_w, cos_w = math.sin(w_half * tau), math.cos(w_half * tau)
        s = sin_w / (math.pi * w_half)
        ds = (tau * cos_w / w_half - sin_w / w_half ** 2) / math.pi
        endpoint[i] = (slope_diff * s + edge_sum * ds) / (12.0 * h0)
        total = step * (coeffs @ np.sin(omegas * tau) + tau * h0 / math.pi)
        values[i] = total / h0 - step ** 2 * endpoint[i]
    return TrapezoidCumulative(values.reshape(taus.shape),
                               endpoint.reshape(taus.shape))

r"""Transmission amplitude of a rectangular barrier, by several routes.

All routes compute the same object: the ratio ``w`` of the transmitted
wave at a detector to the freely propagated wave at the same point, for a
barrier of reduced height 1 occupying ``0 <= x <= width`` (units as in
:mod:`qbarrier.units`, energies ``epsilon = E / V0``).

Closed form, with ``k = sqrt(epsilon)`` and ``kappa = sqrt(epsilon - 1)``
on the upper branch:

    w = 2 i k kappa e^{-i k d} / D,
    D = (k^2 + kappa^2) sin(kappa d) + 2 i k kappa cos(kappa d).

The implementation divides numerator and denominator by ``kappa`` and
evaluates ``sin(kappa d) / (kappa d)`` by series near zero, so the
formula is regular across ``epsilon = 1`` where ``kappa`` vanishes.  For
strongly evanescent arguments the trigonometric functions overflow and
the code switches to the asymptotic form

    w ~ 4 k kappa e^{-i k d} e^{i kappa d} / (k + kappa)^2 .

The alternative routes exist as cross-checks and should never be mixed
into production sweeps:

* :func:`transfer_matrix_w` chains interface and propagation matrices,
* :func:`reflection_series_w` sums the multiple internal reflections,
* :func:`assemble_transmission_green` glues hard-wall region propagators
  with local junction corrections and reproduces ``w`` times the free
  propagator.

``w`` is also needed at complex barrier height (evaluations shifted by a
complex energy); :func:`amplitude_w_complex_height` exposes that without
duplicating the core.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError
from .units import wave_numbers

# imaginary part of kappa*d beyond which sin/cos are evaluated
# asymptotically (they overflow near 700)
_DEEP_IMAG = 200.0
# round trips reflection_series_w sums before it gives up
_SERIES_MAX_TERMS = 10000


def _branch_sqrt(zsq: np.ndarray) -> np.ndarray:
    """Square root on the branch with nonnegative imaginary part."""
    root = np.sqrt(np.asarray(zsq, dtype=complex))
    return np.where(root.imag < 0.0, -root, root)


def _csinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with a series fallback near the origin."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zsafe = np.where(small, 1.0, z)
    z2 = z * z
    return np.where(small, 1.0 - z2 / 6.0 + z2 * z2 / 120.0,
                    np.sin(zsafe) / zsafe)


def _w_from_ksq(k, ksq, width: float) -> np.ndarray:
    """Core amplitude for incident wave number ``k`` and internal
    ``kappa**2 = ksq`` (complex allowed), both broadcastable."""
    k = np.asarray(k, dtype=float)
    ksq = np.asarray(ksq, dtype=complex)
    kappa = _branch_sqrt(ksq)
    z = kappa * width
    deep = z.imag > _DEEP_IMAG
    zsafe = np.where(deep, 1j * _DEEP_IMAG, z)
    denom = (k * k + ksq) * width * _csinc(zsafe) + 2j * k * np.cos(zsafe)
    w = 2j * k * np.exp(-1j * k * width) / denom
    if np.any(deep):
        # e^{i z} underflows harmlessly to 0 at extreme opacity
        asym = (4.0 * k * kappa * np.exp(-1j * k * width) * np.exp(1j * z)
                / (k + kappa) ** 2)
        w = np.where(deep, asym, w)
    return w


def _as_given(value: np.ndarray):
    return complex(value) if value.ndim == 0 else value


def _check_inputs(epsilon, width: float):
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(eps > 0.0):
        raise DomainError("epsilon must be positive everywhere")
    return eps


def amplitude_w(epsilon, width: float):
    """Transmission amplitude ratio at real energy.

    ``epsilon`` may be a scalar or an array; the return type follows.
    """
    eps = _check_inputs(epsilon, width)
    return _as_given(_w_from_ksq(np.sqrt(eps), eps - 1.0, width))


def amplitude_w_complex_height(epsilon, width: float, height):
    """Amplitude with the barrier height moved to ``height`` (in V0 units,
    complex allowed) while the incident energy stays ``epsilon``.

    Used for spectral representations that sample the amplitude at
    energy-shifted and analytically continued heights.
    """
    eps = _check_inputs(epsilon, width)
    h = np.asarray(height, dtype=complex)
    return _as_given(_w_from_ksq(np.sqrt(eps), eps - h, width))


def transmission_prob(epsilon, width: float):
    """Transmission probability ``|w|**2``."""
    w = np.asarray(amplitude_w(epsilon, width))
    out = np.abs(w) ** 2
    return float(out) if out.ndim == 0 else out


def transfer_matrix_w(epsilon: float, width: float) -> complex:
    """Amplitude via interface and propagation matrices.

    Independent of the closed form: the two interface matrices and the
    internal phase are multiplied numerically.  The route is singular at
    ``epsilon = 1`` (the matrices contain 1/kappa) and overflows for very
    opaque sub-barrier settings; both raise DomainError.
    """
    _check_inputs(epsilon, width)
    k, kappa = wave_numbers(float(epsilon))
    if abs(kappa) < 1e-9:
        raise DomainError("transfer matrix route is singular at epsilon = 1")
    if abs((1j * kappa * width).real) > _DEEP_IMAG:
        raise DomainError("barrier too opaque for the transfer matrix route")
    rk = kappa / k
    rki = k / kappa
    m_in = 0.5 * np.array([[1 + rk, 1 - rk], [1 - rk, 1 + rk]])
    m_out = 0.5 * np.array([[1 + rki, 1 - rki], [1 - rki, 1 + rki]])
    phase = np.array([
        [cmath.exp(-1j * kappa * width), 0.0],
        [0.0, cmath.exp(1j * kappa * width)],
    ])
    m = m_in @ phase @ m_out
    return cmath.exp(-1j * k * width) / m[0, 0]


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


# ---------------------------------------------------------------------------
# Region propagators with hard walls at the barrier edges, and their
# assembly into the full transmission amplitude.  The three propagators
# vanish at the walls and carry outgoing conditions at infinity; each has
# derivative jump -1 at coincidence in the units used here.
# ---------------------------------------------------------------------------

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
    *,
    order: int | None = None,
) -> complex:
    """Full propagator from a source left of the barrier to a detector
    right of it, assembled from restricted propagators and local junction
    corrections at the two edges.

    The two-edge system closes into a 2 x 2 linear problem: ``V`` holds
    the wall-to-wall legs through the interior, the diagonal ``X`` the
    local excursion weight at an edge, and the resummed junction matrix is
    ``M = V (1 - X V)^{-1}``.  With ``order=n`` the geometric resummation
    is replaced by its partial sum through ``n`` extra round trips, which
    converges only where the spectral radius of ``X V`` is below one
    (away from the hard-wall modes).
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
    if order is None:
        m = np.linalg.solve(np.eye(2) + 1j * k * legs, legs)
    else:
        if order < 0:
            raise DomainError("order must be nonnegative")
        term = legs.copy()
        m = legs.copy()
        for _ in range(order):
            term = term @ (-1j * k * legs)
            m = m + term
    hit = cmath.exp(-1j * k * x_source)
    emit = cmath.exp(1j * k * (x_detect - width))
    return hit * m[0, 1] * emit


def transmission_from_green(
    epsilon: float,
    width: float,
    x_source: float = -1.7,
    x_detect: float | None = None,
    *,
    order: int | None = None,
) -> complex:
    """Amplitude ratio recovered from the assembled propagator.

    Divides out the free propagator between the same two points; the
    result must not depend on where source and detector sit.
    """
    if x_detect is None:
        x_detect = width + 2.3
    g = assemble_transmission_green(
        epsilon, width, x_source, x_detect, order=order)
    return g / green_free(epsilon, x_source, x_detect)

r"""Memory kernel of the dissipative propagator and its transforms.

The environment enters through a single suppression kernel

    f(t) = sigma t e^{gamma t} / sinh(sigma t),
    sigma = sqrt(gamma^2 + (4 gamma Omega / pi)^2),

with the friction rate ``gamma`` and bath cutoff ``Omega`` both quoted in
1/tau_star units.  ``f`` starts at 1, rises microscopically (the slope at
zero is ``+gamma``) up to a peak at ``t0`` solving
``sigma coth(sigma t0) - 1/t0 = gamma``, and decays like
``exp(-(sigma - gamma) t)`` afterwards.  ``sqrt(f)`` weights traversal
amplitudes; its one-sided Fourier transform drives every spectral
representation in :mod:`qbarrier.damped`.

Large-t expansion used throughout (exact for t > 0):

    sqrt(f(t)) = sqrt(2 sigma t) sum_n c_n e^{-s_n t},
    c_n = binom(2n, n) / 4^n,   s_n = (sigma - gamma)/2 + 2 sigma n,

which after termwise transform gives

    gtilde(omega) = sqrt(2 sigma) Gamma(3/2) sum_n c_n (s_n + i omega)^{-3/2}.

The sum converges too slowly to evaluate term by term at small error
(c_n ~ n^{-1/2}), so :meth:`DampingKernel.sqrt_f_spectrum` sums a finite
block exactly and closes the remainder with an Euler-Maclaurin tail whose
integral part is done in the variable y = 1/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateKernelError, DomainError, PoleError
from .units import MASS

# x/sinh(x) = sum_m U_COEFFS[m] x^(2m)
_U_COEFFS = (
    1.0,
    -1.0 / 6.0,
    7.0 / 360.0,
    -31.0 / 15120.0,
    127.0 / 604800.0,
    -73.0 / 3421440.0,
)

_SPECTRUM_BLOCK_MIN = 2000
_SPECTRUM_BLOCK_MAX = 100_000


@lru_cache(maxsize=1)
def _gl48_unit():
    """48 point Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(48)
    return 0.5 * (x + 1.0), 0.5 * w


def _central_ratio(x: np.ndarray) -> np.ndarray:
    """binom(2x, x) / 4^x continued to real x, i.e.
    Gamma(x + 1/2) / (sqrt(pi) Gamma(x + 1)).

    The direct gammaln difference loses all precision for huge x (two
    numbers of size x log x cancelling to size log x), so beyond 1e4 the
    standard asymptotic series takes over.
    """
    # scipy.special is imported where it is used, so that paths without
    # a damped spectrum never pay for loading it
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > 1e4
    safe = np.where(big, 1.0, x)
    out[...] = np.exp(gammaln(safe + 0.5) - gammaln(safe + 1.0)) / math.sqrt(math.pi)
    if np.any(big):
        xb = np.where(big, x, 1.0)
        inv = 1.0 / xb
        series = 1.0 + inv * (-1.0 / 8.0 + inv * (1.0 / 128.0 + inv * (
            5.0 / 1024.0 + inv * (-21.0 / 32768.0))))
        out = np.where(big, series / np.sqrt(math.pi * xb), out)
    return out


class CLCoefficients(NamedTuple):
    """Time dependent coefficients of the quadratic influence phase."""

    symmetric: np.ndarray
    decaying: np.ndarray
    growing: np.ndarray


@dataclass(frozen=True)
class DampingKernel:
    """Ohmic bath with a sharp cutoff, in reduced 1/tau_star rates.

    gamma = 0 is the clean limit: ``f`` is identically 1 and everything
    spectral is disabled (the transform of a constant is not a function).
    """

    gamma: float
    cutoff: float

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise DegenerateKernelError(
                f"friction rate must be nonnegative, got {self.gamma!r}")
        if not self.cutoff > 0.0:
            raise DegenerateKernelError(
                f"bath cutoff must be positive, got {self.cutoff!r}")

    @property
    def sigma(self) -> float:
        return math.hypot(self.gamma, 4.0 * self.gamma * self.cutoff / math.pi)

    @property
    def decay_gap(self) -> float:
        """Slowest decay rate of sqrt(f), ``(sigma - gamma) / 2``."""
        return 0.5 * (self.sigma - self.gamma)

    # -- time domain ----------------------------------------------------

    def f(self, t):
        """Suppression kernel at times t >= 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise DomainError("kernel times must be nonnegative")
        if self.gamma == 0.0:
            out = np.ones_like(t)
            return float(out) if out.ndim == 0 else out
        sig = self.sigma
        tsafe = np.where(t > 0.0, t, 1.0)
        # f = 2 sigma t e^{(gamma-sigma) t} / (1 - e^{-2 sigma t})
        val = (2.0 * sig * tsafe * np.exp((self.gamma - sig) * tsafe)
               / (-np.expm1(-2.0 * sig * tsafe)))
        out = np.where(t > 0.0, val, 1.0)
        return float(out) if out.ndim == 0 else out

    def sqrt_f(self, t):
        out = np.sqrt(self.f(t))
        return float(out) if np.ndim(out) == 0 else out

    def propagator_coefficients(self, t) -> CLCoefficients:
        """The three influence coefficients at times t > 0.

        Each carries one factor of the particle mass, so in the clean
        limit all three reduce to the free-particle ``m / (2t)`` and in
        general ``f(t) = (2 t / m) * growing(t)`` holds identically.  The
        short-time pole makes t = 0 invalid.
        """
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise PoleError("influence coefficients diverge at t <= 0")
        if self.gamma == 0.0:
            half = MASS * 0.5 / t
            return CLCoefficients(half, half, half)
        sig = self.sigma
        den = -np.expm1(-2.0 * sig * t)
        sym = MASS * 0.5 * sig * (1.0 + np.exp(-2.0 * sig * t)) / den
        dec = MASS * sig * np.exp(-(self.gamma + sig) * t) / den
        gro = MASS * sig * np.exp((self.gamma - sig) * t) / den
        return CLCoefficients(sym, dec, gro)

    def peak_time(self) -> float:
        """Location of the (tiny) maximum of f; 0.0 in the clean limit.

        f grows on [0, t0] with total rise of order (gamma/sigma)^2 and
        only decays monotonically beyond t0, so grids probing the decay
        should start past this point.
        """
        if self.gamma == 0.0:
            return 0.0
        from scipy.optimize import brentq

        sig = self.sigma

        def excess(t: float) -> float:
            x = sig * t
            if x < 1e-3:
                # sigma coth(sigma t) - 1/t = sigma^2 t/3 - sigma^4 t^3/45
                return sig * x / 3.0 - sig * x ** 3 / 45.0 - self.gamma
            return sig / math.tanh(x) - 1.0 / t - self.gamma

        lo = hi = 3.0 * self.gamma / sig ** 2
        while excess(lo) > 0.0:
            lo /= 4.0
        while excess(hi) < 0.0:
            hi *= 4.0
        return float(brentq(excess, lo, hi, xtol=1e-15))

    # -- short-time structure ------------------------------------------

    def taylor_sqrt_f(self, order: int = 4) -> np.ndarray:
        """Derivatives of sqrt(f) at t = 0, entries p = 0 .. order.

        Built from the even series of x/sinh(x), the exponential series of
        e^{gamma t}, and the square-root composition, all as exact
        recurrences.
        """
        if order < 0 or order > 2 * len(_U_COEFFS) - 2:
            raise DomainError(f"order out of range, got {order!r}")
        sig = self.sigma
        fk = np.zeros(order + 1)
        for kk in range(order + 1):
            acc = 0.0
            for m in range(0, kk // 2 + 1):
                acc += (_U_COEFFS[m] * sig ** (2 * m)
                        * self.gamma ** (kk - 2 * m)
                        / math.factorial(kk - 2 * m))
            fk[kk] = acc
        pk = np.zeros(order + 1)
        pk[0] = 1.0
        for kk in range(1, order + 1):
            conv = sum(pk[j] * pk[kk - j] for j in range(1, kk))
            pk[kk] = 0.5 * (fk[kk] - conv)
        return pk * np.array([math.factorial(p) for p in range(order + 1)])

    # -- exponential representation and spectrum ------------------------

    def series_coefficients(self, n_terms: int):
        """Amplitudes and rates of the exponential expansion of sqrt(f)."""
        if self.gamma == 0.0:
            raise DegenerateKernelError(
                "clean limit has no exponential expansion")
        if n_terms < 1:
            raise DomainError("n_terms must be at least 1")
        n = np.arange(n_terms)
        amps = np.empty(n_terms)
        amps[0] = 1.0
        if n_terms > 1:
            amps[1:] = np.cumprod((2.0 * n[1:] - 1.0) / (2.0 * n[1:]))
        rates = self.decay_gap + 2.0 * self.sigma * n
        return amps, rates

    def sqrt_f_series(self, t, n_terms: int):
        """Partial sum of the exponential expansion, for cross-checks."""
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise DomainError("the expansion holds for t > 0")
        amps, rates = self.series_coefficients(n_terms)
        acc = np.sqrt(2.0 * self.sigma * t) * (
            amps * np.exp(-np.multiply.outer(t, rates))).sum(axis=-1)
        return float(acc) if acc.ndim == 0 else acc

    def sqrt_f_spectrum(self, omega):
        """One-sided transform ``integral_0^inf sqrt(f(t)) e^{-i omega t} dt``.

        Evaluates the termwise-transformed expansion: a finite block of
        terms summed exactly, then an Euler-Maclaurin closure
        ``sum_{n>=M} h(n) = int_M^inf h + h(M)/2 - h'(M)/12`` where

            h(x) = c(x) (a + b x)^{-3/2},  a = s_0 + i omega,  b = 2 sigma,

        with ``c(x)`` the continued central binomial ratio.  The integral
        is mapped through x = 1/y^2, which turns it into a smooth finite
        range handled by one fixed Gauss-Legendre rule.  Relative accuracy
        is a few parts in 1e10 over the tested rate windows.
        """
        if self.gamma == 0.0:
            raise DegenerateKernelError(
                "clean limit has no integrable spectrum")
        from scipy.special import digamma

        om = np.asarray(omega, dtype=float)
        flat = np.atleast_1d(om).ravel()
        sig = self.sigma
        b = 2.0 * sig
        s0 = self.decay_gap
        peak = float(np.max(np.abs(flat), initial=0.0))
        m = int(min(_SPECTRUM_BLOCK_MAX,
                    max(_SPECTRUM_BLOCK_MIN, math.ceil(3.0 * peak / b))))
        amps, rates = self.series_coefficients(m)
        pref = math.sqrt(2.0 * sig) * 0.5 * math.sqrt(math.pi)

        ynod, ywgt = _gl48_unit()
        # When the term cap cuts the block short of 3|omega|/b, the
        # integrand still turns over at x ~ |omega|/b; cover [m, x_turn]
        # with geometric panels so the mapped rule never straddles it.
        panels = []
        lo = float(m)
        while b * lo < 3.0 * peak:
            hi = 4.0 * lo
            xg = lo + (hi - lo) * ynod
            panels.append(((hi - lo) * ywgt * _central_ratio(xg), xg))
            lo = hi
        ymax = 1.0 / math.sqrt(lo)
        y = ymax * ynod
        cvals = _central_ratio(1.0 / (y * y))
        cm = float(_central_ratio(np.asarray(float(m))))
        psi_m = float(digamma(m + 0.5) - digamma(m + 1.0))

        out = np.empty(flat.shape, dtype=complex)
        chunk = max(1, 2_000_000 // m)
        for i0 in range(0, flat.size, chunk):
            w = flat[i0:i0 + chunk]
            a = s0 + 1j * w
            # one work array per chunk, updated in place; with several
            # temporaries this large, malloc hands the memory back to the
            # system after every call and the next call faults it in again
            block = np.add(rates, 1j * w[:, None])
            np.power(block, -1.5, out=block)
            np.multiply(amps, block, out=block)
            block = block.sum(axis=1)
            am = a + b * m
            hm = cm * am ** -1.5
            hpm = hm * (psi_m - 1.5 * b / am)
            integ = 2.0 * ymax * (
                (ywgt * cvals)[None, :]
                * (np.multiply.outer(a, y * y) + b) ** -1.5).sum(axis=1)
            for cw, xg in panels:
                integ += (cw[None, :]
                          * (a[:, None] + b * xg[None, :]) ** -1.5).sum(axis=1)
            out[i0:i0 + chunk] = block + integ + 0.5 * hm - hpm / 12.0
        result = pref * out.reshape(np.shape(om))
        return complex(result) if result.ndim == 0 else result

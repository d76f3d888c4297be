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
(c_n ~ n^{-1/2}), so :meth:`DampingKernel.sqrt_f_spectrum` sums 128 terms
exactly and closes the remainder with a third-order Euler-Maclaurin tail
whose integral is done on geometric panels and then in the variable
y = 1/sqrt(n).  It agrees with a 30-digit mpmath sum to 1.5e-15 relative.
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
_U_COEFFS = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0,
             127.0 / 604800.0, -73.0 / 3421440.0)

# log(sqrt(pi x) c(x)) = sum_k d_k x^(-k) over odd k = 1 .. 15 for the
# central binomial ratio c below, d_k = (2^(-k) - 2) B_(k+1) / (k (k + 1))
# from the Bernoulli asymptotics of log Gamma
_LOG_RATIO = (-1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0,
              -31.0 / 18432.0, 691.0 / 180224.0, -5461.0 / 425984.0,
              929569.0 / 15728640.0)

# exact terms summed by every spectrum call; see sqrt_f_spectrum
_SPECTRUM_BLOCK = 128


def _central_ratio(x: np.ndarray) -> np.ndarray:
    """binom(2x, x) / 4^x continued to real x >= 8, i.e.
    Gamma(x + 1/2) / (sqrt(pi) Gamma(x + 1)), as exp(sum_k d_k x^(-k)) /
    sqrt(pi x).  The first omitted term is 1.6e-16 at x = 8 and falls like
    x^(-17), so no precision is lost to cancelling log Gammas."""
    x = np.asarray(x, dtype=float)
    inv2 = 1.0 / (x * x)
    acc = 0.0
    for d in reversed(_LOG_RATIO):
        acc = acc * inv2 + d
    return np.exp(acc / x) / np.sqrt(math.pi * x)


def _central_binomials(count: int) -> np.ndarray:
    """c_n = binom(2n, n) / 4^n for n < count, by their ratio recurrence."""
    n = np.arange(1.0, count)
    return np.cumprod(np.concatenate(([1.0], (2.0 * n - 1.0) / (2.0 * n))))


@lru_cache(maxsize=1)
def _closure_terms(x: float) -> tuple:
    """c(x) and the first three derivatives of log c at x, by the series."""
    l1, l2, l3 = -0.5 / x, 0.5 / x ** 2, -1.0 / x ** 3
    for k, d in zip(range(1, 2 * len(_LOG_RATIO), 2), _LOG_RATIO):
        l1 -= k * d * x ** (-k - 1)
        l2 += k * (k + 1) * d * x ** (-k - 2)
        l3 -= k * (k + 1) * (k + 2) * d * x ** (-k - 3)
    return float(_central_ratio(x)), l1, l2, l3


@lru_cache(maxsize=None)
def _spectrum_rule(n_panels: int) -> tuple:
    """Nodes x_j and weights w_j with sum_j w_j (a + b x_j)^{-3/2} equal to
    the spectrum sum less its closure: the exact block n < M, then
    int_M^inf c(x) (a + b x)^{-3/2} dx by 48-point Gauss-Legendre rules on
    ``n_panels`` panels [lo, 4 lo] and beyond them in y = 1/sqrt(x)."""
    ynod, ywgt = np.polynomial.legendre.leggauss(48)
    ynod, ywgt = 0.5 * (ynod + 1.0), 0.5 * ywgt
    xs = [np.arange(float(_SPECTRUM_BLOCK))]
    ws = [_central_binomials(_SPECTRUM_BLOCK)]
    lo = float(_SPECTRUM_BLOCK)
    for _ in range(n_panels):
        xs.append(lo + 3.0 * lo * ynod)
        ws.append(3.0 * lo * ywgt * _central_ratio(xs[-1]))
        lo *= 4.0
    ymax = 1.0 / math.sqrt(lo)  # dx = 2 x^{3/2} dy
    xs.append(1.0 / (ymax * ynod) ** 2)
    ws.append(2.0 * ymax * ywgt * _central_ratio(xs[-1]) * xs[-1] ** 1.5)
    nodes, weights = np.concatenate(xs), np.concatenate(ws)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
        # excess rises with t (1/t^2 > sigma^2/sinh^2(sigma t)): bisect fully
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
            mid = 0.5 * (lo + hi)
        return float(mid)

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
        rates = self.decay_gap + 2.0 * self.sigma * np.arange(n_terms)
        return _central_binomials(n_terms), rates

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

        Sums the termwise-transformed expansion: the first M = 128 terms
        exactly, the rest by the Euler-Maclaurin closure through h'''

            int_M^inf h + h(M) [1/2 - e1/12 + (e1^3 + 3 e1 e2 + e3)/720],
            h(x) = c(x) (a + b x)^{-3/2},  a = s_0 + i omega,  b = 2 sigma,

        with ``c(x)`` the continued central binomial ratio and e1..e3 the
        derivatives of log h at M.  Those are O(1/M), so the first omitted
        term, h^(5)(M)/30240, is about |h(M)| / (42 M^5), i.e.
        b^{-3/2} / (42 sqrt(pi) M^7) at small |omega|: below 1e-17 of the
        sum at M = 128, which is why one fixed block suffices.  The
        integral is done by ``_spectrum_rule``.  Relative error against a
        30-digit mpmath sum: at most 1.5e-15 for gamma in [1e-6, 5], Omega
        in [10, 1000] and |omega| <= 400.
        """
        if self.gamma == 0.0:
            raise DegenerateKernelError(
                "clean limit has no integrable spectrum")
        om = np.asarray(omega, dtype=float)
        flat = np.atleast_1d(om).ravel()
        b = 2.0 * self.sigma
        peak = float(np.max(np.abs(flat), initial=0.0))
        if not peak < math.inf:
            raise DomainError("spectral frequencies must be finite")
        pref = math.sqrt(b) * 0.5 * math.sqrt(math.pi)
        # panels cover [M, 3|omega|/b], past the turnover of the integrand
        # at x ~ |omega|/b, so that the last rule never straddles it
        n_panels, lo = 0, b * _SPECTRUM_BLOCK
        while lo < 3.0 * peak:
            n_panels, lo = n_panels + 1, 4.0 * lo
        nodes, wts = _spectrum_rule(n_panels)
        bx = b * nodes
        cm, l1, l2, l3 = _closure_terms(float(_SPECTRUM_BLOCK))

        out = np.empty(flat.shape, dtype=complex)
        # per chunk, the work array (updated in place, so that bulk calls
        # churn no big temporaries) and its square root stay within 8 MB
        chunk = max(1, (1 << 18) // bx.size)
        for i0 in range(0, flat.size, chunk):
            a = self.decay_gap + 1j * flat[i0:i0 + chunk]
            # z^{-3/2} as 1/(z sqrt(z)), a third of the cost of np.power
            terms = np.add(bx, a[:, None])
            np.multiply(terms, np.sqrt(terms), out=terms)
            np.divide(wts, terms, out=terms)
            am = a + b * _SPECTRUM_BLOCK
            r = b / am
            e1, e2, e3 = l1 - 1.5 * r, l2 + 1.5 * r * r, l3 - 3.0 * r ** 3
            out[i0:i0 + chunk] = terms.sum(axis=1) + cm * am ** -1.5 * (
                0.5 - e1 / 12.0 + (e1 ** 3 + 3.0 * e1 * e2 + e3) / 720.0)
        result = pref * out.reshape(np.shape(om))
        return complex(result) if result.ndim == 0 else result

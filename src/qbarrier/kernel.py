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
(c_n ~ n^{-1/2}), so :meth:`DampingKernel.sqrt_f_spectrum` sums 24 terms
exactly below |omega| = 40 sigma, closing the rest by an Euler-Maclaurin
tail through h^(7) whose integral is a 24-node rule in y = 1/sqrt(n), and
from there on takes Watson's series
sum_{k <= 10} sqrt(f)^(k)(0) / (i omega)^(k+1): within 5.2e-16 and
2.2e-16 relative of a 30-digit mpmath sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateKernelError, DomainError

# x/sinh(x) = sum_m U_COEFFS[m] x^(2m)
_U_COEFFS = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0,
             127.0 / 604800.0, -73.0 / 3421440.0)

# log(sqrt(pi x) c(x)) = sum_k d_k x^(-k) over odd k = 1 .. 15 for the
# central binomial ratio c below, d_k = (2^(-k) - 2) B_(k+1) / (k (k + 1))
# from the Bernoulli asymptotics of log Gamma
_LOG_RATIO = (-1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0,
              -31.0 / 18432.0, 691.0 / 180224.0, -5461.0 / 425984.0,
              929569.0 / 15728640.0)

# exact terms, tail Gauss-Legendre nodes and the order of the last
# Euler-Maclaurin derivative of every summed spectrum; see sqrt_f_spectrum
_SPECTRUM_BLOCK = 24
_TAIL_NODES = 24
_CLOSURE_ORDER = 7
# from this many sigma on, the spectrum is its large-omega series
_SERIES_SIGMAS = 40.0


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


def _real(x, what: str) -> np.ndarray:
    """x as floats; complex x raises rather than lose its imaginary part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise DomainError(f"{what} must be real, got {x.dtype}")
    return x.astype(float, copy=False)


def _central_binomials(count: int) -> np.ndarray:
    """c_n = binom(2n, n) / 4^n for n < count, by their ratio recurrence."""
    n = np.arange(1.0, count)
    return np.cumprod(np.concatenate(([1.0], (2.0 * n - 1.0) / (2.0 * n))))


@lru_cache(maxsize=None)
def _spectrum_rule() -> tuple:
    """Nodes x_j, weights w_j and closure coefficients q_7 .. q_0 of the
    spectrum sum: sum_j w_j (a + b x_j)^{-3/2} over the exact block n < M
    and one Gauss-Legendre rule in 1/sqrt(x) for int_M^inf h, plus
    (a + b M)^{-3/2} sum_k q_k r^k, r = b / (a + b M), the Euler-Maclaurin
    closure h(M) [1/2 - sum_k B_2k / (2k)! h^(2k-1)(M) / h(M)] to h^(7)."""
    x, order = float(_SPECTRUM_BLOCK), _CLOSURE_ORDER
    # d^k log h at M as polynomials in r: the log c series in 1/x, and
    # (-1)^k 3/2 (k-1)! r^k from -3/2 log(a + b x)
    dlog = np.zeros((order + 1, order + 1))
    for k in range(1, order + 1):
        dlog[k, 0] = 0.5 * (-1) ** k * math.factorial(k - 1) / x ** k
        for j, d in zip(range(1, 2 * len(_LOG_RATIO), 2), _LOG_RATIO):
            dlog[k, 0] += (-1) ** k * math.prod(range(j, j + k)) * d / x ** (
                j + k)
        dlog[k, k] = (-1) ** k * 1.5 * math.factorial(k - 1)
    # h^(n) / h, the complete Bell polynomials of those derivatives
    bell = [np.eye(1, order + 1)[0]]
    for n in range(order):
        bell.append(sum(math.comb(n, i) * np.convolve(
            bell[n - i], dlog[i + 1])[:order + 1] for i in range(n + 1)))
    # 1/2 less B_(k+1) / (k+1)! h^(k) / h over odd k
    closure = 0.5 * bell[0]
    for k, bern in zip(range(1, order + 1, 2), (1/6, -1/30, 1/42, -1/30)):
        closure -= bern / math.factorial(k + 1) * bell[k]
    ynod, ywgt = np.polynomial.legendre.leggauss(_TAIL_NODES)
    ynod, ywgt = 0.5 * (ynod + 1.0), 0.5 * ywgt
    ymax = 1.0 / math.sqrt(x)  # dx = 2 x^{3/2} dy
    tail = 1.0 / (ymax * ynod) ** 2
    nodes = np.concatenate([np.arange(x), tail])
    weights = np.concatenate([_central_binomials(_SPECTRUM_BLOCK),
                              2.0 * ymax * ywgt * _central_ratio(tail)
                              * tail ** 1.5])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, tuple(_central_ratio(x) * closure[::-1])


@dataclass(frozen=True)
class DampingKernel:
    """Ohmic bath with a sharp cutoff, in reduced 1/tau_star rates.

    gamma = 0 is the clean limit: ``f`` is identically 1 and everything
    spectral is disabled (the transform of a constant is not a function).
    Non-finite gamma or Omega, sigma > 1e50, or gamma > 0 with a decay gap
    that rounds to 0, raises DegenerateKernelError.
    """

    gamma: float
    cutoff: float

    def __post_init__(self):
        # amplitude_w_D's omega^5 envelope overflows from sigma ~ 1e60
        if not (0.0 <= self.gamma < math.inf and 0.0 < self.cutoff < math.inf
                and self.sigma <= 1e50
                and (self.decay_gap > 0.0 or self.gamma == 0.0)):
            raise DegenerateKernelError(
                f"need finite gamma >= 0, cutoff > 0, sigma <= 1e50 and a "
                f"positive decay gap if gamma > 0, got {self!r}")

    @property
    def sigma(self) -> float:
        return math.hypot(self.gamma, 4.0 * self.gamma * self.cutoff / math.pi)

    @property
    def decay_gap(self) -> float:
        """Slowest decay rate of sqrt(f), ``(sigma - gamma) / 2``."""
        return 0.5 * (self.sigma - self.gamma)

    # -- time domain ----------------------------------------------------

    def f(self, t):
        """Suppression kernel at real times t >= 0 (scalar or array)."""
        t = _real(t, "kernel times")
        if not np.all(t >= 0.0):
            raise DomainError("kernel times must be nonnegative")
        if self.gamma == 0.0:
            out = np.ones_like(t)
            return float(out) if out.ndim == 0 else out
        sig = self.sigma
        finite = np.isfinite(t)
        tsafe = np.where((t > 0.0) & finite, t, 1.0)
        # f = 2 sigma t e^{(gamma-sigma) t} / (1 - e^{-2 sigma t}), 0 at inf
        val = (2.0 * sig * tsafe * np.exp((self.gamma - sig) * tsafe)
               / (-np.expm1(-2.0 * sig * tsafe)))
        out = np.where(finite, np.where(t > 0.0, val, 1.0), 0.0)
        return float(out) if out.ndim == 0 else out

    def sqrt_f(self, t):
        out = np.sqrt(self.f(t))
        return float(out) if np.ndim(out) == 0 else out

    # -- short-time structure ------------------------------------------

    def taylor_sqrt_f(self, order: int = 4) -> np.ndarray:
        """Derivatives of sqrt(f) at t = 0, entries p = 0 .. order.

        Built from the even series of x/sinh(x), the exponential series of
        e^{gamma t}, and the square-root composition, all as exact
        recurrences.  Raises DomainError where a derivative overflows, as
        order 7 does at sigma 1e50 (order 4 stays finite there).
        """
        if order < 0 or order > 2 * len(_U_COEFFS) - 2:
            raise DomainError(f"order out of range, got {order!r}")
        sig = self.sigma
        overflow = (f"derivatives of sqrt(f) to order {order} overflow at "
                    f"sigma {sig:.6g}")
        fk = []
        try:
            for kk in range(order + 1):
                acc = 0.0
                for m in range(0, kk // 2 + 1):
                    acc += (_U_COEFFS[m] * sig ** (2 * m)
                            * self.gamma ** (kk - 2 * m)
                            / math.factorial(kk - 2 * m))
                fk.append(acc)
        except OverflowError:  # sig ** (2 m) on Python floats
            raise DomainError(overflow) from None
        # on Python floats, so that an overflow to inf or nan stays silent
        pk = [1.0]
        for kk in range(1, order + 1):
            conv = sum(pk[j] * pk[kk - j] for j in range(1, kk))
            pk.append(0.5 * (fk[kk] - conv))
        out = np.array([p * math.factorial(i) for i, p in enumerate(pk)])
        if not np.all(np.isfinite(out)):
            raise DomainError(overflow)
        return out

    # -- spectrum of the exponential representation ---------------------

    @cached_property
    def _series(self) -> np.ndarray:
        """c_j with C = sum_j c_j u^2j, of the large-omega series: made
        from the kernel of unit sigma, whose derivatives do not overflow."""
        unit = DampingKernel(self.gamma / self.sigma, self.cutoff)
        terms = np.resize([-1j, -1.0, 1j, 1.0], 11) * unit.taylor_sqrt_f(10)
        return np.append(terms, 0.0).reshape(6, 2).sum(1) / self.sigma

    def _series_spectrum(self, x: np.ndarray) -> np.ndarray:
        """``sqrt_f_spectrum`` at an array x >= 40 sigma, unchecked."""
        u = self.sigma / x
        v, acc = u * u + 0j, self._series[-1]
        for c in self._series[-2::-1]:
            acc = acc * v + c
        acc.real *= u
        acc *= u
        return acc

    def sqrt_f_spectrum(self, omega):
        """One-sided transform ``integral_0^inf sqrt(f(t)) e^{-i omega t} dt``.

        Below |omega| = 40 sigma it sums the termwise-transformed
        expansion: the first M = 24 terms exactly, the rest by the
        Euler-Maclaurin closure through h^(7)

            int_M^inf h + h(M)/2 - h'(M)/12 + h'''(M)/720
                - h^(5)(M)/30240 + h^(7)(M)/1209600,
            h(x) = c(x) (a + b x)^{-3/2},  a = s_0 + i omega,  b = 2 sigma,

        with ``c(x)`` the continued central binomial ratio: h(M) times one
        polynomial of degree 7 in r = b / (a + b M), whose coefficients and
        the integral's nodes are ``_spectrum_rule``.  The derivatives of
        log h are O(1/M), so the first omitted term, h^(9)(M)/47900160, is
        about |h(M)| / (14 M^9) at small |omega|: 2.9e-18 of the sum at
        omega = 0 and below 1e-16 of it up to 40 sigma at M = 24, which is
        why one fixed block suffices.  From 40 sigma on it is the series
        u (u Re C + i Im C) of ``_series`` in u = sigma/|omega|.  Every
        entry is made at |omega| and conjugated for omega < 0.
        Relative error against a 30-digit mpmath sum at every finite omega,
        for gamma in [1e-6, 5] and Omega in [10, 1000]: at most 5.2e-16
        below 40 sigma and 2.2e-16 from there on.
        """
        if self.gamma == 0.0:
            raise DegenerateKernelError(
                "clean limit has no integrable spectrum")
        flat = _real(omega, "spectral frequencies").ravel()
        x = np.abs(flat)
        if not np.max(x, initial=0.0) < math.inf:
            raise DomainError("spectral frequencies must be finite")
        far = x >= _SERIES_SIGMAS * self.sigma
        out = np.empty(flat.shape, dtype=complex)
        if far.any():
            out[far] = self._series_spectrum(x[far])
        near = x[~far]
        if near.size:  # the block's set-up only where an entry needs it
            b, (nodes, wts, closure) = 2.0 * self.sigma, _spectrum_rule()
            bx, sums = b * nodes, np.empty(near.shape, dtype=complex)
            # per chunk the work array, updated in place, and its square
            # root stay within 1 MB: 8 MB peaked higher in bulk, no faster
            chunk = (1 << 15) // bx.size
            for i0 in range(0, near.size, chunk):
                a = self.decay_gap + 1j * near[i0:i0 + chunk]
                # z^{-3/2} as 1/(z sqrt(z)), a third of the cost of np.power
                terms = np.add(bx, a[:, None])
                np.multiply(terms, np.sqrt(terms), out=terms)
                np.divide(wts, terms, out=terms)
                am = a + b * _SPECTRUM_BLOCK
                r, acc = b / am, closure[0]
                for q in closure[1:]:
                    acc = acc * r + q
                sums[i0:i0 + chunk] = terms.sum(axis=1) + acc * am ** -1.5
            out[~far] = math.sqrt(b) * 0.5 * math.sqrt(math.pi) * sums
        np.conjugate(out, out=out, where=flat < 0.0)
        result = out.reshape(np.shape(omega))
        return complex(result) if result.ndim == 0 else result

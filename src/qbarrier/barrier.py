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
formula is regular across ``epsilon = 1`` where ``kappa`` vanishes.  Where
Im kappa^2 > 0 (the ladder's heights) and |z| >= 1, z = kappa d, or where
sin and cos overflow (Im z > 200), |e^{i z}| < 1 and the code sums the
paper's path decomposition over all round trips instead, with one exp:

    w = 4 k kappa e^{-i k d} e^{i z} / ((k + kappa)^2 - (k - kappa)^2 e^{2 i z}).

Deep, this is the asymptotic form 4 k kappa e^{-i k d} e^{i z} / (k + kappa)^2
to the bit.  Next to the barrier top both terms tend to k^2: there the form
lost a digit (2.3e-14 against 50-digit mpmath; the sinc form 6.3e-16).

:func:`transfer_matrix_w` chains interface and propagation matrices, a
cross-check that stays here because ``perfbench/workloads.py`` imports
it from this module; the other routes live with the tests.

``w`` is also needed at complex barrier height (evaluations shifted by a
complex energy); :func:`amplitude_w_complex_height` exposes that without
duplicating the core.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError
from .units import wave_numbers

# imaginary part of kappa*d beyond which sin/cos are not evaluated
# (they overflow near 700)
_DEEP_IMAG = 200.0


def _branch_sqrt(zsq: np.ndarray) -> np.ndarray:
    """Square root on the branch with nonnegative imaginary part."""
    root = np.asarray(np.sqrt(np.asarray(zsq, dtype=complex)))
    return np.negative(root, out=root, where=root.imag < 0.0)


def _csinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with a series fallback near the origin."""
    z = np.asarray(z, dtype=complex)
    if not np.any((np.abs(z.real) < 1e-4) & (np.abs(z.imag) < 1e-4)):
        return np.asarray(np.sin(z) / z)
    small = np.abs(z) < 1e-4
    zsafe = np.where(small, 1.0, z)
    out = np.asarray(np.sin(zsafe) / zsafe)
    # the series on the small entries only: z^4 overflows from |z| ~ 1e77
    z2 = z[small] * z[small]
    out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return out


def _w_from_ksq(k, ksq, width: float) -> np.ndarray:
    """Core amplitude for incident wave number ``k`` and internal
    ``kappa**2 = ksq`` (complex allowed), both broadcastable; 0-d input runs
    as an array of one, as numpy's scalar arithmetic rounds otherwise."""
    k = np.asarray(k, dtype=float)
    ksq = np.asarray(ksq, dtype=complex)
    if k.ndim == ksq.ndim == 0:
        return _w_from_ksq(k.reshape(1), ksq.reshape(1), width).reshape(())
    kappa = _branch_sqrt(ksq)
    z = kappa * width
    path, up = z.imag > _DEEP_IMAG, ksq.imag > 0.0
    if up.any():
        with np.errstate(over="ignore"):  # |z|^2 is then above 1 all the same
            path |= up & (z.real * z.real + z.imag * z.imag >= 1.0)
    full = path.all()
    if full or not path.any():
        return (_path_form if full else _sinc_form)(k, ksq, kappa, z, width)
    *args, path = np.broadcast_arrays(k, ksq, kappa, z, path)
    w = np.empty(path.shape, dtype=complex)
    for form, where in ((_path_form, path), (_sinc_form, ~path)):
        w[where] = form(*(a[where] for a in args), width)
    return w


def _path_form(k, ksq, kappa, z, width: float) -> np.ndarray:
    e = np.exp(1j * z)  # |e| < 1; underflows harmlessly at extreme opacity
    return (4.0 * k * kappa * np.exp(-1j * k * width) * e
            / ((k + kappa) ** 2 - (k - kappa) ** 2 * (e * e)))


def _sinc_form(k, ksq, kappa, z, width: float) -> np.ndarray:
    denom = (k * k + ksq) * width * _csinc(z) + 2j * k * np.cos(z)
    return 2j * k * np.exp(-1j * k * width) / denom


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


def check_height_shift(width: float, shift: float) -> None:
    """Raise DomainError unless the heights ``1 - (2 / width) * omega`` of
    the spectral routes stay finite for every ``|omega| <= shift``."""
    if not (2.0 / float(width)) * float(shift) < math.inf:
        raise DomainError(f"width {float(width)!r} is too small: heights "
                          f"shifted by up to {float(shift):.6g} overflow")


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

r"""Reduced units and conversion helpers.

The whole package works in the unit system

    hbar = 2 m = lambda0 = 1

where ``lambda0 = hbar / sqrt(2 m V0)`` is the tunneling decay length of a
rectangular barrier of height ``V0`` at vanishing incident energy.  Fixing
all three scales pins the barrier height to ``V0 = 1``, so energies are
quoted as the ratio ``epsilon = E / V0`` and lengths as multiples of
``lambda0``.

Times are reported in units of the reference crossing time

    tau_star = d / v_star,    v_star = sqrt(2 V0 / m),

the flight time across the barrier region of a classical particle whose
total energy equals the barrier height.  With ``d_hat = d / lambda0`` this
is ``tau_star = d_hat / 2`` in raw ``hbar / V0`` time units.  A rate quoted
as ``omega_star`` means ``omega * tau_star``, and the matching energy scale
is ``hbar * omega / V0 = 2 * omega_star / d_hat``.

Above the barrier the internal wave number is real and the classical
crossing time is ``tau_cl / tau_star = 1 / sqrt(epsilon - 1)``.  The
transmission resonances sit at ``epsilon_n = 1 + (n pi / d_hat)**2``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError


def wave_numbers(epsilon: float) -> tuple[float, complex]:
    """Wave numbers ``(k, kappa)`` in 1/lambda0 units for reduced energy
    ``epsilon``: ``k`` outside the barrier, ``kappa`` inside it.

    ``kappa`` is taken on the branch with nonnegative imaginary part, so it
    is real above the barrier and ``+i |kappa|`` below it.
    """
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    k = math.sqrt(epsilon)
    # the +0.0 imaginary part puts cmath.sqrt on the upper branch
    return k, cmath.sqrt(complex(epsilon - 1.0, 0.0))


def classical_crossing_time(epsilon: float) -> float:
    """Classical crossing time in tau_star units, ``1 / sqrt(epsilon - 1)``.

    Defined only above the barrier; below it there is no classical crossing.
    """
    if not epsilon > 1.0:
        raise DomainError(
            f"classical crossing time needs epsilon > 1, got {epsilon!r}"
        )
    return 1.0 / math.sqrt(epsilon - 1.0)


def resonance_energies(width: float, count: int) -> np.ndarray:
    """First ``count`` transmission resonance energies for a barrier of
    reduced width ``width = d / lambda0``.

    These are the energies where the internal phase accumulates a multiple
    of pi, ``epsilon_n = 1 + (n pi / width)**2``.  Raises DomainError
    unless every one of them is finite and keeps ``(n pi / width)**2`` to
    1e-6 relative: certain up to a width of about 3e5, where half an ulp
    of 1 reaches 1e-6 of the lowest square, and down to luck beyond.
    """
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count!r}")
    n = np.arange(1, count + 1, dtype=float)
    with np.errstate(over="ignore"):
        phase2 = (n * math.pi / width) ** 2
    eps = 1.0 + phase2
    # ascending in n: the last is the highest
    if not eps[-1] < math.inf:
        raise DomainError(
            f"{count} resonance energies of width {width!r} overflow")
    # adding 1 rounds (n pi / width)^2 to the ulp of 1; strict, so that a
    # square that underflows to 0 fails as well
    if not np.all(np.abs((eps - 1.0) - phase2) < 1e-6 * phase2):
        raise DomainError(
            f"resonance energies of width {width!r} lose (n pi / width)^2 "
            "to rounding by more than 1e-6 relative")
    return eps


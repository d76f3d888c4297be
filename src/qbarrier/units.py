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
from typing import NamedTuple

import numpy as np

from .errors import DomainError

MASS = 0.5


class WaveNumbers(NamedTuple):
    """Wave numbers in 1/lambda0 units: k outside the barrier, kappa inside."""

    k: float
    kappa: complex


def wave_numbers(epsilon: float) -> WaveNumbers:
    """Incident and internal wave numbers for reduced energy ``epsilon``.

    ``kappa`` is taken on the branch with nonnegative imaginary part, so it
    is real above the barrier and ``+i |kappa|`` below it.
    """
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    k = math.sqrt(epsilon)
    kappa = cmath.sqrt(complex(epsilon - 1.0, 0.0))
    if kappa.imag < 0.0:
        kappa = -kappa
    return WaveNumbers(k, kappa)


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
    of pi, ``epsilon_n = 1 + (n pi / width)**2``.
    """
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count!r}")
    n = np.arange(1, count + 1, dtype=float)
    return 1.0 + (n * math.pi / width) ** 2


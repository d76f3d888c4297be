"""Quantum transmission through a rectangular barrier with Ohmic damping.

Reduced units throughout: hbar = 2m = 1, lengths in units of
lambda0 = hbar / sqrt(2 m V0), the barrier-top wavelength over 2 pi,
energies in units of the barrier height V0, times in units of
tau_star = width / 2.  See :mod:`qbarrier.units` for the conversion rules.
"""

__version__ = "0.1.0"

from .barrier import (amplitude_w, amplitude_w_complex_height,
                      transmission_prob)
from .damped import amplitude_w_D
from .errors import (DegenerateKernelError, DegenerateSuppressionError,
                     DomainError, NonConvergenceError, QBarrierError,
                     WindowError)
from .kernel import DampingKernel
from .traversal import (SpectralGrid, cumulative_amplitude, distribution_F,
                        distribution_F_D, mean_traversal_closed,
                        mean_traversal_derivative)
from .units import classical_crossing_time, resonance_energies, wave_numbers

__all__ = [
    "DampingKernel",
    "DegenerateKernelError",
    "DegenerateSuppressionError",
    "DomainError",
    "NonConvergenceError",
    "QBarrierError",
    "SpectralGrid",
    "WindowError",
    "amplitude_w",
    "amplitude_w_D",
    "amplitude_w_complex_height",
    "classical_crossing_time",
    "cumulative_amplitude",
    "distribution_F",
    "distribution_F_D",
    "mean_traversal_closed",
    "mean_traversal_derivative",
    "resonance_energies",
    "transmission_prob",
    "wave_numbers",
    "__version__",
]

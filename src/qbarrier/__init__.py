"""Quantum transmission through a rectangular barrier with Ohmic damping.

Reduced units throughout: hbar = 2m = 1, lengths in units of the
free-space wavelength at the barrier height, energies in units of the
barrier height, times in units of tau_star = width / 2.  See
:mod:`qbarrier.units` for the conversion rules.
"""

__version__ = "0.1.0"

from .barrier import (amplitude_w, amplitude_w_complex_height,
                      reflection_series_w, transfer_matrix_w,
                      transmission_from_green, transmission_prob)
from .damped import amplitude_w_D, subtraction_ladder, transmission_prob_D
from .errors import (DegenerateKernelError, DegenerateSuppressionError,
                     DomainError, NonConvergenceError, PoleError,
                     QBarrierError, WindowError)
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
    "PoleError",
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
    "reflection_series_w",
    "resonance_energies",
    "subtraction_ladder",
    "transfer_matrix_w",
    "transmission_from_green",
    "transmission_prob",
    "transmission_prob_D",
    "wave_numbers",
    "__version__",
]

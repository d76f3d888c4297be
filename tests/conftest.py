"""Helpers shared by more than one test module."""

import numpy as np
import pytest

from qbarrier.quadrature import integrate_adaptive


def _spectrum_oracle(kernel, omega, tol):
    """One-sided transform of sqrt(f) at ``omega`` by direct quadrature,
    independent of the series evaluation under test.

    sqrt(f(t)) e^{gap t} / sqrt(t) = sqrt(2 sigma / (1 - e^{-2 sigma t}))
    decreases with t, so past T sqrt(f(t)) stays below
    sqrt(f(T)) sqrt(t / T) e^{-gap (t - T)}, whose integral is at most
    sqrt(f(T)) (1 + 1 / (2 gap T)) / gap.  T doubles until that bound is
    below tol / 4, and [0, T] is seeded with panels two radians of the
    phase wide.
    """
    gap = kernel.decay_gap
    stop = 1.0 / gap
    while kernel.sqrt_f(stop) * (1.0 + 0.5 / (gap * stop)) / gap > 0.25 * tol:
        stop *= 2.0
    fn = lambda t: kernel.sqrt_f(t) * np.exp(-1j * omega * t)
    marks = np.arange(0.0, stop, 2.0 / max(abs(omega), 0.25))
    return integrate_adaptive(fn, 0.0, stop, tol, breakpoints=marks).value


@pytest.fixture
def spectrum_oracle():
    return _spectrum_oracle

import math

import numpy as np
import pytest

from qbarrier.errors import DomainError
from qbarrier.units import (classical_crossing_time, resonance_energies,
                            wave_numbers)


def test_wave_numbers_above_barrier():
    k, kappa = wave_numbers(2.0)
    assert k == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert kappa == pytest.approx(1.0, rel=1e-15)
    assert kappa.imag == 0.0


def test_wave_numbers_below_barrier_branch():
    # evanescent side must sit on the upper branch, +i|kappa|
    k, kappa = wave_numbers(0.36)
    assert k == pytest.approx(0.6, rel=1e-15)
    assert kappa.real == 0.0
    assert kappa.imag == pytest.approx(0.8, rel=1e-15)


def test_wave_numbers_rejects_nonpositive_energy():
    with pytest.raises(DomainError):
        wave_numbers(0.0)
    with pytest.raises(DomainError):
        wave_numbers(-1.0)


def test_classical_crossing_time_values():
    assert classical_crossing_time(2.0) == pytest.approx(1.0, rel=1e-15)
    assert classical_crossing_time(5.0) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainError):
        classical_crossing_time(1.0)
    with pytest.raises(DomainError):
        classical_crossing_time(0.5)


def test_resonance_energies_frozen():
    got = resonance_energies(5.0, 4)
    ref = np.array([1.3947841760435743, 2.5791367041742972,
                    4.5530575843921688, 7.3165468166971883])
    np.testing.assert_allclose(got, ref, rtol=1e-15)


def test_resonance_energies_phase_condition():
    # kappa_n * d must be an integer multiple of pi
    width = 3.7
    eps = resonance_energies(width, 6)
    for n, e in enumerate(eps, start=1):
        assert math.sqrt(e - 1.0) * width == pytest.approx(n * math.pi,
                                                           rel=1e-14)


def test_resonance_energies_refuse_a_rounded_phase():
    # 1 + (pi / width)^2 keeps the square to 7.4e-8 relative at 1e5, but
    # misses it by 5.7e-6 at 1e6 and by 0.10 at 1e8
    eps = resonance_energies(1e5, 4)
    n = np.arange(1, 5)
    np.testing.assert_allclose(eps - 1.0, (n * math.pi / 1e5) ** 2,
                               rtol=1e-6)
    for width in (1e6, 1e8):
        with pytest.raises(DomainError, match="by more than 1e-6 relative"):
            resonance_energies(width, 4)

"""The integrator is the load-bearing wall of the spectral code, so it
gets exercised on finite-range integrals with known values, on its
breakpoint seeding and call batching, and on its failure modes."""

import math

import numpy as np
import pytest

from qbarrier.errors import DomainError, NonConvergenceError
from qbarrier.quadrature import integrate_adaptive


def test_polynomial_exact():
    # degree 13 is inside the Kronrod rule's exactness range
    res = integrate_adaptive(lambda x: 7.0 * x ** 6, 0.0, 2.0, 1e-12)
    assert res.value.real == pytest.approx(2.0 ** 7, rel=1e-14)
    assert res.panels_used == 1


def test_gaussian_against_erf():
    res = integrate_adaptive(lambda x: np.exp(-x * x), -6.0, 6.0, 1e-13)
    assert res.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert res.error_estimate <= 1e-13


def test_complex_oscillatory():
    # int_0^10 e^{i 40 x} dx, resolved by seeding quarter-period panels
    res = integrate_adaptive(
        lambda x: np.exp(40j * x), 0.0, 10.0, 1e-10,
        breakpoints=np.arange(0.0, 10.0, 0.5 * math.pi / 40.0))
    exact = (np.exp(400j) - 1.0) / 40j
    assert res.value == pytest.approx(exact, abs=1e-10)


def test_breakpoint_seeding_catches_narrow_spike():
    # a spike of width 1e-3 in a huge range is invisible to the seed
    # panels unless a breakpoint lands near it
    spike = lambda x: np.exp(-((x - 0.2) / 1e-3) ** 2)
    exact = 1e-3 * math.sqrt(math.pi)
    res = integrate_adaptive(spike, -50.0, 50.0, 1e-12,
                             breakpoints=[0.2 - 5e-3, 0.2, 0.2 + 5e-3])
    assert res.value.real == pytest.approx(exact, rel=1e-10)


def test_nonconvergence_carries_best_estimate():
    wild = lambda x: np.cos(2000.0 * x)
    with pytest.raises(NonConvergenceError) as info:
        integrate_adaptive(wild, 0.0, 30.0, 1e-14)
    err = info.value
    assert err.best_estimate is not None
    assert err.error_estimate > 1e-14


def test_determinism():
    fn = lambda x: np.sin(13.0 * x) / (1.0 + x * x)
    a = integrate_adaptive(fn, -4.0, 9.0, 1e-11)
    b = integrate_adaptive(fn, -4.0, 9.0, 1e-11)
    assert a.value == b.value
    assert a.panels_used == b.panels_used


def test_input_validation():
    fn = lambda x: np.ones_like(x)
    with pytest.raises(DomainError):
        integrate_adaptive(fn, 0.0, 1.0, -1e-6)
    with pytest.raises(DomainError):
        integrate_adaptive(fn, 1.0, 0.0, 1e-6)
    with pytest.raises(DomainError):
        integrate_adaptive(fn, 0.0, math.inf, 1e-6)  # finite ranges only
    with pytest.raises(DomainError):
        integrate_adaptive(fn, 0.0, math.nan, 1e-6)
    with pytest.raises(DomainError):
        integrate_adaptive(fn, math.nan, 1.0, 1e-6)
    with pytest.raises(DomainError):
        integrate_adaptive(fn, -1e308, 1e308, 1e-6)  # width overflows
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-6)
    with pytest.raises(DomainError):
        # scalar return instead of per-abscissa values
        integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-6)


def test_zero_width_range():
    res = integrate_adaptive(lambda x: np.ones_like(x), 2.0, 2.0, 1e-10)
    assert res.value == 0.0
    assert res.panels_used == 0


def test_panels_arrive_in_batches():
    # all seed panels in one (P, 15) call, then each bisection's two
    # halves in one (2, 15) call
    shapes = []

    def spike(x):
        shapes.append(np.shape(x))
        return np.exp(-((x - 0.2) / 1e-2) ** 2)

    res = integrate_adaptive(spike, -1.0, 1.0, 1e-12,
                             breakpoints=[-0.5, 0.0, 0.5])
    assert res.panels_used > 4
    assert shapes == [(4, 15)] + [(2, 15)] * ((res.panels_used - 4) // 2)


"""Damping kernel: stable evaluation, influence coefficients, the
exponential expansion of sqrt(f), and its one-sided spectrum against a
direct-quadrature oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbarrier
from qbarrier.errors import (DegenerateKernelError, DomainError, PoleError)
from qbarrier.kernel import DampingKernel, _central_ratio
from qbarrier.quadrature import integrate_adaptive
from qbarrier.units import MASS

STD = DampingKernel(5e-3, 100.0)


def test_sigma_frozen_values():
    assert STD.sigma == pytest.approx(0.63663940701888, rel=1e-13)
    assert STD.decay_gap == pytest.approx(0.31581970350944, rel=1e-13)
    assert DampingKernel(1e-3, 100.0).sigma == pytest.approx(
        0.127327881403776, rel=1e-13)


def test_construction_validation():
    with pytest.raises(DegenerateKernelError):
        DampingKernel(-1e-3, 100.0)
    with pytest.raises(DegenerateKernelError):
        DampingKernel(5e-3, 0.0)
    clean = DampingKernel(0.0, 100.0)
    assert clean.sigma == 0.0
    assert clean.decay_gap == 0.0


@settings(max_examples=100, deadline=None)
@given(g=st.floats(1e-6, 1.0), om=st.floats(1.0, 1e4))
def test_sigma_dominates_gamma(g, om):
    k = DampingKernel(g, om)
    assert k.sigma > k.gamma


def test_f_at_zero_and_positivity():
    assert STD.f(0.0) == 1.0
    t = np.linspace(0.0, 80.0, 400)
    vals = STD.f(t)
    assert np.all(vals > 0.0)
    assert vals[0] == 1.0


def test_f_matches_naive_formula():
    # direct sigma*t*e^{gamma t}/sinh(sigma t) where sinh is safe
    t = np.array([0.05, 0.7, 3.0, 12.0])
    s, g = STD.sigma, STD.gamma
    naive = s * t * np.exp(g * t) / np.sinh(s * t)
    np.testing.assert_allclose(STD.f(t), naive, rtol=1e-14)


def test_f_stable_at_extreme_times():
    # the naive ratio turns inf/inf = nan once gamma*t overflows; the
    # rewritten form underflows cleanly to zero instead
    t = np.array([300.0, 2e5])
    s, g = STD.sigma, STD.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        naive = s * t * np.exp(g * t) / np.sinh(s * t)
    assert math.isnan(naive[1])
    vals = STD.f(t)
    assert np.all(np.isfinite(vals))
    assert vals[0] > 0.0
    assert vals[1] == 0.0


def test_f_clean_limit():
    clean = DampingKernel(0.0, 100.0)
    t = np.linspace(0.0, 50.0, 101)
    np.testing.assert_array_equal(clean.f(t), np.ones_like(t))
    assert clean.sqrt_f(17.3) == 1.0


def test_f_rejects_negative_times():
    with pytest.raises(DomainError):
        STD.f(-0.1)


def test_peak_time_brackets_maximum():
    t0 = STD.peak_time()
    assert t0 > 0.0
    f0 = STD.f(t0)
    assert f0 >= STD.f(t0 * 0.97)
    assert f0 >= STD.f(t0 * 1.03)
    # the documented rise is second order in gamma/sigma
    assert f0 - 1.0 <= 2.0 * (STD.gamma / STD.sigma) ** 2
    assert DampingKernel(0.0, 100.0).peak_time() == 0.0


def test_peak_time_loads_no_scipy_optimize():
    # the peak is bisected in plain Python; a fresh interpreter on the same
    # package copy shows what one call pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(qbarrier.__file__).parents[1]))
    probe = ("import sys; from qbarrier.kernel import DampingKernel; "
             "DampingKernel(5e-3, 100.0).peak_time(); "
             "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_f_strictly_decreasing_past_peak():
    t0 = STD.peak_time()
    t = np.linspace(t0, t0 + 60.0, 1000)
    vals = STD.f(t)
    assert np.all(np.diff(vals) < 0.0)


def test_f_decays_faster_than_any_slower_exponential():
    gap = STD.sigma - STD.gamma
    t = np.array([40.0, 100.0, 200.0])
    weighted = STD.f(t) * np.exp(0.9 * gap * t)
    assert np.all(np.diff(weighted) < 0.0)
    assert weighted[-1] < 1e-2


def test_influence_coefficients_identity():
    # f(t) = (2 t / m) * growing(t), an exact algebraic identity
    rng = np.random.default_rng(11)
    t = rng.uniform(0.05, 40.0, size=20)
    coeff = STD.propagator_coefficients(t)
    np.testing.assert_allclose((2.0 * t / MASS) * coeff.growing, STD.f(t),
                               rtol=1e-12)


def test_influence_coefficients_closed_forms():
    t = np.array([0.3, 1.0, 4.0])
    s, g = STD.sigma, STD.gamma
    coeff = STD.propagator_coefficients(t)
    np.testing.assert_allclose(
        coeff.symmetric, MASS * 0.5 * s / np.tanh(s * t), rtol=1e-13)
    np.testing.assert_allclose(
        coeff.decaying, MASS * 0.5 * s * np.exp(-g * t) / np.sinh(s * t),
        rtol=1e-13)
    np.testing.assert_allclose(
        coeff.growing, MASS * 0.5 * s * np.exp(g * t) / np.sinh(s * t),
        rtol=1e-13)


def test_influence_coefficients_clean_limit():
    clean = DampingKernel(0.0, 100.0)
    t = np.array([0.5, 2.0])
    coeff = clean.propagator_coefficients(t)
    np.testing.assert_allclose(coeff.symmetric, MASS * 0.5 / t, rtol=1e-15)
    np.testing.assert_array_equal(coeff.symmetric, coeff.decaying)
    np.testing.assert_array_equal(coeff.decaying, coeff.growing)


def test_influence_decaying_coefficient_dies():
    coeff_1 = STD.propagator_coefficients(np.array([1.0]))
    coeff_50 = STD.propagator_coefficients(np.array([50.0]))
    assert coeff_50.decaying[0] < 1e-10 * coeff_1.decaying[0]


def test_influence_pole_at_zero():
    with pytest.raises(PoleError):
        STD.propagator_coefficients(0.0)


def test_taylor_sqrt_f_closed_forms():
    g, s = STD.gamma, STD.sigma
    ref = np.array([
        1.0,
        g / 2.0,
        g * g / 4.0 - s * s / 6.0,
        g ** 3 / 8.0 - s * s * g / 4.0,
        g ** 4 / 16.0 - g * g * s * s / 4.0 + 3.0 * s ** 4 / 20.0,
    ])
    np.testing.assert_allclose(STD.taylor_sqrt_f(4), ref, rtol=1e-13)


def test_taylor_sqrt_f_against_finite_differences():
    h = 1e-4
    t = h * np.arange(1, 5)
    vals = np.concatenate(([1.0], STD.sqrt_f(t)))
    d1 = (-25.0 / 12.0 * vals[0] + 4.0 * vals[1] - 3.0 * vals[2]
          + 4.0 / 3.0 * vals[3] - 0.25 * vals[4]) / h
    d2 = (2.0 * vals[0] - 5.0 * vals[1] + 4.0 * vals[2] - vals[3]) / h ** 2
    taylor = STD.taylor_sqrt_f(2)
    assert d1 == pytest.approx(taylor[1], abs=5e-9)
    assert d2 == pytest.approx(taylor[2], rel=5e-4)


def test_series_coefficients():
    amps, rates = STD.series_coefficients(4)
    np.testing.assert_allclose(amps, [1.0, 0.5, 0.375, 0.3125], rtol=1e-15)
    np.testing.assert_allclose(
        rates, STD.decay_gap + 2.0 * STD.sigma * np.arange(4), rtol=1e-15)


def test_sqrt_f_series_converges_to_sqrt_f():
    t = np.array([0.5, 1.0, 2.5, 6.0])
    approx = STD.sqrt_f_series(t, 60)
    np.testing.assert_allclose(approx, STD.sqrt_f(t), rtol=1e-12)


def test_series_requires_damping():
    clean = DampingKernel(0.0, 100.0)
    with pytest.raises(DegenerateKernelError):
        clean.series_coefficients(4)
    with pytest.raises(DegenerateKernelError):
        clean.sqrt_f_spectrum(1.0)


def test_spectrum_rejects_nonfinite_omega():
    # the tail panels are laid out to 3|omega|/b, which no infinite or
    # nan frequency has
    for bad in (math.inf, -math.inf, math.nan, [0.0, math.nan]):
        with pytest.raises(DomainError):
            STD.sqrt_f_spectrum(bad)


def _spectrum_oracle(kernel, omega, tol=1e-11):
    """Direct quadrature of the defining transform, independent of the
    series evaluation under test."""
    fn = lambda t: kernel.sqrt_f(t) * np.exp(-1j * omega * t)
    res = integrate_adaptive(fn, 0.0, math.inf, tol,
                             tail_rate=kernel.decay_gap,
                             max_panel_width=2.0 / max(abs(omega), 0.25))
    return res.value


@pytest.mark.parametrize("gamma", [1e-3, 5e-3])
@pytest.mark.parametrize("omega", [0.0, 0.5, -7.3, 31.0, 50.0])
def test_spectrum_against_quadrature(gamma, omega):
    kernel = DampingKernel(gamma, 100.0)
    got = kernel.sqrt_f_spectrum(omega)
    want = _spectrum_oracle(kernel, omega)
    assert abs(got - want) <= 1e-8 * abs(want)


def _mp_central_ratio(x):
    return mpmath.exp(mpmath.loggamma(x + 0.5) - mpmath.loggamma(x + 1)) / (
        mpmath.sqrt(mpmath.pi))


def _spectrum_mpmath(kernel, omega):
    """The spectrum series at 30 digits: 200 exact terms, the tail
    integral by mpmath.quad split at 200 * 4^j out to 40 times the
    turnover |omega|/b, and Euler-Maclaurin terms through h^(5) from
    mpmath.diff, with log Gamma for the central binomial ratio."""
    with mpmath.workdps(30):
        b = 2 * mpmath.mpf(kernel.sigma)
        a = mpmath.mpf(kernel.decay_gap) + 1j * mpmath.mpf(omega)

        def h(x):
            return _mp_central_ratio(x) * (a + b * x) ** mpmath.mpf(-1.5)

        block, coeff = mpmath.mpf(0), mpmath.mpf(1)
        for n in range(200):
            block += coeff * (a + b * n) ** mpmath.mpf(-1.5)
            coeff *= mpmath.mpf(2 * n + 1) / (2 * n + 2)
        edges = [mpmath.mpf(200)]
        while edges[-1] < 40 * abs(mpmath.mpf(omega)) / b:
            edges.append(4 * edges[-1])
        tail = (mpmath.quad(h, edges + [mpmath.inf]) + h(200) / 2
                - mpmath.diff(h, 200, 1) / 12 + mpmath.diff(h, 200, 3) / 720
                - mpmath.diff(h, 200, 5) / 30240)
        total = mpmath.sqrt(b) * mpmath.gamma(1.5) * (block + tail)
        return complex(total)


def test_spectrum_against_mpmath():
    # the corners of the rate box and the two workhorse kernels, from the
    # spectrum's centre out past the turnover of the weakest kernels
    worst = {}
    for gamma, cutoff in ((1e-6, 10.0), (1e-6, 1000.0), (1e-5, 10.0),
                          (1e-3, 100.0), (5e-3, 100.0), (5.0, 1000.0)):
        kernel = DampingKernel(gamma, cutoff)
        for omega in (0.0, -2.0, 64.0, 400.0):
            want = _spectrum_mpmath(kernel, omega)
            got = kernel.sqrt_f_spectrum(omega)
            worst[gamma, cutoff, omega] = abs(got - want) / abs(want)
    assert max(worst.values()) <= 1e-14, worst


def test_central_ratio_against_mpmath():
    xs = (8.0, 64.0, 754.0, 2000.0, 5000.7, 9999.0, 1e6)
    got = _central_ratio(np.array(xs))
    with mpmath.workdps(30):
        for x, val in zip(xs, got):
            want = _mp_central_ratio(mpmath.mpf(x))
            assert abs(val - want) <= 4e-16 * want, x


def test_spectrum_real_at_zero():
    val = STD.sqrt_f_spectrum(0.0)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0.0


def test_spectrum_conjugate_symmetry():
    for om in (1.7, 12.0, 43.0):
        left = STD.sqrt_f_spectrum(-om)
        right = STD.sqrt_f_spectrum(om)
        assert left == pytest.approx(right.conjugate(), rel=1e-12)


def test_spectrum_vectorized_matches_scalar():
    om = np.array([-3.0, 0.0, 0.7, 26.0])
    vec = STD.sqrt_f_spectrum(om)
    assert vec.shape == om.shape
    for o, v in zip(om, vec):
        assert STD.sqrt_f_spectrum(float(o)) == pytest.approx(v, rel=1e-13)


def test_spectrum_far_tail_falls_like_inverse_omega():
    # sqrt(f(0)) = 1 forces gtilde ~ 1/(i omega) far out
    om = 4000.0
    val = STD.sqrt_f_spectrum(om)
    assert val == pytest.approx(1.0 / (1j * om), rel=2e-3)

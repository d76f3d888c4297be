"""Damping kernel: stable evaluation, influence coefficients, the
exponential expansion of sqrt(f), and its one-sided spectrum against a
direct-quadrature oracle."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import damped
from qbarrier import kernel as kernel_module
from qbarrier.errors import DegenerateKernelError, DomainError
from qbarrier.kernel import DampingKernel, _central_ratio

from reference import (MASS, PoleError, peak_time, propagator_coefficients,
                       series_coefficients, sqrt_f_series)

STD = DampingKernel(5e-3, 100.0)


def test_sigma_frozen_values():
    assert STD.sigma == pytest.approx(0.63663940701888, rel=1e-13)
    assert STD.decay_gap == pytest.approx(0.31581970350944, rel=1e-13)
    assert DampingKernel(1e-3, 100.0).sigma == pytest.approx(
        0.127327881403776, rel=1e-13)


def test_construction_validation():
    # gamma = 1e308 is finite, but sigma overflows
    for gamma, cutoff in ((-1e-3, 100.0), (5e-3, 0.0), (math.inf, 100.0),
                          (5e-3, math.inf), (1e308, 100.0)):
        with pytest.raises(DegenerateKernelError):
            DampingKernel(gamma, cutoff)
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


@pytest.mark.parametrize("gamma", [5e-3, 0.0])
def test_f_takes_its_limit_at_infinite_time(gamma):
    # t = inf passes the t >= 0 check; f decays like e^{-(sigma - gamma) t}
    # for gamma > 0 and is 1 in the clean limit, and the finite entries
    # beside it keep their bits
    kernel = DampingKernel(gamma, 100.0)
    limit = 0.0 if gamma > 0.0 else 1.0
    finite = np.array([0.0, 0.7, 1e5])
    t = np.append(finite, np.inf)
    for fn in (kernel.f, kernel.sqrt_f):
        assert fn(np.inf) == limit
        vals = fn(t)
        assert vals[-1] == limit
        np.testing.assert_array_equal(vals[:-1], fn(finite))


def test_f_rejects_negative_times():
    with pytest.raises(DomainError):
        STD.f(-0.1)


def test_peak_time_brackets_maximum():
    t0 = peak_time(STD)
    assert t0 > 0.0
    f0 = STD.f(t0)
    assert f0 >= STD.f(t0 * 0.97)
    assert f0 >= STD.f(t0 * 1.03)
    # the documented rise is second order in gamma/sigma
    assert f0 - 1.0 <= 2.0 * (STD.gamma / STD.sigma) ** 2
    assert peak_time(DampingKernel(0.0, 100.0)) == 0.0


def test_f_strictly_decreasing_past_peak():
    t0 = peak_time(STD)
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
    coeff = propagator_coefficients(STD, t)
    np.testing.assert_allclose((2.0 * t / MASS) * coeff.growing, STD.f(t),
                               rtol=1e-12)


def test_influence_coefficients_closed_forms():
    t = np.array([0.3, 1.0, 4.0])
    s, g = STD.sigma, STD.gamma
    coeff = propagator_coefficients(STD, t)
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
    coeff = propagator_coefficients(clean, t)
    np.testing.assert_allclose(coeff.symmetric, MASS * 0.5 / t, rtol=1e-15)
    np.testing.assert_array_equal(coeff.symmetric, coeff.decaying)
    np.testing.assert_array_equal(coeff.decaying, coeff.growing)


def test_influence_decaying_coefficient_dies():
    coeff_1 = propagator_coefficients(STD, np.array([1.0]))
    coeff_50 = propagator_coefficients(STD, np.array([50.0]))
    assert coeff_50.decaying[0] < 1e-10 * coeff_1.decaying[0]


def test_influence_pole_at_zero():
    with pytest.raises(PoleError):
        propagator_coefficients(STD, 0.0)


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


def test_taylor_sqrt_f_refuses_an_order_that_overflows():
    # sig ** (2 m) on Python floats raised a bare OverflowError at sigma
    # 1.3e47, inside the sigma <= 1e50 the constructor admits
    kernel = DampingKernel(1e46, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match=r"order 10 overflow at sigma 1\.27716e\+47"):
            kernel.taylor_sqrt_f(10)


def test_taylor_sqrt_f_builds_the_ladder_order_at_the_largest_sigma():
    # order 4, the subtraction ladder's, stays finite at sigma = 1e50;
    # order 7 is the first to overflow there
    kernel = DampingKernel(1e50 / math.hypot(1.0, 40.0 / math.pi), 10.0)
    assert kernel.sigma <= 1e50
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taylor = kernel.taylor_sqrt_f(4)
        assert np.all(np.isfinite(taylor))
        assert taylor[4] == pytest.approx(
            kernel.gamma ** 4 / 16.0 - kernel.gamma ** 2 * kernel.sigma ** 2
            / 4.0 + 3.0 * kernel.sigma ** 4 / 20.0, rel=1e-13)
        assert np.isfinite(damped.subtraction_ladder(kernel).mismatch)
        with pytest.raises(DomainError, match="order 7 overflow"):
            kernel.taylor_sqrt_f(7)


def test_series_coefficients():
    amps, rates = series_coefficients(STD, 4)
    np.testing.assert_allclose(amps, [1.0, 0.5, 0.375, 0.3125], rtol=1e-15)
    np.testing.assert_allclose(
        rates, STD.decay_gap + 2.0 * STD.sigma * np.arange(4), rtol=1e-15)


def test_sqrt_f_series_converges_to_sqrt_f():
    t = np.array([0.5, 1.0, 2.5, 6.0])
    approx = sqrt_f_series(STD, t, 60)
    np.testing.assert_allclose(approx, STD.sqrt_f(t), rtol=1e-12)


def test_series_requires_damping():
    clean = DampingKernel(0.0, 100.0)
    with pytest.raises(DegenerateKernelError):
        series_coefficients(clean, 4)
    with pytest.raises(DegenerateKernelError):
        clean.sqrt_f_spectrum(1.0)


def test_spectrum_rejects_nonfinite_omega():
    # an infinite or nan frequency is neither summed below 40 sigma nor a
    # series term above it
    for bad in (math.inf, -math.inf, math.nan, [0.0, math.nan]):
        with pytest.raises(DomainError):
            STD.sqrt_f_spectrum(bad)


@pytest.mark.parametrize("method", ["f", "sqrt_f", "sqrt_f_spectrum"])
@pytest.mark.parametrize("value", [
    np.array([1.0 - 0.5j]), np.array([1.0 + 2.0j, 3.0]), np.array(2.0 + 0j),
    1.0 + 2.0j, np.complex128(1.0), [0.5, 1j]],
    ids=["array", "mixed", "0-d", "scalar", "numpy-scalar", "list"])
def test_kernel_refuses_complex_arguments(method, value):
    # a float cast would drop the imaginary part (arrays, with only a
    # ComplexWarning) or raise a bare TypeError (scalars)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be real, got complex"):
            getattr(STD, method)(value)


@pytest.mark.parametrize("gamma, cutoff", [
    (1e-5, 10.0), (5e-3, 100.0), (0.5, 1000.0)])
def test_spectrum_entries_keep_their_own_bits(gamma, cutoff):
    # one call whose summed entries span several chunks of the block and
    # whose entries cross 40 sigma, both ways and at the switch itself:
    # each entry has the bits of its own one-entry call
    kernel = DampingKernel(gamma, cutoff)
    rng = np.random.default_rng(21)
    switch = kernel_module._SERIES_SIGMAS * kernel.sigma
    omega = switch * 10.0 ** rng.uniform(-4, 3, 4000)
    omega = np.append(omega, [0.0, switch, np.nextafter(switch, 0.0)])
    omega *= rng.choice([-1.0, 1.0], omega.size)
    summed = np.count_nonzero(np.abs(omega) < switch)
    chunk = (1 << 15) // kernel_module._spectrum_rule()[0].size
    assert 3 * chunk < summed < omega.size
    single = [kernel.sqrt_f_spectrum(w) for w in omega.tolist()]
    assert np.array(single).tobytes() == kernel.sqrt_f_spectrum(
        omega).tobytes()


@pytest.mark.parametrize("gamma", [1e-3, 5e-3])
@pytest.mark.parametrize("omega", [0.0, 0.5, -7.3, 31.0, 50.0])
def test_spectrum_against_quadrature(gamma, omega, spectrum_oracle):
    kernel = DampingKernel(gamma, 100.0)
    got = kernel.sqrt_f_spectrum(omega)
    want = spectrum_oracle(kernel, omega, 1e-11)
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
    # spectrum's centre out past the turnover of the weakest kernels, and
    # at 0.3, 3 and 39 sigma, where every kernel's summed rule answers
    worst = {}
    for gamma, cutoff in ((1e-6, 10.0), (1e-6, 1000.0), (1e-5, 10.0),
                          (1e-3, 100.0), (5e-3, 100.0), (5.0, 1000.0)):
        kernel = DampingKernel(gamma, cutoff)
        for omega in (0.0, -2.0, 64.0, 400.0) + tuple(
                ratio * kernel.sigma for ratio in (0.3, 3.0, 39.0)):
            want = _spectrum_mpmath(kernel, omega)
            got = kernel.sqrt_f_spectrum(omega)
            worst[gamma, cutoff, omega] = abs(got - want) / abs(want)
    assert max(worst.values()) <= 1e-14, worst


@pytest.mark.parametrize("gamma, cutoff", [
    (1e-6, 10.0), (1e-6, 1000.0), (1e-5, 10.0), (5e-3, 100.0),
    (0.5, 1000.0), (5.0, 1000.0), (5.0, 10.0)])
def test_residual_series_against_mpmath(gamma, cutoff):
    # from 40 sigma on, the spectrum, and so the residual, is the large-omega
    # series; over the rate box's corners it meets the 30-digit sum within
    # 2.2e-16 |gtilde| at both signs, where the summed spectrum missed by up
    # to 1.6e-15 (the error depends only on omega/sigma and gamma/sigma)
    kernel = DampingKernel(gamma, cutoff)
    for ratio in (40.0, 200.0, 1e5):
        omega = ratio * kernel.sigma
        assert omega >= kernel_module._SERIES_SIGMAS * kernel.sigma
        want = _spectrum_mpmath(kernel, omega)
        got = kernel.sqrt_f_spectrum(np.array([omega, -omega]))
        assert np.all(np.abs(got - [want, want.conjugate()])
                      <= 5e-16 * abs(want)), ratio


def test_residual_series_survives_the_largest_sigma():
    # the series' eleven derivatives come from the kernel of unit sigma:
    # at sigma = 1.3e47 the kernel's own tenth derivative overflows.  The
    # kernel is the unit one with time scaled by sigma, so its spectrum is
    # the unit kernel's at omega / sigma, divided by sigma
    kernel = DampingKernel(1e46, 10.0)
    unit = DampingKernel(kernel.gamma / kernel.sigma, 10.0)
    assert unit.sigma == 1.0
    ratio = np.array([40.0, 400.0])
    got = kernel.sqrt_f_spectrum(kernel.sigma * ratio)
    want = unit.sqrt_f_spectrum(ratio) / kernel.sigma
    assert np.all(np.abs(got - want) <= 2.5e-16 * np.abs(want))


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


@pytest.mark.parametrize("gamma, cutoff", [
    (1e-5, 10.0), (5e-3, 100.0), (0.05, 1000.0), (1.0, 1000.0)])
def test_spectrum_mirrors_to_its_conjugate_bit_for_bit(gamma, cutoff):
    # every entry, summed below 40 sigma or series from there on, is made
    # at |omega| and conjugated where omega < 0: -omega gives the conjugate
    # of +omega to the bit, in one call and alone, and -0, which is not
    # below 0, the bits of +0
    kernel = DampingKernel(gamma, cutoff)
    switch = kernel_module._SERIES_SIGMAS * kernel.sigma
    om = np.concatenate([[switch, np.nextafter(switch, 0.0)],
                         switch * np.geomspace(1e-6, 1e3, 301)])
    pos, neg = kernel.sqrt_f_spectrum(om), kernel.sqrt_f_spectrum(-om)
    assert neg.tobytes() == np.conj(pos).tobytes()
    for w in om[:6].tolist():
        assert (np.array(kernel.sqrt_f_spectrum(-w)).tobytes()
                == np.conj(kernel.sqrt_f_spectrum(w)).tobytes())
    zeros = kernel.sqrt_f_spectrum(np.array([0.0, -0.0]))
    assert zeros[1:].tobytes() == zeros[:1].tobytes() == np.array(
        kernel.sqrt_f_spectrum(-0.0)).tobytes()


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


def test_construction_refuses_damping_with_a_zero_decay_gap():
    # sigma rounds to gamma here, so (sigma - gamma) / 2 is exactly 0 and
    # every rate the spectral routes derive from it vanishes
    with pytest.raises(DegenerateKernelError, match="positive decay gap"):
        DampingKernel(1e-300, 1e-300)
    assert DampingKernel(0.0, 1e-300).decay_gap == 0.0
    assert DampingKernel(1e-110, 10.0).decay_gap > 0.0

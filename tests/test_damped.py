"""Suppressed amplitude: ladder construction, residual decay, the
spectral evaluation against frozen references, and continuity in the
weak-damping limit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier import quadrature
from qbarrier.barrier import (amplitude_w, amplitude_w_complex_height,
                              transmission_prob)
from qbarrier.damped import (amplitude_w_D, amplitude_w_D_height_sweep,
                             residual_spectrum, subtraction_ladder,
                             transmission_prob_D)
from qbarrier.errors import (DegenerateKernelError, DomainError,
                             NonConvergenceError)
from qbarrier.kernel import DampingKernel
from qbarrier.sweep import run_transmission
from qbarrier.traversal import SpectralGrid, distribution_F_D

STD = DampingKernel(5e-3, 100.0)


def test_ladder_moment_matching():
    lad = subtraction_ladder(STD)
    # rates are octaves of the slowest decay of sqrt(f)
    np.testing.assert_allclose(lad.rates,
                               STD.decay_gap * 2.0 ** np.arange(4),
                               rtol=1e-15)
    # the model reproduces the matched derivatives exactly
    for p in range(4):
        model = float(np.sum(lad.weights * (-lad.rates) ** p).real)
        assert model == pytest.approx(lad.taylor[p], abs=1e-13)
    assert float(np.sum(lad.weights)) == pytest.approx(1.0, abs=1e-13)
    assert lad.mismatch > 0.0


def test_ladder_requires_damping():
    with pytest.raises(DegenerateKernelError):
        subtraction_ladder(DampingKernel(0.0, 100.0))


def test_residual_spectrum_decays_like_fifth_power():
    lad = subtraction_ladder(STD)
    scaled = [abs(complex(residual_spectrum(STD, lad, om))) * om ** 5
              for om in (8.0, 16.0, 32.0, 64.0)]
    # the envelope |g_res| * om^5 saturates instead of growing
    assert max(scaled) < 0.25
    assert abs(scaled[-1] - scaled[-2]) < 0.05 * scaled[-1]


def test_clean_limit_short_circuits():
    clean = DampingKernel(0.0, 100.0)
    res = amplitude_w_D(1.7, 5.0, clean)
    assert res.value == amplitude_w(1.7, 5.0)
    assert res.error_estimate == 0.0
    assert res.panels_used == 0


def test_frozen_reference_values():
    res = amplitude_w_D(2.0, 5.0, STD)
    assert res.value == pytest.approx(
        -0.4512786970657082 - 0.8014300935014831j, rel=1e-12)
    assert res.error_estimate <= 1e-6
    assert res.bare == amplitude_w(2.0, 5.0)

    res = amplitude_w_D(1.3, 5.0, STD)
    assert res.value == pytest.approx(
        -0.7971896715529294 - 0.10549681459918892j, rel=1e-12)


def test_transmission_prob_D():
    assert transmission_prob_D(2.0, 5.0, STD) == pytest.approx(
        abs(-0.4512786970657082 - 0.8014300935014831j) ** 2, rel=1e-11)


def test_tol_validation():
    with pytest.raises(DomainError):
        amplitude_w_D(2.0, 5.0, STD, tol=0.0)
    with pytest.raises(DomainError):
        amplitude_w_D(2.0, 5.0, STD, tol=2e-3)


def test_exhausted_budget_keeps_best_estimate_and_fails_one_cell(
        monkeypatch):
    # on its finite window the spectral integral fails only by spending
    # the panel budget; at tol 1e-10 this point needs 64 panels, so 62
    # leave its 60 seed panels one refinement and then run out
    ref = amplitude_w_D(2.0, 5.0, STD, tol=1e-10)
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 62)
    with pytest.raises(NonConvergenceError) as info:
        amplitude_w_D(2.0, 5.0, STD, tol=1e-10)
    err = info.value
    assert math.isfinite(abs(err.best_estimate))
    assert err.error_estimate > 1e-10
    assert abs(err.best_estimate - ref.value) <= err.error_estimate
    # a sweep writes that cell as nan, counts it and keeps its reason
    res = run_transmission(5.0, [2.0], [5e-3], 100.0, tol=1e-10)
    assert res.failures == 1
    assert math.isfinite(res.table[0, 0]) and math.isnan(res.table[0, 1])
    assert list(res.reasons) == ["g0.005"]
    assert isinstance(res.reasons["g0.005"], NonConvergenceError)


def test_weak_damping_continuity():
    # the deviation from the bare amplitude must scale linearly in gamma
    # all the way down, with no numerical floor
    eps = 0.4
    bare = amplitude_w(eps, 5.0)
    devs = []
    for g in (1e-4, 1e-5, 1e-6):
        wd = amplitude_w_D(eps, 5.0, DampingKernel(g, 100.0)).value
        devs.append(abs(wd - bare) / abs(bare))
    assert devs[0] == pytest.approx(6.90e-5, rel=0.05)
    assert devs[1] / devs[0] == pytest.approx(0.1, rel=0.05)
    assert devs[2] / devs[1] == pytest.approx(0.1, rel=0.05)


def test_weak_damping_matches_factorized_route():
    # gamma = 1e-5, Omega = 10 puts the spectrum's turnover |omega|/b near
    # 1e5 terms, where the geometric panels carry the sum; the factorized
    # route of criterion 5 never calls the spectrum
    kernel = DampingKernel(1e-5, 10.0)
    spectral = amplitude_w_D(1.3, 5.0, kernel).value
    dist = distribution_F_D(1.3, 5.0, kernel,
                            grid=SpectralGrid(window=160.0, period=96.0))
    factorized = dist.amplitude * dist.suppression
    assert abs(spectral - factorized) <= 1e-5 * abs(spectral)


def test_w_D_loads_no_scipy():
    # the spectrum sums its own series; a fresh interpreter on the same
    # package copy shows which modules one damped amplitude pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(qbarrier.__file__).parents[1]))
    probe = ("import sys; from qbarrier.damped import amplitude_w_D; "
             "from qbarrier.kernel import DampingKernel; "
             "amplitude_w_D(1.3, 5.0, DampingKernel(5e-3, 100.0)); "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_suppression_above_barrier():
    # damping drains the resonant part of the transmission
    ratio = transmission_prob_D(2.0, 5.0, STD) / transmission_prob(2.0, 5.0)
    assert ratio == pytest.approx(0.943176973200046, rel=1e-9)
    # far above the barrier the environment barely matters
    ratio_far = (transmission_prob_D(25.0, 5.0, STD)
                 / transmission_prob(25.0, 5.0))
    assert abs(1.0 - ratio_far) < 0.1 * abs(1.0 - ratio)


def test_damping_ordering_above_barrier():
    # Moderate friction drains transmission monotonically, but the
    # weakest rate tested sits a few 1e-5 ABOVE the clean curve: the
    # same sign flip of the leading correction seen under the barrier,
    # far outside the certified error bars, so it is physics of the
    # formalism and not noise.  The assertions pin both regimes.
    for eps in (1.2, 1.3947841760435743, 2.0, 3.7):
        clean = transmission_prob(eps, 5.0)
        tiny, mid, strong = [
            transmission_prob_D(eps, 5.0, DampingKernel(g, 100.0))
            for g in (1e-4, 1e-3, 5e-3)]
        assert tiny > clean > mid > strong, (eps, clean, tiny, mid, strong)
        assert tiny - clean < 1e-4


def test_tunneling_enhancement_below_barrier():
    # Deep under the barrier the mean traversal time is close to purely
    # imaginary, which flips the sign of the leading suppression term:
    # weak friction slightly helps tunneling in this formalism.  The
    # magnitude here is a frozen regression value, cross-checked against
    # the factorized route at build time.
    ratio = transmission_prob_D(0.4, 5.0, STD) / transmission_prob(0.4, 5.0)
    assert ratio == pytest.approx(1.1589435375033286, rel=1e-8)
    assert ratio > 1.0


def test_height_sweep_clean_limit():
    om = np.linspace(-3.0, 3.0, 31)
    clean = DampingKernel(0.0, 100.0)
    got = amplitude_w_D_height_sweep(1.3, 5.0, clean, om)
    want = amplitude_w_complex_height(1.3, 5.0, 1.0 - (2.0 / 5.0) * om)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_height_sweep_matches_pointwise_route():
    # the FFT convolution route and the adaptive per-point route must
    # land on the same numbers where the grid has a point at omega = 0
    om = 0.0125 * np.arange(-400, 401)
    sweep = amplitude_w_D_height_sweep(1.3, 5.0, STD, om)
    ref = amplitude_w_D(1.3, 5.0, STD, tol=1e-6).value
    center = sweep[400]
    assert abs(center - ref) <= 2e-6


def test_height_sweep_fft_matches_direct_correlation():
    # the residual part is a correlation done by FFT; numpy's direct
    # convolution over the same samples and support is the reference
    om = 0.05 * np.arange(-40, 41)
    got = amplitude_w_D_height_sweep(1.3, 5.0, STD, om)

    def shifted(x):
        return amplitude_w_complex_height(1.3, 5.0, 1.0 - 0.4 * np.asarray(x))

    lad = subtraction_ladder(STD)
    want = sum(a * shifted(om + 1j * s) for a, s in zip(lad.weights, lad.rates))
    support = (max(lad.mismatch, 1e-4) / (4.0 * math.pi * 1e-10)) ** 0.25
    n_half = math.ceil(min(max(support, 40.0), 200.0) / 0.05)
    g_res = residual_spectrum(STD, lad, 0.05 * np.arange(-n_half, n_half + 1))
    w_ext = shifted(om[0] + 0.05 * np.arange(-n_half, om.size + n_half))
    want = want + np.convolve(w_ext, g_res[::-1], mode="valid") * (
        0.05 / (2.0 * math.pi))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_height_sweep_grid_validation():
    with pytest.raises(DomainError):
        amplitude_w_D_height_sweep(1.3, 5.0, STD, np.array([0.0]))
    with pytest.raises(DomainError):
        amplitude_w_D_height_sweep(1.3, 5.0, STD,
                                   np.array([0.0, 1.0, 1.5]))
    with pytest.raises(DomainError):
        amplitude_w_D_height_sweep(1.3, 5.0, STD, np.array([1.0, 0.0]))

"""Suppressed amplitude: ladder construction, residual decay, the
spectral evaluation against frozen references, and continuity in the
weak-damping limit."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import damped, quadrature
from qbarrier import kernel as kernel_module
from qbarrier.barrier import (amplitude_w, amplitude_w_complex_height,
                              transmission_prob)
from qbarrier.damped import (amplitude_w_D, amplitude_w_D_height_sweep,
                             subtraction_ladder)
from qbarrier.errors import (DegenerateKernelError, DomainError,
                             NonConvergenceError, WindowError)
from qbarrier.kernel import DampingKernel
from qbarrier.sweep import run_transmission
from qbarrier.traversal import (SpectralGrid, cumulative_amplitude,
                                distribution_F_D)
from reference import residual_spectrum

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
        assert model == pytest.approx(STD.taylor_sqrt_f(4)[p], abs=1e-13)
    assert float(np.sum(lad.weights)) == pytest.approx(1.0, abs=1e-13)
    assert lad.mismatch > 0.0


def test_ladder_requires_damping():
    with pytest.raises(DegenerateKernelError):
        subtraction_ladder(DampingKernel(0.0, 100.0))


def test_residual_spectrum_decays_like_fifth_power():
    scaled = [abs(complex(residual_spectrum(STD, om))) * om ** 5
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


def test_nonconvergence_reason_names_a_plain_float(monkeypatch):
    # a numpy width is used as a plain float: at 1e-200 the phase marks
    # overflow, where a numpy square would warn instead of raising
    assert (amplitude_w_D(0.5, np.float64(1e-200), STD)
            == amplitude_w_D(0.5, 1e-200, STD))
    # sweeps pass numpy scalars; the reason that reaches stderr must still
    # read like the number the user asked for
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 62)
    res = run_transmission(5.0, [2.0], [5e-3], 100.0, tol=1e-10)
    reason = str(res.reasons["g0.005"])
    assert "at epsilon 2.0" in reason
    assert "np.float64" not in reason


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_sweep_sharing_a_kernel_matches_fresh_kernels(order):
    # a sweep reuses one kernel, and so its residual table, across its
    # energies; every cell and error must equal a call on a fresh kernel
    eps = np.array([0.7, 1.2, 1.3, 1.75, 2.6])[::order]
    res = run_transmission(5.0, eps, [1e-3, 5e-3], 100.0)
    for col, g in ((1, 1e-3), (2, 5e-3)):
        for i, e in enumerate(eps):
            ref = amplitude_w_D(e, 5.0, DampingKernel(g, 100.0))
            assert res.table[i, col] == abs(ref.value) ** 2
            assert res.errors[f"g{g:g}"][i] == (
                2.0 * abs(ref.value) * ref.error_estimate)


def test_w_D_searches_its_window_once_per_kernel_and_tol(monkeypatch,
                                                         fresh_tables):
    # the window depends on the kernel and tol alone, so the kernel's table
    # keeps it: these four energies make one 3-node window probe of the
    # residual, where each made its own, and the spectrum is called once,
    # for the table
    shapes = []
    residual = damped._residual

    def counted(kernel, omega):
        shapes.append(np.shape(omega))
        return residual(kernel, omega)

    monkeypatch.setattr(damped, "_residual", counted)
    calls = _spectrum_calls(monkeypatch)
    kernel = DampingKernel(5e-3, 100.0)
    for e in (0.5, 1.3, 2.0, 4.0):
        amplitude_w_D(e, 5.0, kernel)
    assert shapes.count((3,)) == 1
    assert len(calls) == 1
    # a second tol searches its own window once, here in one probe, on
    # the table the first made
    for e in (1.3, 2.0):
        amplitude_w_D(e, 5.0, kernel, tol=1e-4)
    assert shapes.count((3,)) == 2 and len(calls) == 1
    # a fresh table searches again, and a failed search keeps nothing
    fresh_tables()
    amplitude_w_D(1.3, 5.0, kernel)
    assert shapes.count((3,)) == 3 and len(calls) == 2
    with pytest.raises(NonConvergenceError, match="tail bound stuck"):
        amplitude_w_D(1.3, 5.0, kernel, tol=5e-324)
    assert list(damped._table(kernel)[1]) == [1e-6]


@pytest.mark.parametrize("cutoff", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("gamma", [1e-5, 1e-3, 5e-3, 0.05, 1.0])
def test_residual_spectrum_negates_to_its_conjugate(gamma, cutoff):
    # the residual interpolant serves omega < 0 as the conjugate of its
    # value at -omega, as the direct spectrum would: over the box's corners
    # negated frequencies give the conjugate to the bit, on one grid call
    # and on 15-node panel rows against their mirrors
    kernel = DampingKernel(gamma, cutoff)
    om = np.geomspace(1e-2, 1e3, 301)
    assert (residual_spectrum(kernel, -om).tobytes()
            == np.conj(residual_spectrum(kernel, om)).tobytes())
    half = np.geomspace(1e-3, 50.0, 24)
    centre = half * np.random.default_rng(7).uniform(1.0, 20.0, half.size)
    for c, h in zip(centre, half):
        row, mirror = c + h * quadrature._NODES, -c + h * quadrature._NODES
        assert mirror.tobytes() == (-row[::-1]).tobytes()
        assert (residual_spectrum(kernel, mirror).tobytes()
                == np.conj(residual_spectrum(kernel, row)[::-1]).tobytes())


def test_ladder_spectrum_adds_its_terms_as_the_loop_did():
    # one broadcast builds the four terms; they must add from +0 in rate
    # order, bit for bit (signs of zeros included) against the loop
    ladder = subtraction_ladder(STD)

    def loop(omega):
        om = np.asarray(omega)
        acc = np.zeros(np.shape(om), dtype=complex)
        for aj, sj in zip(ladder.weights, ladder.rates):
            acc = acc + aj / (sj + 1j * om)
        return acc

    for scalar in (0.0, -0.0, 1.7, -3.2, 1e-300, np.float64(41.0), 7):
        got = ladder.spectrum(scalar)
        assert complex(got) == complex(loop(scalar))
        assert np.asarray(got).tobytes() == loop(scalar).tobytes()
    grid = np.concatenate([np.linspace(-40.0, 40.0, 801), [-0.0, 0.0]])
    block = np.random.default_rng(3).normal(scale=30.0, size=(37, 15))
    for om in (grid, block):
        got = ladder.spectrum(om)
        assert got.shape == om.shape and got.tobytes() == loop(om).tobytes()


def test_used_kernel_equals_hashes_and_prints_like_a_new_one():
    # the residual table lives in qbarrier.damped, keyed weakly by kernel:
    # the kernel is two plain fields, and the table entry goes with it
    assert tuple(f.name for f in dataclasses.fields(DampingKernel)) == (
        "gamma", "cutoff")
    used = DampingKernel(5e-3, 123.0)
    assert used not in damped._RESIDUAL_TABLES
    amplitude_w_D(1.3, 5.0, used)
    fresh = DampingKernel(5e-3, 123.0)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == (
        "DampingKernel(gamma=0.005, cutoff=123.0)")
    # equal kernels share one entry, which outlives neither
    assert damped._RESIDUAL_TABLES[fresh] is damped._RESIDUAL_TABLES[used]
    del used
    assert fresh not in damped._RESIDUAL_TABLES


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
    # gamma = 1e-5, Omega = 10 puts nearly all of the w_D window past 40
    # sigma, where the spectrum is its large-omega series; the factorized
    # route of criterion 5 never calls the spectrum
    kernel = DampingKernel(1e-5, 10.0)
    spectral = amplitude_w_D(1.3, 5.0, kernel).value
    dist = distribution_F_D(1.3, 5.0, kernel,
                            grid=SpectralGrid(window=160.0, period=96.0))
    factorized = dist.amplitude * dist.suppression
    assert abs(spectral - factorized) <= 1e-5 * abs(spectral)


def test_w_D_loads_no_scipy(fresh_runs):
    # the spectrum sums its own series; the session's fresh interpreter
    # shows which modules one damped amplitude pulls in
    assert fresh_runs["heavy"]["amplitude_w_D"] == []


def test_next_fast_len_matches_scipy():
    # the FFT length of the height sweep, and with it every bit of C_D,
    # must stay what scipy.fft chose when it supplied the length
    from scipy.fft import next_fast_len

    rng = np.random.default_rng(16)
    sizes = np.concatenate([np.arange(1, 20001),
                            rng.integers(20001, 5_000_001, 500)])
    assert [damped._next_fast_len(int(n)) for n in sizes] == \
        [next_fast_len(int(n)) for n in sizes]


def test_suppression_above_barrier():
    # damping drains the resonant part of the transmission
    ratio = (abs(amplitude_w_D(2.0, 5.0, STD).value) ** 2
             / transmission_prob(2.0, 5.0))
    assert ratio == pytest.approx(0.943176973200046, rel=1e-9)
    # far above the barrier the environment barely matters
    ratio_far = (abs(amplitude_w_D(25.0, 5.0, STD).value) ** 2
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
            abs(amplitude_w_D(eps, 5.0, DampingKernel(g, 100.0)).value) ** 2
            for g in (1e-4, 1e-3, 5e-3)]
        assert tiny > clean > mid > strong, (eps, clean, tiny, mid, strong)
        assert tiny - clean < 1e-4


def test_tunneling_enhancement_below_barrier():
    # Deep under the barrier the mean traversal time is close to purely
    # imaginary, which flips the sign of the leading suppression term:
    # weak friction slightly helps tunneling in this formalism.  The
    # magnitude here is a frozen regression value, cross-checked against
    # the factorized route at build time.
    ratio = (abs(amplitude_w_D(0.4, 5.0, STD).value) ** 2
             / transmission_prob(0.4, 5.0))
    assert ratio == pytest.approx(1.1589435375033286, rel=1e-8)
    assert ratio > 1.0


@pytest.mark.parametrize("gamma, cutoff", [
    (1e-5, 10.0), (1e-3, 100.0), (5e-3, 100.0), (0.05, 100.0), (0.5, 1000.0)])
def test_residual_spectrum_mirrors_bit_for_bit(gamma, cutoff):
    # the residual spectrum is conjugate-symmetric to the bit (signs of
    # zeros included) on symmetric grids, as the residual interpolant is by
    # construction: it serves omega < 0 as a conjugate, and the height sweep
    # mirrors its omega >= 0 half
    kernel = DampingKernel(gamma, cutoff)
    for step, n in ((0.0125, 3200), (0.1, 2000), (0.002527, 800)):
        full = residual_spectrum(kernel, step * np.arange(-n, n + 1))
        half = residual_spectrum(kernel, step * np.arange(n + 1))
        assert half.tobytes() == full[n:].tobytes()
        assert np.conj(full[:n:-1]).tobytes() == full[:n].tobytes()
        assert np.array_equal(np.conj(full[::-1]), full)
    # amplitude_w_D's window probe reads the residual interpolant at only
    # the positive edges of its first window, max(32, 8 s_3): the negative
    # ones mirror them, and the three-node call gives the bits of the
    # six-node call it replaced
    window = max(32.0, 8.0 * float(subtraction_ladder(kernel).rates[-1]))
    edges = window * np.array([0.8, 0.9, 1.0])
    both = damped._residual(kernel, np.concatenate([-edges[::-1], edges]))
    assert damped._residual(kernel, edges).tobytes() == both[3:].tobytes()
    assert np.conj(both[2::-1]).tobytes() == both[3:].tobytes()
    # over 8 window doublings the envelope max |R| omega^5 it keeps has the
    # bits of the direct sum's: edges below 40 sigma (0.05/100, 0.5/1000)
    # read within 3.8e-10 relative of it, but none of them is the maximum
    for k in range(8):
        at = edges * 2.0 ** k
        assert (np.max(np.abs(damped._residual(kernel, at)) * at ** 5)
                == np.max(np.abs(residual_spectrum(kernel, at)) * at ** 5))


def test_height_sweep_clean_limit():
    om = 0.2 * np.arange(-15, 16)
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
    g_res = residual_spectrum(STD, 0.05 * np.arange(-n_half, n_half + 1))
    w_ext = shifted(0.05 * np.arange(-40 - n_half, 40 + n_half + 1))
    want = want + np.convolve(w_ext, g_res[::-1], mode="valid") * (
        0.05 / (2.0 * math.pi))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("gamma", [1e-3, 5e-3])
def test_height_sweep_resolves_its_kernel_on_coarse_grids(gamma):
    # the sweep correlates at h/p, p = ceil(6 h / s0), and keeps every p-th
    # output, so H0 meets w_D on any grid step: within 1.0e-12 (gamma 1e-3,
    # p 2, 7 and 24) and 5.3e-12 (5e-3, p 1, 2 and 5) here.  Correlating at
    # h itself it missed by 4.6e-3 at h 0.0654 and 0.12 at h 0.25 (1e-3),
    # and by 6.0e-4 at h 0.25 (5e-3), with no flag
    kernel = DampingKernel(gamma, 100.0)
    ref = amplitude_w_D(1.3, 5.0, kernel, tol=1e-10).value
    for h in (0.0125, 0.0654, 0.25):
        n = round(409.6 / h)
        got = amplitude_w_D_height_sweep(1.3, 5.0, kernel,
                                         h * np.arange(-n, n + 1))
        assert abs(got[n] - ref) <= 2e-11


def test_height_sweep_refuses_a_correlation_beyond_reason():
    # p n + m is counted in floats and refused past 5e6 steps per side
    # before any integer or array of that size is formed: a decay gap of
    # 5.9e-100 asks for p of 1.3e98, and a step of 1e307 for a 6 h / s0
    # that overflows to inf, which an int would raise OverflowError on
    weak = DampingKernel(1e-100, 10.0)
    with pytest.raises(WindowError, match=r"^height sweep at decay gap "
                       r"5\.886e-100 needs 4\.08e\+101 steps per side, "
                       r"over 5e6$"):
        amplitude_w_D_height_sweep(1.3, 5.0, weak, 0.0125 * np.arange(-3, 4))
    with pytest.raises(WindowError, match="needs inf steps per side"):
        amplitude_w_D_height_sweep(1.3, 5.0, STD, 1e307 * np.arange(-1, 2))


def test_height_sweep_grid_validation():
    # the one grid taken is h * arange(-n, n + 1), h > 0, n >= 1, exactly:
    # uniform but off-centre, or equal only up to rounding, is refused
    for bad in ([0.0], [0.0, 1.0, 1.5], [1.0, 0.0], [-0.1, 0.0, 0.1, 0.2],
                [0.1, 0.0, -0.1], [[-0.1, 0.0, 0.1]],
                0.5 + 0.1 * np.arange(-3, 4), np.linspace(-3.0, 3.0, 31)):
        with pytest.raises(DomainError, match="must be h"):
            amplitude_w_D_height_sweep(1.3, 5.0, STD, np.asarray(bad))


def test_height_sweep_samples_on_the_callers_grid(monkeypatch):
    # the residual correlation reads bare amplitudes on an extension of the
    # caller's grid, in calls of at most _SWEEP_BLOCK heights; joined in call
    # order, the real heights must hold that grid bit for bit, where a step
    # taken as om[1] - om[0] drifted by up to 7.5e-10 on the figure5 grid
    heights = []

    def recording(epsilon, width, height):
        heights.append(np.asarray(height))
        return amplitude_w_complex_height(epsilon, width, height)

    monkeypatch.setattr(damped, "amplitude_w_complex_height", recording)
    for om in (0.0125 * np.arange(-400, 401), 0.05 * np.arange(-40, 41)):
        heights.clear()
        amplitude_w_D_height_sweep(1.3, 5.0, STD, om)
        assert max(h.size for h in heights) <= damped._SWEEP_BLOCK
        want = (1.0 - (2.0 / 5.0) * om).tobytes()
        ext = np.concatenate([h for h in heights if not np.iscomplexobj(h)])
        assert any(ext[i:i + om.size].tobytes() == want
                   for i in range(ext.size - om.size + 1))


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 5e-3, 0.05])
def test_height_sweep_bits_do_not_depend_on_the_block_length(monkeypatch,
                                                             gamma):
    # each height takes the same operations in any block, and the extension
    # is assigned into the FFT's zero padding, so no bit moves.  Blocks of 1
    # and 7 run on a grid of 101 heights whose extensions (101, 901, 2339
    # and 4101 heights here) are no multiple of 7: on the figure5 grid they
    # take 55 s and 9 s.  1 << 20 holds any extension here in one block
    kernel = DampingKernel(gamma, 100.0)
    default = damped._SWEEP_BLOCK
    for om, blocks in ((0.1 * np.arange(-50, 51), (1, 7, default, 1 << 20)),
                       (0.0125 * np.arange(-32768, 32769),
                        (1000, default, 1 << 20))):
        got = []
        for block in blocks:
            monkeypatch.setattr(damped, "_SWEEP_BLOCK", block)
            got.append(amplitude_w_D_height_sweep(1.3, 5.0, kernel,
                                                  om).tobytes())
        assert got[1:] == got[:-1]


@pytest.mark.parametrize("gamma, cutoff", [
    (1e-3, 100.0), (5e-3, 100.0), (0.05, 100.0), (5e-3, 10.0), (0.02, 300.0),
    (0.05, 1000.0), (1.0, 1000.0), (1e-5, 10.0)])
def test_height_sweep_interpolates_its_residual_half_to_the_spectrum_floor(
        fresh_tables, gamma, cutoff):
    # the sweep's residual half and w_D's integrand read one interpolant, 32
    # Chebyshev points per panel, and past 40 sigma its large-omega series;
    # over each tol's whole w_D window it meets the direct call to the
    # spectrum's own 1.5e-15 level (16 points miss by about 2.5e-10), and a
    # point on a node below the series takes the node's value
    kernel = DampingKernel(gamma, cutoff)
    for tol in (1e-6, 1e-10):
        window = amplitude_w_D(1.3, 5.0, kernel, tol=tol).cutoff
        omega = np.concatenate([window * np.geomspace(1e-9, 1.0, 3001),
                                np.linspace(0.0, window, 3001)])
        omega = np.concatenate([omega, -omega])
        got = damped._residual(kernel, omega)
        want = residual_spectrum(kernel, omega)
        assert np.all(np.abs(got - want)
                      <= 2.5e-15 * np.abs(kernel.sqrt_f_spectrum(omega)))
    nodes, values = damped._table(kernel)[2:]
    below = nodes < kernel_module._SERIES_SIGMAS * kernel.sigma
    below[:, -1] = False
    assert np.array_equal(damped._residual(kernel, nodes[below]),
                          values[below])
    assert np.array_equal(damped._residual(kernel, -nodes[below]),
                          np.conj(values[below]))


def _spectrum_calls(monkeypatch) -> list:
    """(entries, summed entries) of every ``sqrt_f_spectrum`` call from here
    on; entries from 40 sigma on take the large-omega series, not the sum."""
    calls = []
    spectrum = DampingKernel.sqrt_f_spectrum

    def counted(self, omega):
        x = np.abs(np.asarray(omega))
        calls.append((x.size, int(np.count_nonzero(
            x < kernel_module._SERIES_SIGMAS * self.sigma))))
        return spectrum(self, omega)

    monkeypatch.setattr(DampingKernel, "sqrt_f_spectrum", counted)
    return calls


def _panels_to(kernel) -> int:
    """Panels [0, s0], [s0, 2 s0], ... needed to reach the series
    threshold, 40 sigma."""
    top, count = kernel.decay_gap, 1
    while top < kernel_module._SERIES_SIGMAS * kernel.sigma:
        top, count = 2.0 * top, count + 1
    return count


def _summing(calls) -> list:
    """The entries of the calls that sum some of them."""
    return [size for size, summed in calls if summed]


def test_height_sweep_makes_one_spectrum_call_of_few_nodes(monkeypatch,
                                                           fresh_tables):
    # the figure5-shaped sweep's residual half spans 8,951 grid nodes, all
    # of which one spectrum call evaluated; a fresh table is made whole, its
    # 8 panels in one call of 8 x 32 nodes, and the nodes from 40 sigma on
    # take the series without a spectrum call; a second sweep on the same
    # kernel calls the spectrum not at all
    calls = _spectrum_calls(monkeypatch)
    kernel = DampingKernel(5e-3, 100.0)
    grid = 0.0125 * np.arange(-32768, 32769)
    amplitude_w_D_height_sweep(1.3, 5.0, kernel, grid)
    assert len(calls) == 1
    assert _summing(calls) == [8 * damped._CHEB_POINTS]
    calls.clear()
    amplitude_w_D_height_sweep(1.3, 5.0, kernel, grid)
    assert calls == []


@pytest.mark.parametrize("gamma, bound", [(5e-5, 25e6), (2e-5, 28e6)],
                         ids=["g5e-5", "g2e-5"])
def test_weak_damping_sweep_keeps_the_buffer_of_one_residue_class(
        fresh_tables, gamma, bound):
    # at gamma 5e-5 the sweep correlates at h / 24; taken one residue class
    # of the fine step at a time, its numpy working set on the figure5 grid
    # stays near that of h itself (10 MB), where one FFT over all 24 classes
    # peaked at 65 MB.  At 2e-5 (h / 60) the residual half's 192,001
    # samples set the peak (24 MB): the ladder spectrum on them, added rung
    # by rung, holds two temporaries of that size, where its four rungs at
    # once held eight and took the peak to 37 MB
    kernel = DampingKernel(gamma, 100.0)
    grid = 0.0125 * np.arange(-32768, 32769)
    damped._table(kernel)
    tracemalloc.start()
    try:
        amplitude_w_D_height_sweep(1.3, 5.0, kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_w_D_reads_its_residual_from_panels_made_once(monkeypatch,
                                                      fresh_tables):
    # the first w_D on a fresh table makes the kernel's whole table, every
    # panel to the one holding 40 sigma, in one call of 32 nodes a panel,
    # its only spectrum call: the window probe reads the table too; later
    # energies at the same tol call the spectrum not at all, where each
    # summed rows of its own
    calls = _spectrum_calls(monkeypatch)
    kernel = DampingKernel(5e-3, 100.0)
    amplitude_w_D(1.3, 5.0, kernel)
    count = _panels_to(kernel)
    assert len(calls) == 1
    assert _summing(calls) == [count * damped._CHEB_POINTS]
    assert len(damped._table(kernel)[2]) == count
    calls.clear()
    for e in (0.5, 2.0, 4.0):
        amplitude_w_D(e, 5.0, kernel)
    assert calls == []


def test_weak_damping_kernel_makes_eight_panels(monkeypatch, fresh_tables):
    # at gamma 1e-5, Omega 10 the w_D window reaches 250,000 sigma; the
    # table stops at the panel holding 40 sigma, where the series takes
    # over, so the first w_D sums its eight 32-node panels in one call,
    # where panels out to the window made 21, and makes no other: its
    # window probe reads the table; a second energy calls the spectrum not
    # at all
    calls = _spectrum_calls(monkeypatch)
    kernel = DampingKernel(1e-5, 10.0)
    assert amplitude_w_D(1.3, 5.0, kernel).cutoff > 2e5 * kernel.sigma
    assert len(calls) == 1
    assert _summing(calls) == [8 * damped._CHEB_POINTS]
    calls.clear()
    amplitude_w_D(2.0, 5.0, kernel)
    assert calls == []


def test_residual_bits_do_not_depend_on_the_table_history(fresh_tables):
    # the table is made whole from the kernel alone, so w_D and C_D keep
    # their bits whichever call, tol or route first made it
    kernel, taus = DampingKernel(5e-3, 100.0), np.linspace(0.0, 5.0, 11)
    w_D = amplitude_w_D(1.3, 5.0, kernel)
    fresh_tables()
    c_D = cumulative_amplitude(1.3, 5.0, kernel, taus).values.tobytes()
    fresh_tables()
    amplitude_w_D(1.3, 5.0, kernel, tol=1e-10)  # a window 8 times wider
    assert amplitude_w_D(1.3, 5.0, kernel) == w_D
    fresh_tables()
    amplitude_w_D(1.3, 5.0, kernel)
    assert cumulative_amplitude(1.3, 5.0, kernel, taus).values.tobytes() == c_D
    fresh_tables()
    cumulative_amplitude(1.3, 5.0, kernel, taus)
    assert amplitude_w_D(1.3, 5.0, kernel) == w_D


_BATCH_KERNELS = (DampingKernel(5e-3, 100.0), DampingKernel(1e-5, 10.0))


@functools.cache
def _alone(index):
    """Frequencies on both sides of 40 sigma for ``_BATCH_KERNELS[index]``,
    with the spectrum and the residual of each from a call of its own."""
    kernel = _BATCH_KERNELS[index]
    switch = kernel_module._SERIES_SIGMAS * kernel.sigma
    pool = switch * 10.0 ** np.linspace(-5.0, 2.0, 301)
    pool = np.append(pool * (-1.0) ** np.arange(pool.size),
                     [0.0, -0.0, switch, np.nextafter(switch, 0.0)])
    return (pool,
            np.array([kernel.sqrt_f_spectrum(w) for w in pool.tolist()]),
            np.array([residual_spectrum(kernel, w) for w in pool.tolist()]))


@settings(max_examples=60, deadline=None)
@given(index=st.sampled_from([0, 1]), size=st.integers(1, 1500),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spectrum_entries_keep_their_bits_in_any_batch(index, size, seed):
    # the table sums all its panels in one spectrum call, and
    # test_residual_bits_do_not_depend_on_the_table_history needs each
    # node's value free of the nodes beside it: any draw of near and far
    # nodes, repeats and several chunks of the summed block included, gives
    # each the bits of its own call, as spectrum and as residual
    kernel = _BATCH_KERNELS[index]
    pool, spectrum, residual = _alone(index)
    pick = np.random.default_rng(seed).integers(0, pool.size, size)
    assert (kernel.sqrt_f_spectrum(pool[pick]).tobytes()
            == spectrum[pick].tobytes())
    assert (residual_spectrum(kernel, pool[pick].reshape(1, -1)).tobytes()
            == residual[pick].tobytes())


def test_residual_panels_stay_those_of_the_window(fresh_tables):
    # the kernel's entry is made whole, the panels to the one holding 40
    # sigma, before any window is searched, and no tol, window or number of
    # energies adds a panel; the table once grew with the widest call's
    # reach, so what it held depended on which call came first
    kernel = DampingKernel(5e-3, 1000.0)
    entry = damped._table(kernel)  # the sweeps' equal kernels share it
    nodes, values = entry[2:]
    assert entry[1] == {} and len(nodes) == _panels_to(kernel)
    run_transmission(5.0, np.linspace(0.5, 3.0, 10), [5e-3], 1000.0)
    run_transmission(5.0, np.linspace(0.55, 3.05, 40), [5e-3], 1000.0)
    run_transmission(5.0, [1.3], [5e-3], 1000.0, tol=1e-10)
    assert sorted(entry[1]) == [1e-10, 1e-6]
    assert entry[2] is nodes and entry[3] is values


@pytest.mark.parametrize("gamma, cutoff, epsilon", [
    (1e-6, 10.0, 0.4), (1e-5, 10.0, 1.3), (5e-3, 100.0, 2.0),
    (0.05, 100.0, 1.3), (0.5, 1000.0, 4.0)])
def test_w_D_error_carries_the_interpolation_share(monkeypatch, gamma, cutoff,
                                                   epsilon):
    # w_D's error carries 2.5e-15 of (1 / 2 pi) int |gtilde| over the
    # window for the interpolant; it covers the move to the direct residual
    # on the same panel tree, and is far below any tol the package takes
    kernel = DampingKernel(gamma, cutoff)
    got = amplitude_w_D(epsilon, 5.0, kernel)
    share = damped._interpolation_error(kernel, got.cutoff)
    monkeypatch.setattr(damped, "_residual", residual_spectrum)
    direct = amplitude_w_D(epsilon, 5.0, kernel)
    assert direct.panels_used == got.panels_used
    assert abs(got.value - direct.value) <= share < 5e-14
    assert got.error_estimate >= share


def test_w_D_refuses_a_tol_its_interpolation_share_breaks():
    # below about 3e-13 the interpolation share alone exceeds what the
    # window and quadrature leave of tol: the best estimate is kept
    ref = amplitude_w_D(2.0, 5.0, STD, tol=1e-11)
    with pytest.raises(NonConvergenceError, match="interpolation error") as info:
        amplitude_w_D(2.0, 5.0, STD, tol=1e-13)
    err = info.value
    assert err.error_estimate > 1e-13
    assert abs(err.best_estimate - ref.value) <= ref.error_estimate
    assert amplitude_w_D(2.0, 5.0, STD, tol=1e-12).error_estimate <= 1e-12


def test_ladder_refuses_a_decay_gap_its_powers_underflow():
    # at a decay gap of 5.9e-110 the ladder's Vandermonde is singular in
    # floating point; the solve's LinAlgError became a typed failure
    kernel = DampingKernel(1e-110, 10.0)
    with pytest.raises(DegenerateKernelError, match="no subtraction ladder"):
        subtraction_ladder(kernel)
    with pytest.raises(DegenerateKernelError, match="no subtraction ladder"):
        amplitude_w_D(1.3, 5.0, kernel)

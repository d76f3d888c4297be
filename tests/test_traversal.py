"""Traversal-time distributions, their moments against the closed mean,
and the cumulative amplitude."""

import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qbarrier import damped, sweep, traversal
from qbarrier.damped import (amplitude_w_D, amplitude_w_D_height_sweep,
                             subtraction_ladder)
from qbarrier.errors import DomainError, NonConvergenceError, WindowError
from qbarrier.kernel import DampingKernel
from qbarrier.traversal import (SpectralGrid, cumulative_amplitude,
                                distribution_F, distribution_F_D,
                                mean_traversal_closed,
                                mean_traversal_derivative)
from qbarrier.units import classical_crossing_time, resonance_energies

from reference import trapezoid_cumulative

STD = DampingKernel(5e-3, 100.0)


def test_spectral_grid_structure():
    grid = SpectralGrid()
    assert grid.n_samples & (grid.n_samples - 1) == 0  # power of two
    # the alternating-sign trick requires halfwidth * time_step = pi
    assert grid.halfwidth * grid.time_step == pytest.approx(math.pi,
                                                            rel=1e-12)
    with pytest.raises(WindowError):
        SpectralGrid(window=-1.0)
    with pytest.raises(WindowError):
        SpectralGrid(period=1e9).n_samples
    for bad in (dict(window=math.inf), dict(period=math.inf)):
        with pytest.raises(WindowError):
            SpectralGrid(**bad)


def test_spectral_grid_refuses_a_sample_count_that_overflows():
    # a finite window over a finite period can need inf samples, whose
    # log2 math.ceil turned into a bare OverflowError
    grid = SpectralGrid(1e200, 1e200)
    with pytest.raises(WindowError, match="at least inf samples"):
        grid.n_samples
    with pytest.raises(WindowError, match="at least 1.528e"):
        SpectralGrid(60.0, 1e9).n_samples


def test_distribution_total_is_exactly_one():
    # discrete identity: on-grid omega = 0 plus the alternating sign
    # makes the normalization exact by construction
    dist = distribution_F(1.3, 5.0)
    assert dist.total() == pytest.approx(1.0, abs=1e-13)
    dist2 = distribution_F(0.7, 5.0)
    assert dist2.total() == pytest.approx(1.0, abs=1e-13)


def test_distribution_first_moment_matches_closed_mean():
    dist = distribution_F(1.3, 5.0)
    closed = mean_traversal_closed(1.3, 5.0)
    assert dist.moment(1) == pytest.approx(closed, rel=1e-8)


def test_distribution_frozen_moment():
    dist = distribution_F(1.3, 5.0)
    assert dist.moment(1) == pytest.approx(
        2.3042163110223854 - 0.4800326786760651j, rel=1e-12)


def test_distribution_causality_floor():
    dist = distribution_F(1.3, 5.0)
    assert np.max(np.abs(dist.values[dist.signed_times < 0])) < 1e-8


def test_distribution_moment_validation():
    dist = distribution_F(1.3, 5.0)
    with pytest.raises(DomainError):
        dist.moment(-1)


def test_suppressed_distribution_normalization():
    damped = distribution_F_D(1.3, 5.0, STD)
    assert damped.total() == pytest.approx(1.0, abs=1e-12)


def test_suppression_constant_matches_amplitude_ratio():
    # the renormalization constant must agree with w_D / w from the
    # independent spectral route, to window accuracy
    damped = distribution_F_D(1.3, 5.0, STD)
    res = amplitude_w_D(1.3, 5.0, STD)
    assert abs(damped.suppression - res.value / res.bare) < 1e-5


def test_suppressed_distribution_shifts_weight_earlier():
    # sqrt(f) decays, so late traversals are punished and the mean drops
    clean = distribution_F(1.3, 5.0)
    damped = distribution_F_D(1.3, 5.0, STD)
    assert damped.moment(1).real < clean.moment(1).real


def test_mean_closed_frozen_values():
    assert mean_traversal_closed(2.0, 5.0) == pytest.approx(
        0.9685654061989439 - 0.09235144472905946j, rel=1e-13)
    e1 = resonance_energies(5.0, 1)[0]
    m = mean_traversal_closed(float(e1), 5.0)
    assert m.real == pytest.approx(1.9191329085473692, rel=1e-13)
    assert abs(m.imag) < 1e-12


def test_mean_closed_vs_derivative_route():
    rng = np.random.default_rng(23)
    for _ in range(12):
        eps = float(rng.uniform(0.15, 4.5))
        if abs(eps - 1.0) < 0.02:
            continue
        a = mean_traversal_closed(eps, 5.0)
        b = mean_traversal_derivative(eps, 5.0)
        assert abs(a - b) <= 1e-6 * abs(a), eps


def test_mean_real_at_resonances():
    for e in resonance_energies(5.0, 4):
        assert abs(mean_traversal_closed(float(e), 5.0).imag) < 1e-10


def test_mean_exceeds_classical_at_resonance_only():
    e1 = float(resonance_energies(5.0, 1)[0])
    assert (mean_traversal_closed(e1, 5.0).real
            > classical_crossing_time(e1))
    # antiresonance: kappa d = 1.5 pi, the mean dips below
    eps_anti = 1.0 + (1.5 * math.pi / 5.0) ** 2
    assert (mean_traversal_closed(eps_anti, 5.0).real
            < classical_crossing_time(eps_anti))


def test_mean_deviation_peaks_sit_below_resonances():
    # The local maxima of |mean| - tau_cl do not line up with the
    # resonance energies: each sits well below its resonance, and the
    # offset grows with n.  Frozen from a golden-section refinement of
    # a 2048-point scan, cross-checked against the finite-difference
    # route to 5e-12.
    frozen = [(1.2825748388, 0.5352662525),
              (2.3663336752, 0.0362752809),
              (4.2159975332, 0.0064616002)]

    def dev(e: float) -> float:
        return (abs(mean_traversal_closed(e, 5.0))
                - classical_crossing_time(e))

    eps = np.linspace(1.02, 5.0, 2048)
    vals = np.array([dev(float(e)) for e in eps])
    interior = np.flatnonzero(
        (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
    assert interior.size == len(frozen)

    step = eps[1] - eps[0]
    for idx, (e_pk, height), e_n in zip(interior, frozen,
                                        resonance_energies(5.0, 3)):
        assert abs(eps[idx] - e_pk) <= step
        assert dev(e_pk) == pytest.approx(height, rel=1e-8)
        assert e_n - e_pk > 0.1  # far below the resonance, not a grid effect
        fd = (abs(mean_traversal_derivative(e_pk, 5.0))
              - classical_crossing_time(e_pk))
        assert fd == pytest.approx(height, rel=1e-6)


@pytest.mark.parametrize("width", [20.0, 100.0, 1e3, 1e4])
def test_mean_derivative_route_holds_on_wide_barriers(width):
    # the internal phase turns by width / (2 kappa) per unit of height, so
    # a fixed height step spans more of it as the barrier widens; the
    # route shrinks its step to keep the Richardson pass accurate
    for e in resonance_energies(width, 3):
        closed = mean_traversal_closed(float(e), width)
        deriv = mean_traversal_derivative(float(e), width)
        assert abs(deriv - closed) <= 1e-8 * abs(closed), e


@pytest.mark.parametrize("width, bound, midpoints", [
    (1e10, 2.5e-4, False), (3e11, 5e-3, False), (1e12, 4e-3, False),
    (3e10, 2e-3, True), (1e11, 3e-3, True)],
    ids=["1e10", "3e11", "1e12", "3e10-midpoints", "1e11-midpoints"])
def test_mean_derivative_route_balances_truncation_and_rounding(width, bound,
                                                                midpoints):
    # the phase kappa d rounds by about 2^-52 kappa d, which the route
    # divides by its step; a step shrunk with 1/d alone left figure4's
    # max_error_g0 at 8.7e-3 (1e10) and 0.19 (3e11), the balanced step
    # at 1.3e-4 and 2.2e-3.  Its factor 4 was chosen on figure4's grid; at
    # the grid's midpoints the worst gap is 5.4e-4 (3e10) and 8.5e-4
    # (1e11), where the 1/d step left 7.9e-3 and 7.3e-2.  At 1e12, past the
    # fitted widths, the two lowest energies were refused by the old phase
    # scale; at the balanced step they meet the closed mean within 1.7e-3
    eps = np.linspace(1.01, 5.0, 257)[1:]
    if midpoints:
        eps = 0.5 * (eps[:-1] + eps[1:])
    gaps = [abs(mean_traversal_derivative(float(e), width)
                - mean_traversal_closed(float(e), width)) for e in eps]
    assert max(gaps) <= bound


@pytest.mark.parametrize("width", [1e-160, 1e-300, sys.float_info.min])
def test_mean_derivative_route_holds_on_tiny_widths(width):
    # (pi / width)^2 overflowed below a width of about 2e-154 and figure4
    # stopped with a traceback; the phase scale there is far above the
    # coarse step, which the route keeps, and it meets the closed mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (0.5, 1.3, 2.5):
            closed = mean_traversal_closed(e, width)
            deriv = mean_traversal_derivative(e, width)
            assert abs(deriv - closed) <= 1e-8 * abs(closed), e


@pytest.mark.parametrize("route", [mean_traversal_closed,
                                   mean_traversal_derivative])
@pytest.mark.parametrize("width", [1e-308, 5e-309, 1e-310, 1e-320, 5e-324])
def test_mean_routes_refuse_subnormal_widths(route, width):
    # below the smallest normal double the closed route's / width overflowed
    # to inf with numpy warnings, and the derivative route returned nan + nanj
    # with none; the smallest normal width itself still holds (above)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (0.5, 1.3, 2.5):
            with pytest.raises(DomainError, match="positive and normal"):
                route(e, width)


@pytest.mark.parametrize("epsilon, width, reason", [
    *[(1.0 + (math.pi / d) ** 2, d, "height step below 2**-51")
      for d in (7e4, 1e5, 1e6, 1e7, 1e8)],
    (1.0, 1e200, "height step below 2**-51"),
    (0.5, 1e4, "bare amplitude underflows to 0")],
    ids=["step-7e4", "step-1e5", "step-1e6", "step-1e7", "step-1e8",
         "scale-underflows", "bare-underflows"])
def test_mean_derivative_route_refuses_what_it_cannot_resolve(
        epsilon, width, reason):
    # below 2**-51, 1 +- h/2 rounds: at 7e4 a step of 2**-52 gave a third
    # of the expected d^2 / (2 pi^2), from 1e5 on exactly 0; at 1e200
    # the step's scale underflows to 0 (a step of 0.5 gave 2.08 - 0.88i);
    # at 0.5, 1e4 the bare amplitude underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(reason)):
            mean_traversal_derivative(epsilon, width)


@pytest.mark.parametrize("width", [500.0, 1000.0])
def test_mean_closed_deep_below_the_barrier(width):
    # sin^2(kappa d) overflows from Im(kappa d) ~ 355; the closed form
    # then divides through by it and tends to 2 / d - sqrt(2) i at 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = mean_traversal_closed(0.5, width)
        deriv = mean_traversal_derivative(0.5, width)
    assert abs(closed - deriv) <= 1e-6
    assert abs(closed - (2.0 / width - math.sqrt(2.0) * 1j)) <= 1e-12


def test_mean_closed_indeterminate_near_unit_energy():
    with pytest.raises(DomainError):
        mean_traversal_closed(1.0, 5.0)
    # but the derivative route is fine there
    val = mean_traversal_derivative(1.0, 5.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_cumulative_starts_at_zero_and_plateaus():
    taus = np.array([0.0, 1.0, 10.0, 30.0])
    for gamma, ref_mid in ((0.0, 0.4327727), (5e-3, 0.5041888)):
        kernel = DampingKernel(gamma, 100.0)
        res = cumulative_amplitude(1.3, 5.0, kernel, taus)
        mags = np.abs(res.values)
        assert mags[0] == 0.0
        assert mags[1] == pytest.approx(ref_mid, rel=1e-5)
        assert abs(mags[3] - 1.0) < 1e-2


def test_cumulative_h0_lies_within_the_certified_amplitude():
    # the height sweep samples on the caller's grid, so H0 is w_D at the
    # grid's centre to within amplitude_w_D's own certificate (7.6e-12
    # here); with its step taken as om[1] - om[0] it missed by 2.6e-11
    ref = amplitude_w_D(1.3, 5.0, STD, tol=1e-11)
    h0 = cumulative_amplitude(1.3, 5.0, STD, [1.0]).suppressed_amplitude
    assert abs(h0 - ref.value) <= ref.error_estimate


def test_cumulative_damped_rises_earlier():
    # suppression punishes late traversals, so the damped cumulative
    # runs ahead of the clean one through the rise
    taus = np.linspace(0.5, 6.0, 12)
    clean = cumulative_amplitude(1.3, 5.0, DampingKernel(0.0, 100.0), taus)
    damped = cumulative_amplitude(1.3, 5.0, STD, taus)
    assert np.all(np.abs(damped.values) > np.abs(clean.values))


def test_cumulative_derivative_consistent_with_distribution():
    # different spectral windows (Gaussian vs sharp), so agreement is to
    # window resolution, not machine precision
    dist = distribution_F_D(1.3, 5.0, STD)
    taus = np.array([1.5, 2.3, 3.0, 5.0])
    h = 0.02
    pts = np.concatenate([taus - h, taus + h])
    res = cumulative_amplitude(1.3, 5.0, STD, pts)
    deriv = (res.values[len(taus):] - res.values[:len(taus)]) / (2.0 * h)
    interp = (np.interp(taus, dist.positive_times, dist.positive_values.real)
              + 1j * np.interp(taus, dist.positive_times,
                               dist.positive_values.imag))
    rel = np.abs(deriv - interp) / np.abs(interp)
    assert np.max(rel) < 0.08
    assert np.mean(rel) < 0.04


def test_cumulative_clean_limit_matches_bare_distribution():
    taus = np.array([2.0, 4.0])
    h = 0.02
    pts = np.concatenate([taus - h, taus + h])
    clean = cumulative_amplitude(1.3, 5.0, DampingKernel(0.0, 100.0), pts)
    deriv = (clean.values[2:] - clean.values[:2]) / (2.0 * h)
    dist = distribution_F(1.3, 5.0)
    interp = (np.interp(taus, dist.positive_times, dist.positive_values.real)
              + 1j * np.interp(taus, dist.positive_times,
                               dist.positive_values.imag))
    assert np.max(np.abs(deriv - interp) / np.abs(interp)) < 0.08


@pytest.mark.parametrize("epsilon, gamma", [
    *((epsilon, gamma) for epsilon in (0.7, 1.3, 2.6)
      for gamma in (0.0, 5e-3, 0.05)),
    (1.3, 1e-3), (1.3, 2e-4)])
def test_cumulative_meets_the_quarter_step_trapezoid(epsilon, gamma):
    # the same integral over [-W, W] at a quarter of the step, with the h^2
    # endpoint term of each step taken off: what is left, the h^4 term and
    # rounding, is at most 2.2e-9 (epsilon 0.7, gamma 0.05, tau 29), where
    # the endpoint term itself, the sum's step error, is 9.9e-7.  gamma
    # 1e-3 and 2e-4 run on the same step, their sweeps correlating at h/2
    # and h/6 (the reference's at h/8 and h/12)
    kernel = DampingKernel(gamma, 100.0)
    taus = np.linspace(0.0, 30.0, 301)
    res = cumulative_amplitude(epsilon, 5.0, kernel, taus)
    ref = trapezoid_cumulative(epsilon, 5.0, kernel, taus, res.step / 4.0,
                               res.halfwidth)
    assert res.values[0] == 0.0
    gap = res.values - res.step ** 2 * ref.endpoint - ref.values
    assert np.max(np.abs(gap)) <= 5e-7


def test_cumulative_input_validation():
    with pytest.raises(DomainError):
        cumulative_amplitude(1.3, 5.0, STD, np.array([-1.0, 2.0]))
    with pytest.raises(DomainError):
        cumulative_amplitude(1.3, 5.0, STD, [1.0, np.inf])
    # weak damping makes the height sweep correlate at h/1275, which would
    # need 4.59e7 steps per side here; refused before anything is built
    with pytest.raises(WindowError):
        cumulative_amplitude(1.3, 5.0, DampingKernel(1e-5, 10.0), [1.0])


def test_cumulative_refuses_a_residual_tail_above_1e_5_of_h0():
    # the height sweep clamps its residual half-width at 200 and bounds the
    # tail it leaves by max(mismatch, 1e-4) / (4 pi 200^4): 9.3e-7 |H0| at
    # gamma = 0.05, kept, and 29 |H0| at 0.5, refused, where H0 is 78% off
    # w_D.  Either way the bound covers H0's miss (3.1e-9 and 1.5e-5)
    def tail(kernel):
        mismatch = subtraction_ladder(kernel).mismatch
        return max(mismatch, 1e-4) / (4.0 * math.pi * 200.0 ** 4)

    mild, strong = DampingKernel(0.05, 100.0), DampingKernel(0.5, 100.0)
    h0 = cumulative_amplitude(1.3, 5.0, mild, [1.0]).suppressed_amplitude
    assert abs(h0 - amplitude_w_D(1.3, 5.0, mild, tol=1e-10).value) <= tail(
        mild)
    with pytest.raises(NonConvergenceError, match="residual tail") as info:
        cumulative_amplitude(1.3, 5.0, strong, [1.0])
    assert info.value.error_estimate == tail(strong)
    assert tail(strong) > 1e-5 * abs(info.value.best_estimate)
    ref = amplitude_w_D(1.3, 5.0, strong, tol=1e-10).value
    assert abs(info.value.best_estimate - ref) <= tail(strong)


def test_cumulative_working_set_stays_within_eight_grid_arrays():
    # the figure5-shaped call spans its 65,537-point grid with the sweep's
    # output, FFT buffer and residual transform, the trapezoid sum's tables and
    # bare-amplitude blocks of fixed length: about 6.3 complex grid arrays
    # (6.6 MB) at its tracemalloc peak, where whole-grid evaluations of the
    # ladder and the extension peaked at 13.5
    taus = np.linspace(0.0, 30.0, 301)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cumulative_amplitude(1.3, 5.0, DampingKernel(5e-3, 100.0), taus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * 65537 * 16


def _long_double_cumulative(epsilon, width, kernel, taus, step, w_half):
    """C_D by the same trapezoid sum on the same heights, one sine per
    node, each phase tau w_k formed in long double as a number of turns and
    cut to its fraction, so that every sine is good to about 2e-16 however
    large tau w_k grows; the sums and the rest of the assembly in long
    double too."""
    ld = np.longdouble
    n_half = int(round(w_half / step))
    grid = step * np.arange(-n_half, n_half + 1)
    heights = amplitude_w_D_height_sweep(epsilon, width, kernel, grid)
    h0 = complex(heights[n_half])
    coeffs = (heights[n_half + 1:] + heights[n_half - 1::-1]) / (
        math.pi * grid[n_half + 1:])
    coeffs = np.stack([coeffs.real, coeffs.imag]).astype(ld)
    coeffs[:, -1] *= 0.5
    turn = 8 * np.arctan(ld(1))
    turns = np.arange(1, n_half + 1, dtype=ld) * (ld(step) / turn)
    sums = np.empty((taus.size, 2), dtype=ld)
    for i, tau in enumerate(taus.astype(ld)):
        phases = tau * turns
        phases -= phases.astype(np.int64)
        sums[i] = coeffs @ np.sin((turn * phases).astype(float)).astype(ld)
    values = (ld(step) * (sums[:, 0] + 1j * sums[:, 1]) / np.clongdouble(h0)
              + ld(step) * taus.astype(ld) * (2 / turn))
    return values.astype(complex)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("gamma", [0.0, 5e-3, 1e-3])
def test_cumulative_meets_the_long_double_filon_sum(gamma):
    # the id predates the trapezoid sum, which the reference now sums
    # whole, with no Gaussian taken off.  The angle-addition sum rounds
    # only B + L phases of size up to W tau per time, not N: on the figure5
    # grid it lies within 5.9e-16 of the long double sum (9.5e-16 at gamma
    # 1e-3)
    kernel = DampingKernel(gamma, 100.0)
    taus = np.linspace(0.0, 30.0, 301)
    res = cumulative_amplitude(1.3, 5.0, kernel, taus)
    ref = _long_double_cumulative(1.3, 5.0, kernel, taus, res.step,
                                  res.halfwidth)
    assert res.values[0] == 0.0
    assert np.max(np.abs(res.values - ref)) <= 1e-14


@pytest.mark.parametrize("gamma, taus", [
    (5e-3, np.linspace(0.0, 30.0, 301)),
    (1e-3, np.linspace(0.0, 30.0, 2001))],
    ids=["figure5", "one-row-blocks"])
def test_cumulative_does_not_depend_on_its_row_blocks(monkeypatch, gamma,
                                                      taus):
    # where the trapezoid sum's row blocks fall could move the bits: the
    # figure5 grid is one block, 2001 times at gamma 1e-3 fill 13, the last
    # one partial; every 20th time alone in a call (one row, one block)
    # agrees to 1e-15.  All calls share epsilon, width and kernel, so one
    # height sweep serves them all
    kernel = DampingKernel(gamma, 100.0)
    sweep = traversal.amplitude_w_D_height_sweep
    heights = []

    def sweep_once(*args, **kwargs):
        if not heights:
            heights.append(sweep(*args, **kwargs))
        return heights[0]

    monkeypatch.setattr(traversal, "amplitude_w_D_height_sweep", sweep_once)
    values = cumulative_amplitude(1.3, 5.0, kernel, taus).values
    alone = [cumulative_amplitude(1.3, 5.0, kernel, taus[i:i + 1]).values[0]
             for i in range(0, taus.size, 20)]
    assert values[0] == alone[0] == 0.0
    assert np.max(np.abs(values[::20] - alone)) <= 1e-15


def _capture(monkeypatch, module, name) -> list:
    """(args, kwargs, result) of each call of ``module.name`` from now on."""
    calls, original = [], getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs, original(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("gammas", [[5e-3], [1e-3, 5e-3], [5e-3, 1e-2]],
                         ids=["figure5", "mixed-steps", "two-damped"])
def test_run_cumulative_columns_equal_standalone_curves(monkeypatch, gammas):
    # every column sits on the step 0.0125 and shares trig tables, and g0
    # takes the first damped sweep's bare samples, which is the one of
    # 1e-3 correlating at h/2 in mixed-steps, and evaluates no height.
    # Each column keeps the bits of its own call, and the shared dict is
    # empty once the runner returns
    taus = np.linspace(0.0, 30.0, 301)
    calls = _capture(monkeypatch, sweep, "cumulative_amplitude")
    samples = {}  # gamma -> the bare-sample keys in shared before its sweep
    height_sweep = traversal.amplitude_w_D_height_sweep

    def recording(epsilon, width, kernel, grid, *, shared=None):
        if shared is not None:  # the runner's call, not a standalone one
            samples[kernel.gamma] = [k for k in shared if k[0] == "bare"]
        return height_sweep(epsilon, width, kernel, grid, shared=shared)

    monkeypatch.setattr(traversal, "amplitude_w_D_height_sweep", recording)
    res = sweep.run_cumulative(5.0, 1.3, taus, gammas, 100.0)
    assert res.columns == ["g0"] + [sweep.gamma_label(g) for g in gammas]
    steps = {}
    for args, kwargs, curve in calls:
        assert kwargs["shared"] == {}
        gamma = args[2].gamma
        alone = cumulative_amplitude(1.3, 5.0, DampingKernel(gamma, 100.0),
                                     taus)
        assert curve.values.tobytes() == alone.values.tobytes()
        assert curve.suppressed_amplitude == alone.suppressed_amplitude
        column = res.table[:, res.params["gammas"].index(gamma)]
        assert column.tobytes() == np.abs(alone.values).tobytes()
        steps[gamma] = curve.step
    assert sorted(steps) == [0.0, *gammas]
    assert set(steps.values()) == {0.0125}
    assert samples[gammas[0]] == []
    assert samples[0.0] == [("bare", 1.3, 5.0, 0.0125, 32768)]


def test_cumulative_shares_only_what_its_grid_and_times_match():
    # one dict through calls on other times, another energy and a slower
    # kernel: each takes only what was made for its own grid and times
    shared, taus = {}, np.linspace(0.0, 30.0, 301)
    calls = [(1.3, 5e-3, taus), (1.3, 0.0, taus[::2]), (1.4, 0.0, taus),
             (1.3, 1e-3, taus), (1.3, 0.0, taus)]
    for epsilon, gamma, times in calls:
        kernel = DampingKernel(gamma, 100.0)
        got = cumulative_amplitude(epsilon, 5.0, kernel, times, shared=shared)
        alone = cumulative_amplitude(epsilon, 5.0, kernel, times)
        assert got.values.tobytes() == alone.values.tobytes()
    # the samples at 1.3 and the trig tables of both time grids, which do
    # not depend on the energy; 1e-3, on the same step, finds both there
    assert len(shared) == 3


def test_run_distribution_damped_columns_equal_standalone_calls(monkeypatch):
    # the damped columns take the runner's bare distribution as their base
    calls = _capture(monkeypatch, sweep, "distribution_F_D")
    res = sweep.run_distribution(5.0, 1.3, 0.0, 30.0, 301, [1e-3, 5e-3],
                                 100.0)
    assert [args[2].gamma for args, _, _ in calls] == [1e-3, 5e-3]
    for args, kwargs, dist in calls:
        assert kwargs["base"].suppression == 1.0
        alone = distribution_F_D(1.3, 5.0, args[2])
        assert dist.values.tobytes() == alone.values.tobytes()
        assert dist.suppression == alone.suppression
        rows = np.rint(res.axis / alone.step).astype(int)
        column = res.table[:, res.params["gammas"].index(args[2].gamma)]
        assert column.tobytes() == np.abs(
            alone.positive_values[rows]).tobytes()


def test_figure5_shaped_tables_evaluate_each_bare_height_once(monkeypatch):
    # the g0 curve reads the damped sweep's 65,537 real-axis samples and
    # the damped distribution the runner's 16,384-sample bare one; before,
    # both made their own (411,122 and 32,768 heights)
    heights = []
    for module in (damped, traversal):
        original = module.amplitude_w_complex_height

        def counting(epsilon, width, height, original=original):
            heights.append(np.size(height))
            return original(epsilon, width, height)

        monkeypatch.setattr(module, "amplitude_w_complex_height", counting)
    sweep.run_cumulative(5.0, 1.3, np.linspace(0.0, 30.0, 301), [5e-3],
                         100.0)
    cumulative = sum(heights)
    sweep.run_distribution(5.0, 1.3, 0.0, 30.0, 301, [5e-3], 100.0)
    assert cumulative == 411_122 - 65_537
    assert sum(heights) - cumulative == 32_768 - 16_384


def test_distribution_F_D_refuses_a_base_it_was_not_made_from():
    base = distribution_F(1.3, 5.0)
    same = distribution_F_D(1.3, 5.0, STD, base=base)
    assert same.values.tobytes() == distribution_F_D(
        1.3, 5.0, STD).values.tobytes()
    for kwargs in (dict(grid=SpectralGrid(window=40.0), base=base),
                   dict(grid=SpectralGrid(period=48.0), base=base),
                   dict(base=distribution_F(1.3, 5.0,
                                            grid=SpectralGrid(window=40.0))),
                   dict(base=same),
                   dict(base=distribution_F(1.4, 5.0))):
        with pytest.raises(DomainError, match="not the bare distribution"):
            distribution_F_D(1.3, 5.0, STD, **kwargs)


def test_cumulative_keeps_the_shape_of_its_times():
    # empty, scalar and 2-D times: the shape comes back, and the values
    # are those of the same times passed flat
    clean = DampingKernel(0.0, 100.0)
    for shape in [(0,), (), (3, 7), (0, 3)]:
        taus = np.linspace(0.0, 3.0, math.prod(shape)).reshape(shape)
        values = cumulative_amplitude(1.3, 5.0, clean, taus).values
        flat = cumulative_amplitude(1.3, 5.0, clean, taus.ravel()).values
        assert values.shape == shape
        assert np.all(values.ravel() == flat)


def test_cumulative_refuses_a_time_whose_phase_overflows():
    # the step is at most 1 / tau_max, so a time past 5e6 / W = 12,207
    # would need over 5e6 steps per side; refused before the height sweep,
    # so no numpy warning and no nan
    for kernel in (DampingKernel(0.0, 100.0), STD):
        for tau in (1e307, 12208.0):
            with pytest.raises(DomainError, match=re.escape(
                    f"time {tau!r} is too large: its frequency step 1/tau "
                    "needs over 5e6 steps per side")):
                cumulative_amplitude(1.3, 5.0, kernel, [0.0, tau])


@pytest.mark.parametrize("gamma", [0.0, 5e-3])
def test_cumulative_steps_at_most_one_over_its_latest_time(gamma):
    # the step error is about (h tau)^2 / 12 of the window-edge error, so
    # past tau = 80 the step shrinks from 0.0125 to 1 / tau_max.  Out to
    # tau 300, past the pi / 0.0125 = 251 where the sum on the default step
    # would turn periodic, it meets the quarter-step trapezoid once the
    # endpoint terms are off (to 8.3e-10), and its step error is 4.9e-8
    kernel = DampingKernel(gamma, 100.0)
    taus = np.array([0.0, 100.0, 300.0])
    res = cumulative_amplitude(1.3, 5.0, kernel, taus)
    assert res.step == 1.0 / 300.0
    ref = trapezoid_cumulative(1.3, 5.0, kernel, taus, res.step / 4.0,
                               res.halfwidth)
    gap = res.values - res.step ** 2 * ref.endpoint - ref.values
    assert np.max(np.abs(gap)) <= 5e-7
    assert np.max(np.abs(res.values - ref.values)) <= 2e-7
    assert np.max(np.abs(res.values[1:] - 1.0)) < 1e-5


def test_cumulative_and_distribution_load_no_scipy(fresh_runs):
    # the damped C_D curve on the figure5 grid (height sweep, FFT,
    # trapezoid sum) and both traversal distributions run on numpy alone; the
    # session's fresh interpreter lists what they loaded
    assert fresh_runs["heavy"]["cumulative_amplitude"] == []
    assert fresh_runs["heavy"]["run_distribution"] == []

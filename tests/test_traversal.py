"""Traversal-time distributions, their moments against the closed mean,
and the cumulative amplitude."""

import math

import numpy as np
import pytest
from scipy.special import sici

from qbarrier.damped import amplitude_w_D, amplitude_w_D_height_sweep
from qbarrier.errors import DomainError, WindowError
from qbarrier.kernel import DampingKernel
from qbarrier.traversal import (SpectralGrid, cumulative_amplitude,
                                distribution_F, distribution_F_D,
                                mean_traversal_closed,
                                mean_traversal_derivative)
from qbarrier.units import classical_crossing_time, resonance_energies

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
    assert dist.negative_leakage() < 1e-8


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


def _three_branch_cumulative(epsilon, width, kernel, taus, step, w_half):
    """The earlier per-tau assembly of C_D, kept as a reference: exactly 0
    at tau = 0, a plain trapezoid while w_half tau <= pi, and the
    telescoped linear Filon sum beyond, on the same grid and heights."""
    n_half = int(round(w_half / step))
    grid = step * np.arange(-n_half, n_half + 1)
    heights = amplitude_w_D_height_sweep(epsilon, width, kernel, grid)
    h0 = complex(heights[n_half])
    psi = np.empty_like(heights)
    nonzero = grid != 0.0
    psi[nonzero] = (heights[nonzero] - h0) / (math.pi * grid[nonzero])
    psi[n_half] = (heights[n_half + 1] - heights[n_half - 1]) / (
        2.0 * step * math.pi)
    dpsi = np.diff(psi)
    psi_edge_diff = psi[0] - psi[-1]
    integrals = np.empty(taus.size, dtype=complex)
    for idx, tau in enumerate(taus):
        if tau == 0.0:
            integrals[idx] = 0.0
        elif w_half * tau <= math.pi:
            vals = psi * np.sin(grid * tau)
            integrals[idx] = step * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        else:
            sins = np.sin(grid * tau)
            integrals[idx] = ((dpsi * np.diff(sins)).sum() / (tau * tau * step)
                              + psi_edge_diff * math.cos(w_half * tau) / tau)
    si_vals, _ = sici(w_half * taus)
    return (1.0 + integrals / h0
            - (2.0 / math.pi) * (0.5 * math.pi - si_vals))


@pytest.mark.parametrize("gamma", [0.0, 5e-3])
@pytest.mark.parametrize("epsilon", [0.7, 1.3, 2.6])
def test_cumulative_closed_filon_matches_three_branch_rule(gamma, epsilon):
    # the closed sinc^2 sum is the same linear Filon integral as the
    # telescoped sum; the earlier trapezoid below w_half tau = pi differs
    # only by its own discretization error
    kernel = DampingKernel(gamma, 100.0)
    # five times up to pi / W, W = 409.6 being the grid's half-width here,
    # and the whole set as one 2-D array
    small = (math.pi / 409.6) * np.array([1e-3, 0.1, 0.5, 0.9, 1.0])
    taus = np.concatenate([np.linspace(0.0, 30.0, 31), small]).reshape(6, 6)
    res = cumulative_amplitude(epsilon, 5.0, kernel, taus)
    assert res.values.shape == taus.shape
    flat, values = taus.ravel(), res.values.ravel()
    ref = _three_branch_cumulative(epsilon, 5.0, kernel, flat, res.step,
                                   res.halfwidth)
    gap = np.abs(values - ref)
    oscillating = res.halfwidth * flat > math.pi
    assert np.all(values[flat == 0.0] == 0.0)
    assert np.max(gap[oscillating]) <= 1e-12
    assert np.max(gap[~oscillating]) <= 1e-8


def test_cumulative_input_validation():
    with pytest.raises(DomainError):
        cumulative_amplitude(1.3, 5.0, STD, np.array([-1.0, 2.0]))
    with pytest.raises(DomainError):
        cumulative_amplitude(1.3, 5.0, STD, [1.0, np.inf])
    # weak damping refines the step to decay_gap / 25, which would need
    # about 1.7e8 points per side here; refused before anything is built
    with pytest.raises(WindowError):
        cumulative_amplitude(1.3, 5.0, DampingKernel(1e-5, 10.0), [1.0])

"""Cross-checks between the independent amplitude routes.

The closed form is the production path; transfer matrix, reflection
series, and the assembled region propagators each re-derive the same
number from different algebra, so mutual agreement is the strongest
correctness statement available.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier.barrier import (_branch_sqrt, _sinc_form, amplitude_w,
                              amplitude_w_complex_height,
                              transfer_matrix_w, transmission_prob)
from qbarrier.errors import DomainError, NonConvergenceError
from qbarrier.kernel import DampingKernel

from reference import (PoleError, assemble_transmission_green, green_free,
                       green_inside, green_left, green_right,
                       reflection_series_w, transmission_from_green)


def test_transmission_frozen_value():
    assert transmission_prob(2.0, 5.0) == pytest.approx(
        0.8969076655094468, rel=1e-14)


def test_amplitude_vectorized_matches_scalar():
    eps = np.array([0.3, 0.999, 1.0, 1.001, 2.7])
    vec = amplitude_w(eps, 5.0)
    for e, wv in zip(eps, vec):
        assert amplitude_w(float(e), 5.0) == wv


def test_closed_form_vs_transfer_matrix():
    rng = np.random.default_rng(7)
    for _ in range(60):
        eps = float(rng.uniform(0.1, 5.0))
        if abs(eps - 1.0) < 1e-3:
            continue
        width = float(rng.choice([0.5, 1.0, 2.0, 5.0, 10.0]))
        a = amplitude_w(eps, width)
        b = transfer_matrix_w(eps, width)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_transfer_matrix_singularities():
    with pytest.raises(DomainError):
        transfer_matrix_w(1.0, 5.0)
    with pytest.raises(DomainError):
        # opaque enough that the route overflows internally
        transfer_matrix_w(0.5, 600.0)


def test_reflection_series_converges_above_barrier():
    for eps in (1.2, 1.3947841760435743, 2.0, 4.8):
        ref = amplitude_w(eps, 5.0)
        series = reflection_series_w(eps, 5.0, tol=1e-13)
        assert abs(series.value - ref) <= series.tail_bound + 1e-13
        assert series.terms_used < 10000


def test_reflection_series_converges_below_barrier():
    # round trips decay through the evanescent phase factor
    ref = amplitude_w(0.4, 5.0)
    series = reflection_series_w(0.4, 5.0, tol=1e-13)
    assert abs(series.value - ref) <= series.tail_bound + 1e-13
    assert series.terms_used <= 5


def test_reflection_series_diverges_at_unit_energy():
    with pytest.raises(NonConvergenceError):
        reflection_series_w(1.0, 5.0)


def test_regular_across_unit_energy():
    # the csinc evaluation must bridge epsilon = 1 smoothly
    w = amplitude_w(np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]), 5.0)
    assert abs(w[0] - w[1]) < 1e-8
    assert abs(w[2] - w[1]) < 1e-8
    exact_at_one = 2j * math.sqrt(1.0) / (
        1.0 * 5.0 + 2j * math.sqrt(1.0)) * cmath.exp(-5j)
    assert w[1] == pytest.approx(exact_at_one, rel=1e-12)


def test_deep_tunneling_asymptotic_branch():
    # straddle the switchover; both values come out tiny but finite and
    # must agree with the series route which has no branch at all
    for width in (390.0, 410.0):
        eps = 0.75
        w = amplitude_w(eps, width)
        series = reflection_series_w(eps, width, tol=1e-250)
        assert w == pytest.approx(series.value, rel=1e-10)
    assert amplitude_w(0.5, 1e5) == 0.0  # underflow, not overflow


def test_huge_phase_raises_no_warning():
    # sin(z)/z evaluated its small-z series on every entry, and z^4
    # overflowed with a RuntimeWarning once |kappa d| passed about 1e77.
    # The values never came from the series, so they stay what they were
    assert amplitude_w(1e300, 5.0) == (1 - 8.092711468118e-17j)
    assert amplitude_w(1.2, 1e300) == (
        0.8524557183718691 + 0.36574997713935964j)


def test_complex_height_reduces_to_real():
    for eps in (0.7, 1.9):
        assert amplitude_w_complex_height(eps, 5.0, 1.0) == pytest.approx(
            amplitude_w(eps, 5.0), rel=1e-14)
    # transparent barrier: height 0 means free propagation
    assert amplitude_w_complex_height(2.0, 5.0, 0.0) == pytest.approx(
        1.0, rel=1e-12)


@pytest.mark.parametrize("width", [0.5, 5.0, 20.0])
def test_path_form_at_ladder_heights_against_mpmath(width):
    # heights 1 - 2 (omega + i s_j) / width on the ladder's rungs over the
    # box, omega up to 1e-6 from the barrier top; by bands of |kappa width|,
    # the worst relative error against 50-digit values is at most twice the
    # sinc form's on the same points (without the |z| >= 1 guard the form
    # missed by 5.5e-14 next to the top, where the sinc form met 4.7e-16)
    heights = []
    for gamma in (1e-6, 1e-3, 5.0):
        for omega_c in (10.0, 1000.0):
            rates = DampingKernel(gamma, omega_c).decay_gap * 2.0 ** np.arange(4)
            for eps in (0.01, 1.3, 25.0):
                top = 0.5 * width * (1.0 - eps)
                for om in (top, top + 1e-6, top - 1e-6, top + 0.5, -30.0,
                           0.0, 300.0):
                    heights += [(eps, 1.0 - 2.0 * (om + 1j * s) / width)
                                for s in rates]
    eps, h = np.array(heights).T
    eps = eps.real
    k, ksq = np.sqrt(eps), eps - h
    z = _branch_sqrt(ksq) * width
    keep = z.imag <= 200.0  # beyond, sin and cos overflow
    k, ksq, z, eps, h = k[keep], ksq[keep], z[keep], eps[keep], h[keep]
    got = amplitude_w_complex_height(eps, width, h)
    sinc = _sinc_form(k, ksq, z / width, z, width)
    with mpmath.workdps(50):
        want = []
        for kk, q in zip(k, ksq):
            kap = mpmath.sqrt(mpmath.mpc(q))
            kd = kap * width
            want.append(complex(
                2j * kk * kap * mpmath.exp(-1j * kk * width)
                / ((kk * kk + kap * kap) * mpmath.sin(kd)
                   + 2j * kk * kap * mpmath.cos(kd))))
    want = np.array(want)
    err_got = np.abs(got - want) / np.abs(want)
    err_sinc = np.abs(sinc - want) / np.abs(want)
    assert np.any(got != sinc)  # the summed path form did run
    for lo, hi in ((0.0, 1.0), (1.0, 10.0), (10.0, np.inf)):
        band = (np.abs(z) >= lo) & (np.abs(z) < hi)
        assert err_got[band].max() <= 2.0 * err_sinc[band].max(), (lo, hi)


def test_mixed_heights_match_single_calls():
    # real heights (above, at, below the top and deep) beside off-axis ones
    # (|kappa width| below and above 1, and Im height > 0): each entry of a
    # batch has the bytes of its own single-entry call
    width = 5.0
    heights = np.array([1.0, 1.3, 0.2, 5.0, 1e4, 1.3 - 1e-9j, 1.3 - 0.2j,
                        0.7 - 3j, 1e4 - 1j, 1.3 + 0.2j, 0.2 + 1e-3j])
    eps = np.array([[0.5], [1.3], [2.0]])
    batch = amplitude_w_complex_height(eps, width, heights)
    single = [[amplitude_w_complex_height(e, width, [x])[0]
               for x in heights] for e in eps[:, 0]]
    assert batch.tobytes() == np.array(single).tobytes()
    assert amplitude_w_complex_height(1.3, width, heights).tobytes() == (
        np.array(single[1]).tobytes())


def test_scalar_calls_match_batch_entries():
    # a 0-d call runs as one entry of an array and so keeps a batch entry's
    # bytes; numpy's scalar arithmetic rounded otherwise on about a tenth of
    # these sub-barrier energies at width 300 and most of these heights
    rng = np.random.default_rng(5)
    eps = rng.uniform(0.01, 0.99, 1000)
    scalar = [amplitude_w(e, 300.0) for e in eps.tolist()]
    assert np.array(scalar).tobytes() == amplitude_w(eps, 300.0).tobytes()
    heights = 1.0 - 0.4 * (rng.uniform(-50.0, 400.0, 1000)
                           + 1j * rng.uniform(1e-3, 50.0, 1000))
    scalar = [amplitude_w_complex_height(0.5, 5.0, h) for h in heights.tolist()]
    assert np.array(scalar).tobytes() == (
        amplitude_w_complex_height(0.5, 5.0, heights).tobytes())
    assert isinstance(scalar[0], complex)


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(0.05, 6.0), width=st.floats(0.2, 40.0))
def test_amplitude_bounded_by_unit_flux(eps, width):
    assert abs(amplitude_w(eps, width)) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(1.05, 6.0), width=st.floats(0.2, 20.0))
def test_flux_conservation_above_barrier(eps, width):
    # |t|^2 + |r|^2 = 1 with r read off the same transfer matrix
    k, kappa = math.sqrt(eps), math.sqrt(eps - 1.0)
    rk, rki = kappa / k, k / kappa
    m_in = 0.5 * np.array([[1 + rk, 1 - rk], [1 - rk, 1 + rk]])
    m_out = 0.5 * np.array([[1 + rki, 1 - rki], [1 - rki, 1 + rki]])
    phase = np.diag([cmath.exp(-1j * kappa * width),
                     cmath.exp(1j * kappa * width)])
    m = m_in @ phase @ m_out
    t = 1.0 / m[0, 0]
    r = m[1, 0] / m[0, 0]
    assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-11)


# -- region propagators and their assembly -------------------------------

def _derivative_jump(g, x0, h=1e-6):
    """(d/dx g)(x0+, x0) - (d/dx g)(x0-, x0) via centered stencils."""
    right = (g(x0 + 2 * h) - g(x0)) / (2 * h)
    left = (g(x0) - g(x0 - 2 * h)) / (2 * h)
    return right - left


def test_propagator_jumps():
    eps = 1.7
    width = 5.0
    jump = _derivative_jump(lambda x: green_free(eps, x, 0.3), 0.3)
    assert jump == pytest.approx(-1.0, rel=1e-4)
    jump = _derivative_jump(lambda x: green_left(eps, x, -1.2), -1.2)
    assert jump == pytest.approx(-1.0, rel=1e-4)
    jump = _derivative_jump(
        lambda x: green_inside(eps, width, x, 2.1), 2.1)
    assert jump == pytest.approx(-1.0, rel=1e-4)
    jump = _derivative_jump(
        lambda x: green_right(eps, width, x, 7.9), 7.9)
    assert jump == pytest.approx(-1.0, rel=1e-4)


def test_propagators_vanish_at_walls():
    eps = 2.3
    assert green_left(eps, 0.0, -1.0) == 0.0
    assert abs(green_inside(eps, 5.0, 0.0, 2.0)) < 1e-15
    assert abs(green_inside(eps, 5.0, 5.0, 2.0)) < 1e-15
    assert green_right(eps, 5.0, 5.0, 6.0) == 0.0


def test_inside_propagator_pole():
    width = 5.0
    eps_pole = 1.0 + (2.0 * math.pi / width) ** 2
    with pytest.raises(PoleError):
        green_inside(eps_pole, width, 1.0, 2.0)


def test_assembled_green_reproduces_amplitude():
    for eps in (0.6, 1.3, 2.4):
        w_ref = amplitude_w(eps, 5.0)
        w_green = transmission_from_green(eps, 5.0)
        assert w_green == pytest.approx(w_ref, rel=1e-11)


def test_assembled_green_detector_independence():
    eps, width = 1.9, 5.0
    ref = transmission_from_green(eps, width, -0.7, width + 0.9)
    other = transmission_from_green(eps, width, -8.1, width + 6.3)
    assert other == pytest.approx(ref, rel=1e-11)


def test_green_domain_checks():
    with pytest.raises(DomainError):
        green_left(2.0, 0.5, -1.0)
    with pytest.raises(DomainError):
        green_right(2.0, 5.0, 4.0, 6.0)
    with pytest.raises(DomainError):
        green_inside(2.0, 5.0, -0.1, 2.0)
    with pytest.raises(DomainError):
        assemble_transmission_green(2.0, 5.0, 1.0, 7.0)
    with pytest.raises(DomainError):
        assemble_transmission_green(2.0, 5.0, -1.0, 3.0)

"""Acceptance suite: ten numbered end-to-end criteria.

Each test prints one summary line (visible with -rA or on failure).
Criteria 6 and 7 check the two resonance claims: damping suppresses
transmission at resonance just above the barrier, and the clean mean
deviation |<tau>| - tau_cl peaks once per resonance.  Their bounds come
from kappa*d_hat alone: the anti-resonance kappa*d_hat = (n - 1/2) pi
below each resonance kappa*d_hat = n pi.  Below the first anti-resonance
weak damping can enhance transmission, and each deviation peak sits
below its resonance; the package README and the characterization tests
in test_damped.py and test_traversal.py pin those measured shapes.
"""

import math
import time

import numpy as np
import pytest

from qbarrier.barrier import amplitude_w, transfer_matrix_w, transmission_prob
from qbarrier.damped import amplitude_w_D
from qbarrier.kernel import DampingKernel
from qbarrier.sweep import format_csv, run_transmission
from qbarrier.traversal import (SpectralGrid, cumulative_amplitude,
                                distribution_F, distribution_F_D,
                                mean_traversal_closed,
                                mean_traversal_derivative)
from qbarrier.units import classical_crossing_time, resonance_energies

from reference import (MASS, peak_time, propagator_coefficients,
                       reflection_series_w)

WIDTH = 5.0
CUTOFF = 100.0


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {tag}{' ' + detail if detail else ''}")


def test_criterion_01_amplitude_route_triangle():
    t_start = time.monotonic()
    eps_grid = np.linspace(0.1, 5.0, 200)
    worst_tm = 0.0
    series_ok = True
    for width in (0.5, 1.0, 2.0, 5.0, 10.0):
        closed = amplitude_w(eps_grid, width)
        for i, eps in enumerate(eps_grid):
            tm = transfer_matrix_w(float(eps), width)
            worst_tm = max(worst_tm, abs(closed[i] - tm) / abs(tm))
            if eps > 1.0:
                ser = reflection_series_w(float(eps), width, tol=1e-13)
                slack = ser.tail_bound + 1e-12
                if (abs(ser.value - closed[i]) > slack
                        or abs(ser.value - tm) > slack):
                    series_ok = False
    elapsed = time.monotonic() - t_start
    ok = worst_tm <= 1e-12 and series_ok and elapsed < 10.0
    _report(1, ok, f"(worst rel {worst_tm:.2e}, {elapsed:.1f}s)")
    assert worst_tm <= 1e-12
    assert series_ok
    assert elapsed < 10.0


def test_criterion_02_resonance_unitarity():
    eps_n = resonance_energies(WIDTH, 4)
    worst = float(np.max(np.abs(transmission_prob(eps_n, WIDTH) - 1.0)))
    # the first three match the published resonance list to two decimals
    listed = np.round(eps_n[:3], 2)
    ok = worst <= 1e-10 and np.array_equal(listed, [1.39, 2.58, 4.55])
    _report(2, ok, f"(worst |T-1| {worst:.2e})")
    assert worst <= 1e-10
    assert np.array_equal(listed, [1.39, 2.58, 4.55])


def test_criterion_03_mean_time_dual_route():
    rng = np.random.default_rng(314159)
    checked = 0
    worst = 0.0
    while checked < 50:
        eps = float(rng.uniform(0.12, 5.0))
        if abs(eps - 1.0) < 0.02:
            continue
        closed = mean_traversal_closed(eps, WIDTH)
        deriv = mean_traversal_derivative(eps, WIDTH)
        worst = max(worst, abs(closed - deriv) / abs(closed))
        checked += 1

    eps_n = resonance_energies(WIDTH, 4)
    worst_imag = max(abs(mean_traversal_closed(float(e), WIDTH).imag)
                     for e in eps_n)
    res_ok = all(
        mean_traversal_closed(float(e), WIDTH).real
        >= classical_crossing_time(float(e)) - 1e-12 for e in eps_n)
    anti = 1.0 + ((np.arange(1, 4) + 0.5) * math.pi / WIDTH) ** 2
    anti_ok = all(
        mean_traversal_closed(float(e), WIDTH).real
        <= classical_crossing_time(float(e)) + 1e-12 for e in anti)

    ok = worst <= 1e-6 and worst_imag < 1e-10 and res_ok and anti_ok
    _report(3, ok, f"(worst rel {worst:.2e}, worst Im {worst_imag:.2e})")
    assert worst <= 1e-6
    assert worst_imag < 1e-10
    assert res_ok and anti_ok


def test_criterion_04_kernel_correctness(spectrum_oracle):
    kernels = [DampingKernel(1e-3, CUTOFF), DampingKernel(5e-3, CUTOFF)]
    mono_ok = True
    ident_ok = True
    rng = np.random.default_rng(42)
    for kernel in kernels:
        assert kernel.f(0.0) == 1.0
        # monotone decay holds beyond the documented microscopic rise
        # of order (gamma/sigma)^2 at the origin (peak before t = 0.25)
        assert peak_time(kernel) < 0.25
        t = np.linspace(0.25, 50.0, 1000)
        if not np.all(np.diff(kernel.f(t)) < 0.0):
            mono_ok = False
        ts = rng.uniform(0.05, 30.0, size=20)
        coeff = propagator_coefficients(kernel, ts)
        if not np.allclose((2.0 * ts / MASS) * coeff.growing,
                           kernel.f(ts), rtol=1e-12, atol=0.0):
            ident_ok = False

    worst_spec = 0.0
    omegas = np.array([-50.0, -31.7, -11.0, -2.5, -0.5, 0.0,
                       0.5, 2.5, 11.0, 31.7, 50.0])
    for kernel in kernels:
        series_vals = kernel.sqrt_f_spectrum(omegas)
        for om, sv in zip(omegas, series_vals):
            direct = spectrum_oracle(kernel, om, 1e-11)
            worst_spec = max(worst_spec, abs(sv - direct) / abs(direct))

    ok = mono_ok and ident_ok and worst_spec <= 1e-8
    _report(4, ok, f"(worst spectrum rel {worst_spec:.2e})")
    assert mono_ok
    assert ident_ok
    assert worst_spec <= 1e-8


def test_criterion_05_dissipative_route_equivalence():
    kernel = DampingKernel(5e-3, CUTOFF)
    grid = SpectralGrid(window=160.0, period=96.0)
    worst = 0.0
    for eps in (1.2, 1.3, 1.39, 2.0):
        spectral = amplitude_w_D(eps, WIDTH, kernel).value
        dist = distribution_F_D(eps, WIDTH, kernel, grid=grid)
        factorized = dist.amplitude * dist.suppression
        worst = max(worst, abs(spectral - factorized) / abs(spectral))
    ok = worst <= 1e-5
    _report(5, ok, f"(worst rel {worst:.2e})")
    assert worst <= 1e-5


def test_criterion_06_transmission_morphology():
    eps = np.linspace(0.05, 5.0, 256)
    result = run_transmission(WIDTH, eps, [1e-3, 5e-3], CUTOFF)
    assert result.failures == 0
    clean = result.table[:, result.columns.index("g0")]
    mid = result.table[:, result.columns.index("g0.001")]
    strong = result.table[:, result.columns.index("g0.005")]

    # The claim is suppression at resonance just above the barrier, so
    # clauses 1 and 3 are asserted from the first anti-resonance
    # kappa*d = pi/2 up.  Below it weak damping can enhance transmission
    # (README); those points are reported, not asserted.
    e_half = 1.0 + (0.5 * math.pi / WIDTH) ** 2
    above = eps > e_half
    eps_n = resonance_energies(WIDTH, 3)

    problems = []
    below_notes = []

    # clause 1: suppression above e_half
    for label, curve in (("g0.001", mid), ("g0.005", strong)):
        over = curve > clean
        for mask, out in ((above, problems), (~above, below_notes)):
            idx = np.flatnonzero(over & mask)
            if idx.size:
                worst = float(np.max(curve[idx] / clean[idx]))
                out.append(
                    f"{label}: {idx.size} of {int(mask.sum())} points exceed "
                    f"the clean curve (eps in [{eps[idx[0]]:.3f}, "
                    f"{eps[idx[-1]]:.3f}], ratio up to {worst:.3f})")

    # clause 2: the deepest relative suppression sits on the first
    # resonance peak: at the exact resonances the ordering holds and the
    # suppression falls with n, and the grid maximum lies in
    # (e_half, eps_1] and is no smaller than the value at eps_1 itself.
    # It lands below eps_1 for the same reason as the criterion-7 peaks.
    at_res = {}
    for gamma, label in ((1e-3, "g0.001"), (5e-3, "g0.005")):
        kernel = DampingKernel(gamma, CUTOFF)
        at_res[label] = np.array([
            1.0 - abs(amplitude_w_D(float(e), WIDTH, kernel).value) ** 2
            / transmission_prob(float(e), WIDTH) for e in eps_n])
    pos = eps > 1.0
    ratio = (clean[pos] - strong[pos]) / clean[pos]
    at = float(eps[pos][np.argmax(ratio)])
    if not (e_half < at <= eps_n[0]
            and float(np.max(ratio)) >= at_res["g0.005"][0]):
        problems.append(
            f"max suppression ratio {float(np.max(ratio)):.4f} sits at "
            f"eps = {at:.4f}; expected in ({e_half:.4f}, {eps_n[0]:.4f}] "
            f"and at least the {at_res['g0.005'][0]:.4f} at eps_1")
    if not bool(np.all((0.0 < at_res["g0.001"])
                       & (at_res["g0.001"] < at_res["g0.005"]))):
        problems.append(
            "ordering clean > g0.001 > g0.005 broken at the resonances")
    for label, supp in at_res.items():
        if not bool(np.all(np.diff(supp) < 0.0)):
            problems.append(
                f"{label} suppression at the resonances not falling with n: "
                + ", ".join(f"{s:.3g}" for s in supp))

    # clause 3: strict pointwise ordering clean > mid > strong above e_half
    bad = ~((clean > mid) & (mid > strong))
    for mask, out in ((above, problems), (~above, below_notes)):
        idx = np.flatnonzero(bad & mask)
        if idx.size:
            out.append(
                f"ordering clean > g0.001 > g0.005 broken at {idx.size} of "
                f"{int(mask.sum())} points (eps in [{eps[idx[0]]:.3f}, "
                f"{eps[idx[-1]]:.3f}])")

    detail = (
        f"(max suppression {float(np.max(ratio)):.4f} at eps = {at:.4f}; at "
        f"eps_1..3 g0.001 "
        + "/".join(f"{s:.3g}" for s in at_res["g0.001"])
        + ", g0.005 " + "/".join(f"{s:.3g}" for s in at_res["g0.005"])
        + f"; not asserted below eps_1/2 = {e_half:.4f}: "
        + ("; ".join(below_notes) or "none") + ")")
    _report(6, not problems, "; ".join(problems + [detail]))
    assert not problems, (
        "damping does not suppress transmission at resonance above the "
        "barrier as claimed: " + "; ".join(problems)
        + ".  Only eps > eps_1/2 = 1 + (pi / 2 d_hat)^2 and the exact "
        "resonances are asserted; see the README section on what criteria "
        "6 and 7 assert.")


def test_criterion_07_mean_deviation_peaks():
    eps = np.linspace(1.01, 5.0, 257)[1:]
    dev = np.array([
        abs(mean_traversal_closed(float(e), WIDTH))
        - classical_crossing_time(float(e)) for e in eps])
    interior = np.flatnonzero(
        (dev[1:-1] > dev[:-2]) & (dev[1:-1] > dev[2:])) + 1
    peaks = eps[interior]
    heights = dev[interior]

    problems = []

    # clause 1: one local maximum per resonance, in the band
    # (eps_{n-1/2}, eps_n] from the preceding anti-resonance
    # kappa*d = (n - 1/2) pi up to the resonance kappa*d = n pi, and none
    # outside the bands.  The maximum sits below eps_n because the
    # subtracted tau_cl = 1/sqrt(eps - 1) falls steeply (README).
    eps_n = resonance_energies(WIDTH, 3)
    eps_half = 1.0 + ((np.arange(1, 4) - 0.5) * math.pi / WIDTH) ** 2
    in_band = np.zeros(peaks.size, dtype=bool)
    for lo, hi in zip(eps_half, eps_n):
        hit = (peaks > lo) & (peaks <= hi)
        in_band |= hit
        if np.count_nonzero(hit) != 1:
            problems.append(
                f"{np.count_nonzero(hit)} local maxima in the band "
                f"({lo:.4f}, {hi:.4f}] below the resonance, expected one")
    if not bool(np.all(in_band)):
        problems.append(
            "local maxima outside the resonance bands at eps = "
            + ", ".join(f"{p:.4f}" for p in peaks[~in_band]))

    # clause 2: successive peak heights decrease
    if peaks.size >= 2 and not bool(np.all(np.diff(heights[:3]) < 0.0)):
        problems.append(
            f"peak heights not decreasing: {heights[:3].tolist()}")

    # clause 3: deviation at the first resonance
    e1 = float(eps_n[0])
    first_dev = abs(mean_traversal_closed(e1, WIDTH)) \
        - classical_crossing_time(e1)
    if abs(first_dev - 0.33) > 0.05 * 0.33:
        problems.append(
            f"deviation at the first resonance is {first_dev:.4f} tau*, "
            f"outside 0.33 +- 5%")

    detail = (
        "(peaks at " + ", ".join(f"{p:.4f}" for p in peaks)
        + "; resonances at " + ", ".join(f"{e:.4f}" for e in eps_n)
        + f"; first-resonance deviation {first_dev:.4f} tau*)")
    _report(7, not problems, "; ".join(problems + [detail]))
    assert not problems, (
        "mean-deviation morphology differs from the claimed behavior: "
        + "; ".join(problems)
        + ".  Each peak must lie between the preceding anti-resonance and "
        "its resonance, derived from kappa*d_hat alone; see the README "
        "section on what criteria 6 and 7 assert.")


def test_criterion_08_cumulative_morphology():
    taus = np.linspace(0.0, 50.0, 501)
    kernel_d = DampingKernel(5e-3, CUTOFF)
    clean = cumulative_amplitude(1.3, WIDTH, DampingKernel(0.0, CUTOFF),
                                 taus)
    damped = cumulative_amplitude(1.3, WIDTH, kernel_d, taus)
    mag_c = np.abs(clean.values)
    mag_d = np.abs(damped.values)

    assert mag_c[0] == 0.0 and mag_d[0] == 0.0
    end_ok = abs(mag_c[-1] - 1.0) < 1e-2 and abs(mag_d[-1] - 1.0) < 1e-2

    cross_c = taus[np.argmax(mag_c >= 0.95)]
    cross_d = taus[np.argmax(mag_d >= 0.95)]
    crossing_ok = cross_d < cross_c

    mean_clean = distribution_F(1.3, WIDTH).moment(1)
    mean_damped = distribution_F_D(1.3, WIDTH, kernel_d).moment(1)
    mean_ok = mean_damped.real < mean_clean.real

    ok = end_ok and crossing_ok and mean_ok
    _report(8, ok, f"(0.95 crossings: damped {cross_d:.2f}, "
                   f"clean {cross_c:.2f} tau*)")
    assert end_ok
    assert crossing_ok
    assert mean_ok


def test_criterion_09_moment_fidelity():
    closed = mean_traversal_closed(1.3, WIDTH)
    drifts = []
    for grid in (SpectralGrid(), SpectralGrid(window=120.0)):
        dist = distribution_F(1.3, WIDTH, grid=grid)
        assert abs(dist.total() - 1.0) <= 1e-3
        moment = dist.moment(1)
        assert abs(moment - closed) <= 1e-3 * abs(closed)
        drifts.append(moment)
    drift = abs(drifts[1] - drifts[0]) / abs(closed)
    ok = drift < 2e-3
    _report(9, ok, f"(window-doubling drift {drift:.2e})")
    assert drift < 2e-3


def test_criterion_10_cli_determinism(tmp_path):
    from qbarrier.cli import main
    cases = [
        ["transmission", "--epsilon-range", "1.2:1.45:4", "--gamma-star",
         "0.005", "--no-timestamp"],
        ["resonances", "--count", "4", "--no-timestamp", "--format",
         "json"],
        ["traversal", "--tau-range", "0:6:25", "--no-timestamp"],
    ]
    identical = True
    for idx, argv in enumerate(cases):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            identical = False
    _report(10, identical)
    assert identical

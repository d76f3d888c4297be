"""Sweep runners, serialization, and the command line contract:
schemas, exit codes, byte-for-byte determinism, and a lean import path."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier import quadrature, sweep
from qbarrier.barrier import transmission_prob
from qbarrier.cli import main
from qbarrier.errors import DomainError, NonConvergenceError, WindowError
from qbarrier.sweep import (format_csv, format_json, gamma_label,
                            run_cumulative, run_distribution,
                            run_mean_deviation, run_resonances,
                            run_transmission)


def test_gamma_label_format():
    assert gamma_label(0.0) == "g0"
    assert gamma_label(5e-3) == "g0.005"
    assert gamma_label(1e-3) == "g0.001"
    assert gamma_label(1e-4) == "g0.0001"


def test_run_transmission_baseline_and_columns():
    eps = np.linspace(1.2, 1.4, 3)
    res = run_transmission(5.0, eps, [5e-3], 100.0)
    # clean baseline is inserted and sorted first
    assert res.columns == ["g0", "g0.005"]
    np.testing.assert_allclose(res.table[:, 0],
                               transmission_prob(eps, 5.0), rtol=1e-14)
    assert res.failures == 0
    assert all(e >= 0.0 for e in res.errors["g0.005"])


def test_run_mean_deviation_positive_at_resonance():
    eps = np.array([1.39, 1.3947841760435743, 1.40])
    res = run_mean_deviation(5.0, eps)
    assert res.columns == ["g0"]
    assert res.table[1, 0] > 0.30
    assert res.failures == 0


def test_run_resonances_table():
    res = run_resonances(5.0, 3)
    assert res.columns == ["kd_over_pi", "mean_tau_star", "tau_cl_star",
                           "transmission"]
    np.testing.assert_allclose(res.table[:, 0], [1.0, 2.0, 3.0], rtol=1e-12)
    np.testing.assert_allclose(res.table[:, 3], 1.0, atol=1e-10)
    # delay above the classical time shrinks with the order
    excess = res.table[:, 1] - res.table[:, 2]
    assert np.all(np.diff(excess) < 0.0)


def test_negative_zero_rate_is_the_clean_baseline(capsys):
    # -0 compares equal to the baseline and must not get a g-0 column
    res = run_transmission(5.0, [1.3], [-0.0, 5e-3], 100.0)
    assert res.columns == ["g0", "g0.005"]
    assert math.copysign(1.0, res.params["gammas"][0]) == 1.0
    for argv, same in (
            (["transmission", "--epsilon-range", "1:2:3"], []),
            (["traversal", "--tau-range", "0:8:20"], ["--gamma-star", "0"])):
        assert main(argv + same + ["--no-timestamp"]) == 0
        clean = capsys.readouterr()
        assert main(argv + ["--gamma-star", "-0", "--no-timestamp"]) == 0
        assert capsys.readouterr() == clean


def _transmission_past_its_budget(monkeypatch):
    # too few quadrature panels for tol 1e-10 at epsilon 2: see
    # test_damped's nonconvergence test
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 62)
    return run_transmission(5.0, [1.5, 2.0], [5e-3], 100.0, tol=1e-10)


# (failing run, failed cells, first exception per failed column)
_FAILING_RUNS = {
    "transmission": (
        _transmission_past_its_budget, 1,
        {"g0.005": (NonConvergenceError, "epsilon 2.0")}),
    "mean_deviation": (
        lambda _: run_mean_deviation(5.0, [1.0, 2.0, -1.0]), 2,
        {"g0": (DomainError, "indeterminate at epsilon = 1")}),
    "cumulative": (
        lambda _: run_cumulative(5.0, 1.3, [0.0, 1e307], [5e-3], 100.0), 4,
        {"g0": (DomainError, "too large"),
         "g0.005": (DomainError, "too large")}),
    "distribution": (
        lambda _: run_distribution(5.0, 1.3, 0.0, 8.0, 20, [5.0], 1000.0), 21,
        {"g5": (WindowError, "reaches the spectral window")}),
    "resonances": (
        lambda _: run_resonances(1e5, 2), 2,
        {"mean_tau_star": (DomainError, "indeterminate at epsilon = 1")}),
}


@pytest.mark.parametrize("name", list(_FAILING_RUNS))
def test_runner_writes_package_errors_as_nan_cells(monkeypatch, name):
    run, failed, first = _FAILING_RUNS[name]
    res = run(monkeypatch)
    nan = np.isnan(res.table)
    assert res.failures == failed == np.count_nonzero(nan)
    # one reason per failed column: the first exception raised in it
    failed_columns = [c for j, c in enumerate(res.columns) if nan[:, j].any()]
    assert list(res.reasons) == failed_columns == list(first)
    for label, (kind, text) in first.items():
        assert type(res.reasons[label]) is kind
        assert text in str(res.reasons[label])
    # an error estimate is nan exactly where its value is
    for label, errs in res.errors.items():
        column = res.columns.index(label)
        assert np.array_equal(np.isnan(errs), nan[:, column]), label


_ENGINE_CALL = {
    "transmission": (lambda: run_transmission(5.0, [1.3], [5e-3], 100.0),
                     "amplitude_w_D"),
    "mean_deviation": (lambda: run_mean_deviation(5.0, [2.0]),
                       "mean_traversal_closed"),
    "cumulative": (lambda: run_cumulative(5.0, 1.3, [1.0], [], 100.0),
                   "cumulative_amplitude"),
    "distribution": (
        lambda: run_distribution(5.0, 1.3, 0.0, 8.0, 20, [5e-3], 100.0),
        "distribution_F_D"),
    "resonances": (lambda: run_resonances(5.0, 2), "mean_traversal_closed"),
}


@pytest.mark.parametrize("name", list(_ENGINE_CALL))
def test_runner_propagates_errors_outside_the_package(monkeypatch, name):
    # only a package error is a failed cell; anything else is a bug and
    # must not be hidden as nan
    run, engine = _ENGINE_CALL[name]

    def broken(*args, **kwargs):
        raise ZeroDivisionError("not a package error")

    monkeypatch.setattr(sweep, engine, broken)
    with pytest.raises(ZeroDivisionError, match="not a package error"):
        run()


def test_format_csv_roundtrip_precision():
    eps = np.linspace(0.8, 1.2, 3)
    res = run_transmission(5.0, eps, [], 100.0)
    text = format_csv(res, timestamp=False)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "epsilon,g0"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        # 17 significant digits reproduce the doubles exactly
        assert float(cells[0]) == eps[i]
        assert float(cells[1]) == res.table[i, 0]


def test_format_csv_timestamp_toggle():
    res = run_resonances(5.0, 2)
    with_ts = format_csv(res, timestamp=True)
    without = format_csv(res, timestamp=False)
    assert "# generated=" in with_ts
    assert "# generated=" not in without


def test_format_json_schema():
    eps = np.linspace(1.2, 1.3, 2)
    res = run_transmission(5.0, eps, [1e-3], 100.0)
    doc = json.loads(format_json(res, timestamp=False))
    assert set(doc) == {"params", "columns", "rows", "error_estimates",
                        "version"}
    assert doc["columns"] == ["epsilon", "g0", "g0.001"]
    assert len(doc["rows"]) == 2
    assert len(doc["rows"][0]) == 3
    assert "g0.001" in doc["error_estimates"]
    assert doc["params"]["quantity"] == "transmission"


# -- command line ---------------------------------------------------------

def test_cli_resonances_json(capsys):
    code = main(["resonances", "--count", "3", "--format", "json",
                 "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert row[4] == pytest.approx(1.0, abs=1e-10)


def test_cli_transmission_deterministic(tmp_path):
    args = ["transmission", "--epsilon-range", "1.2:1.4:3",
            "--gamma-star", "0.005", "--no-timestamp"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_traversal_runs(capsys):
    code = main(["traversal", "--epsilon", "1.3",
                 "--tau-range", "0:8:40", "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    header = [l for l in out.splitlines() if not l.startswith("#")][0]
    assert header == "tau_star,g0,g0.005"


def test_cli_figure4_preset(capsys):
    code = main(["figure4", "--no-timestamp"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    assert lines[0] == "epsilon,g0"
    assert len(lines) == 1 + 256


def test_cli_figure4_fails_the_cells_its_derivative_route_cannot_resolve(
        capsys):
    # at width 1e12 the two lowest energies need a height step below 2**-51;
    # they printed a deviation and an error of 1.9 with exit 0
    assert main(["figure4", "--d-over-lambda0", "1e12",
                 "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    rows = [l.split(",") for l in captured.out.splitlines()
            if not l.startswith(("#", "epsilon"))]
    assert [i for i, row in enumerate(rows) if row[1] == "nan"] == [0, 1]
    assert captured.err.splitlines() == [
        "qbarrier: 2 cell(s) failed and are written as nan",
        "qbarrier: g0: DomainError: the derivative route needs a height step "
        "below 2**-51 at epsilon 1.0255859375, width 1000000000000.0"]


@pytest.mark.parametrize("width", ["1e-308", "1e-310", "1e-320"])
def test_cli_figure4_refuses_subnormal_widths(capsys, width):
    # at 1e-308 every cell printed nan with exit 0 and no message; from
    # 5e-309 down the closed mean overflowed with numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["figure4", "--d-over-lambda0", width,
                     "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    rows = [l.split(",") for l in captured.out.splitlines()
            if not l.startswith(("#", "epsilon"))]
    assert len(rows) == 256 and all(row[1] == "nan" for row in rows)
    assert captured.err.splitlines() == [
        "qbarrier: 256 cell(s) failed and are written as nan",
        "qbarrier: g0: DomainError: width must be positive and normal, "
        f"got {float(width)!r}"]


def test_cli_cumulative_runs(capsys):
    code = main(["cumulative", "--tau-range", "0:3:4", "--gamma-star",
                 "0.005", "--no-timestamp"])
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert rows[0] == "tau_star,g0,g0.005"
    first = rows[1].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0


def test_cli_rejects_bad_range(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transmission", "--epsilon-range", "5:1:10"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cli_rejects_bad_tol(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transmission", "--epsilon-range", "1:2:5", "--tol", "0.5"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cli_reports_failed_cells_on_stderr(capsys):
    # weak damping needs a cumulative grid beyond reason, so the damped
    # column fails as a whole; the table shows it only as nan and stderr
    # must say so
    code = main(["cumulative", "--gamma-star", "1e-5", "--omega-star", "10",
                 "--tau-range", "0:3:4", "--no-timestamp"])
    assert code == 3
    captured = capsys.readouterr()
    assert "# failures=4" in captured.out
    assert captured.err == (
        "qbarrier: 4 cell(s) failed and are written as nan\n"
        "qbarrier: g1e-05: WindowError: cumulative grid of 1.74e+08 steps "
        "per side is beyond reason\n")


def test_cli_refuses_a_cumulative_curve_its_residual_clamp_leaves_wrong(
        capsys):
    # at gamma = 0.5 the height sweep's residual tail bound is 29 |H0|; the
    # curve it printed and exited 0 on was 78% off at H0
    code = main(["cumulative", "--gamma-star", "0.5", "--tau-range", "0:3:4",
                 "--no-timestamp"])
    assert code == 3
    captured = capsys.readouterr()
    assert "# failures=4" in captured.out
    assert captured.err == (
        "qbarrier: 4 cell(s) failed and are written as nan\n"
        "qbarrier: g0.5: NonConvergenceError: residual tail bound 9.788e-04 "
        "at half-width 200 exceeds 1e-5 of |H0| = 3.392e-05\n")


def test_cli_reports_an_unwritable_out_path_in_one_line(tmp_path):
    # the write fails in a fresh process with one line and exit 2, not a
    # FileNotFoundError traceback and exit 1
    out = tmp_path / "missing" / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(qbarrier.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qbarrier", "resonances",
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        f"qbarrier: cannot write {out}: No such file or directory\n")
    assert not out.parent.exists()


def test_cli_rejects_nonpositive_width_and_energy(capsys):
    for argv in (["figure4", "--d-over-lambda0", "0"],
                 ["cumulative", "--epsilon", "-2"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--no-timestamp"])
        assert info.value.code == 2
    capsys.readouterr()


def _rejected_option(capsys, argv) -> None:
    # usage errors exit 2 and name the last option given, the one rejected
    with pytest.raises(SystemExit) as info:
        main(argv + ["--no-timestamp"])
    assert info.value.code == 2
    option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    assert f"argument {option}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["resonances", "--count", "0"],
    ["figure5", "--omega-star", "0"],
    ["traversal", "--omega-star", "-1"],
    ["resonances", "--count", "1.5"],
    ["transmission", "--epsilon-range", "1:2:3", "--tol", "nan"],
    ["figure4", "--d-over-lambda0", "inf"],
    ["figure4", "--d-over-lambda0", "abc"]])
def test_cli_rejects_malformed_count_and_cutoff(capsys, argv):
    # a request no computation can honour is bad usage, not a numerical
    # failure; text that is no number at all is rejected the same way
    _rejected_option(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["transmission", "--epsilon-range", "0:2:4"],
    ["transmission", "--epsilon-range=-1:2:4"],
    ["transmission", "--epsilon-range", "0.5:inf:3"],
    ["cumulative", "--tau-range", "0:inf:3"],
    ["cumulative", "--tau-range=-5:3:4"],
    ["traversal", "--tau-range=-5:3:4"],
    ["cumulative", "--tau-range", "-5:3:4"],
    ["transmission", "--epsilon-range", "-1:2:4"],
    ["transmission", "--epsilon-range", "1:2"],
    ["transmission", "--epsilon-range", "1:2:x"],
    ["transmission", "--epsilon-range", "nan:2:4"],
    ["transmission", "--epsilon-range", "1:2:1"]])
def test_cli_rejects_malformed_range(capsys, argv):
    # energies must be positive, times nonnegative, both ends finite, and
    # a range is three fields LO:HI:N with at least two points
    _rejected_option(capsys, argv)


@pytest.mark.parametrize("command", [
    [], ["figure3"], ["figure4"], ["figure5"], ["transmission"],
    ["traversal"], ["cumulative"], ["resonances"]],
    ids=lambda command: command[0] if command else "top")
def test_cli_help_exits_cleanly(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qbarrier")


_NO_SOLVER = ["figure4", "figure5", "traversal", "cumulative", "resonances"]


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{option[0][2:]}-{command}")
    for option, commands in (
        (["--tol", "1e-8"], _NO_SOLVER),
        (["--threads", "2"], ["figure3", "transmission"] + _NO_SOLVER),
        (["--epsilon-range", "1:2:5"], ["figure3"]),
        (["--epsilon", "2"], ["figure5"]),
        (["--tau-range", "0:3:4"], ["figure5"]))
    for command in commands])
def test_cli_rejects_solver_options_it_does_not_read(capsys, command, option):
    # only the transmission sweeps call the pointwise solver, and every
    # sweep runs serially, so no subcommand takes a thread count; the
    # presets fix their grids as defaults and take no option to move them
    required = (["--epsilon-range", "1:2:5"] if command == "transmission"
                else [])
    with pytest.raises(SystemExit) as info:
        main([command, *required, *option, "--no-timestamp"])
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in \
        capsys.readouterr().err


def test_cli_import_path_is_lean(fresh_runs):
    # no run-time path loads scipy, and every sweep, C_D included, runs on
    # one thread, so nothing imports a thread pool.  The fresh interpreter
    # shows what each import pulls in
    assert fresh_runs["heavy"]["import qbarrier"] == []
    assert fresh_runs["heavy"]["import qbarrier.cli"] == []


def test_cli_figure5_loads_no_scipy(fresh_runs):
    # figure5 is the damped C_D curve: the height sweep with its FFT and
    # the sine integral, both numpy-only, and the Filon sum on one thread
    assert fresh_runs["codes"]["figure5"] == 0
    assert fresh_runs["heavy"]["figure5"] == []


def test_cli_runs_without_the_reference_module(fresh_runs):
    # the cross-check routes live in qbarrier.reference, which only the
    # tests import; the fresh interpreter runs every subcommand (figure3's
    # damped cells run as transmission's) and the three engine calls, and
    # neither the reference module nor scipy or a thread pool loads
    codes = fresh_runs["codes"]
    assert codes == dict.fromkeys(
        ["figure3", "figure4", "figure5", "transmission", "traversal",
         "cumulative", "resonances"], 0)
    assert all(fresh_runs["heavy"][command] == [] for command in codes)
    assert fresh_runs["reference"] is False
    assert fresh_runs["public_from_reference"] == []


@pytest.mark.parametrize("argv", [
    ["cumulative", "--gamma-star", "inf"],
    ["transmission", "--epsilon-range", "1.2:1.3:2", "--gamma-star", "1e308"],
    ["traversal", "--gamma-star", "inf"],
    ["transmission", "--epsilon-range", "1.2:1.3:2", "--gamma-star", "1e58"],
    ["cumulative", "--gamma-star", "1e100", "--tau-range", "0:3:4"]],
    ids=["cumulative", "transmission", "traversal", "transmission-huge",
         "cumulative-huge"])
def test_cli_nonfinite_damping_fails_with_a_reason(capsys, argv):
    # gamma = inf, or a finite gamma whose sigma overflows or whose powers
    # of sigma would, is no kernel: the run exits 3 and says why, with no
    # traceback and no table of unexplained nan cells
    assert main(argv + ["--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qbarrier: ")
    assert "DampingKernel(gamma=" in err


def test_cli_time_whose_phase_overflows_fails_with_a_reason(capsys):
    # W tau overflows past tau ~ 4.4e305; each column fails with its reason
    # before any numpy arithmetic can warn or write an unexplained nan
    argv = ["cumulative", "--tau-range", "0:1e307:2", "--no-timestamp"]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "qbarrier: 4 cell(s) failed and are written as nan"
    assert lines[1:] == [
        f"qbarrier: {label}: DomainError: time 1e+307 is too large: its "
        "phases overflow" for label in ("g0", "g0.005")]


def test_cli_numerical_failure_exit_code(capsys):
    # a negative damping rate passes argument parsing and dies in the
    # runner, which is the numerical-failure path
    code = main(["transmission", "--epsilon-range", "1.2:1.3:2",
                 "--gamma-star", "-0.01"])
    assert code == 3
    err = capsys.readouterr().err
    assert "qbarrier" in err


def test_cli_traversal_fails_a_kernel_its_window_cannot_resolve(capsys):
    # gamma = 10 decays at 632/tau_star against the default window of 60;
    # the factorized distribution printed 128.2 at tau = 0 and 0 after
    code = main(["traversal", "--gamma-star", "10", "--tau-range", "0:3:4",
                 "--no-timestamp"])
    assert code == 3
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()
            if not line.startswith("#")]
    assert rows[0] == ["tau_star", "g0", "g10"]
    assert all(math.isnan(float(row[2])) for row in rows[1:])
    assert "\nqbarrier: g10: WindowError: " in captured.err


@pytest.mark.parametrize("width", ["1e-300", "1e300", "1e8"])
def test_cli_resonances_need_energies_above_the_barrier(capsys, width):
    # 1e-300 overflows every resonance energy to inf, 1e300 rounds it to
    # exactly 1, and 1e8 keeps only 0.9 of (pi / d_hat)^2 above 1, which
    # printed kd/pi = 0.9486 and |w|^2 = 1.4e-13 where both are 1: no
    # table, one reason, no numpy warning
    assert main(["resonances", "--d-over-lambda0", width,
                 "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("qbarrier: ")


@pytest.mark.parametrize("argv", [
    ["transmission", "--epsilon-range", "1.2:1.3:2", "--gamma-star", "5e-3",
     "--d-over-lambda0", "1e-200"],
    ["figure3", "--d-over-lambda0", "1e-300"]],
    ids=["transmission", "figure3"])
def test_cli_tiny_width_computes_the_damped_cells(capsys, argv):
    # the quarter-phase marks of the spectral route overflow a Python float
    # from a width of about 1e-154; the marks that would overflow all lie
    # past the window, so the damped cells are computed, next to a clean
    # column of exactly transparent barriers
    assert main(argv + ["--no-timestamp"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()
            if not line.startswith("#")]
    assert rows[0][:2] == ["epsilon", "g0"] and len(rows[0]) > 2
    assert all(float(row[1]) == pytest.approx(1.0, abs=1e-15)
               for row in rows[1:])
    assert all(0.0 < float(cell) <= 1.0 for row in rows[1:]
               for cell in row[2:])
    assert captured.err == ""


@pytest.mark.parametrize("width", ["1e-307", "1e-308", "1e-320"])
@pytest.mark.parametrize("argv", [
    ["transmission", "--epsilon-range", "0.5:1.3:3", "--gamma-star", "5e-3"],
    ["figure5"], ["cumulative"], ["traversal"]],
    ids=["transmission", "figure5", "cumulative", "traversal"])
def test_cli_width_whose_heights_overflow_fails_with_a_reason(
        capsys, argv, width):
    # the shifted heights 1 - (2 / width) omega overflowed into nan cells
    # and numpy warnings (errors under this suite) with no reason; now the
    # heights are checked before they are formed
    assert main(argv + ["--d-over-lambda0", width, "--no-timestamp"]) == 3
    lines = capsys.readouterr().err.splitlines()
    reason = f"width {float(width)!r} is too small: heights shifted by up to "
    if argv == ["traversal"]:
        # every column is built on the clean distribution, so the run fails
        assert len(lines) == 1 and lines[0].startswith("qbarrier: " + reason)
    else:
        assert lines[0].endswith("cell(s) failed and are written as nan")
        assert len(lines) > 1
        assert all(f": DomainError: {reason}" in line for line in lines[1:])


@pytest.mark.parametrize("golden, argv", [
    ("transmission_g5e-3.csv",
     ["transmission", "--epsilon-range", "0.5:3:9", "--gamma-star", "5e-3"]),
    ("transmission_g1e-5_omega10.csv",
     ["transmission", "--epsilon-range", "0.5:3:5", "--gamma-star", "1e-5",
      "--omega-star", "10"]),
    ("cumulative_g1e-3.csv",
     ["cumulative", "--tau-range", "0:5:11", "--gamma-star", "1e-3"]),
    ("figure3.csv", ["figure3"]),
    ("figure5.csv", ["figure5"])],
    ids=["transmission", "weak-damping", "cumulative", "figure3", "figure5"])
def test_cli_damped_output_matches_its_golden(capsys, golden, argv):
    # w_D cells rest on the spectral panel layout and C_D cells on the
    # height sweep and the angle-addition Filon sum; each golden is
    # `python -m qbarrier ARGV --no-timestamp` and pins them byte for byte
    assert main(argv + ["--no-timestamp"]) == 0
    expected = (Path(__file__).parent / "goldens" / golden).read_text()
    assert capsys.readouterr().out == expected


_BENCH_GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


@pytest.mark.parametrize("golden, argv", [
    ("resonances.csv", ["resonances"]),
    ("resonances.json", ["resonances", "--format", "json"]),
    ("figure4.csv", ["figure4"]),
    ("traversal.csv", ["traversal"])])
def test_cli_preset_output_matches_the_benchmark_golden(capsys, golden, argv):
    # the benchmark's cli workload compares these presets byte for byte;
    # the suite reads the same files in place so a drift fails here first
    assert main(argv + ["--no-timestamp"]) == 0
    assert capsys.readouterr().out == (_BENCH_GOLDENS / golden).read_text()


def test_cli_resonances_keep_the_columns_that_have_values(capsys):
    # at d_hat = 1e5, epsilon_n - 1 = (n pi / d_hat)^2 falls below the
    # closed mean's 1e-8 guard for n = 1, 2, 3; only those cells fail, the
    # table is still written
    assert main(["resonances", "--d-over-lambda0", "1e5",
                 "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()
            if not line.startswith("#")]
    assert rows[0] == ["epsilon", "kd_over_pi", "mean_tau_star",
                       "tau_cl_star", "transmission"]
    assert len(rows) == 5
    cells = [[float(cell) for cell in row] for row in rows[1:]]
    assert [math.isnan(row[2]) for row in cells] == [True, True, True, False]
    assert all(math.isfinite(row[j]) for row in cells for j in (0, 1, 3, 4))
    assert ("\nqbarrier: mean_tau_star: DomainError: closed mean is "
            "indeterminate") in captured.err


def test_cli_refuses_kernels_too_weak_for_a_ladder_in_one_line(capsys):
    # a decay gap of 5.9e-110 leaves the ladder's Vandermonde singular, and
    # one of exactly 0 divided by zero; both runs died with a traceback
    code = main(["transmission", "--epsilon-range", "0.5:3:2", "--gamma-star",
                 "1e-110", "--omega-star", "10", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3 and "# failures=2" in captured.out
    assert captured.err.splitlines() == [
        "qbarrier: 2 cell(s) failed and are written as nan",
        "qbarrier: g1e-110: DegenerateKernelError: no subtraction ladder "
        "for decay gap 5.886e-110: Singular matrix"]
    code = main(["cumulative", "--gamma-star", "1e-300", "--omega-star",
                 "1e-300", "--tau-range", "0:1:3", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "qbarrier: need finite gamma >= 0, cutoff > 0, sigma <= 1e50 and a "
        "positive decay gap if gamma > 0, got DampingKernel(gamma=1e-300, "
        "cutoff=1e-300)"]

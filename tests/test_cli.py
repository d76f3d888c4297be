"""Sweep runners, serialization, and the command line contract:
schemas, exit codes, byte-for-byte determinism, and a lean import path."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier.barrier import transmission_prob
from qbarrier.cli import main
from qbarrier.sweep import (format_csv, format_json, gamma_label,
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
    assert main(args + ["--out", str(b), "--threads", "3"]) == 0
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


def test_cli_rejects_bad_threads(capsys):
    for bad in ("0", "-2"):
        with pytest.raises(SystemExit) as info:
            main(["transmission", "--epsilon-range", "1:2:5",
                  "--threads", bad])
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


def test_cli_rejects_nonpositive_width_and_energy(capsys):
    for argv in (["figure4", "--d-over-lambda0", "0"],
                 ["cumulative", "--epsilon", "-2"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--no-timestamp"])
        assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["resonances", "--count", "0"],
    ["figure5", "--omega-star", "0"],
    ["traversal", "--omega-star", "-1"]])
def test_cli_rejects_malformed_count_and_cutoff(capsys, argv):
    # a request no computation can honour is bad usage, not a numerical
    # failure
    with pytest.raises(SystemExit) as info:
        main(argv + ["--no-timestamp"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["transmission", "--epsilon-range", "0:2:4"],
    ["transmission", "--epsilon-range=-1:2:4"],
    ["transmission", "--epsilon-range", "0.5:inf:3"],
    ["cumulative", "--tau-range", "0:inf:3"],
    ["cumulative", "--tau-range=-5:3:4"],
    ["traversal", "--tau-range=-5:3:4"],
    ["cumulative", "--tau-range", "-5:3:4"],
    ["transmission", "--epsilon-range", "-1:2:4"]])
def test_cli_rejects_malformed_range(capsys, argv):
    # energies must be positive, times nonnegative, both ends finite
    with pytest.raises(SystemExit) as info:
        main(argv + ["--no-timestamp"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["figure4", "figure5", "traversal",
                                     "cumulative", "resonances"])
@pytest.mark.parametrize("option", [["--tol", "1e-8"], ["--threads", "2"]],
                         ids=["tol", "threads"])
def test_cli_rejects_solver_options_it_does_not_read(capsys, command, option):
    # only the transmission sweeps call the pointwise solver
    with pytest.raises(SystemExit) as info:
        main([command, *option, "--no-timestamp"])
    assert info.value.code == 2
    capsys.readouterr()


def test_cli_import_path_is_lean():
    # scipy costs most of the import and only the cumulative curve calls
    # it; sweeps run serially, so no executor loads either.  A fresh
    # interpreter shows what each import pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(qbarrier.__file__).parents[1]))
    for module in ("qbarrier.cli", "qbarrier"):
        probe = (f"import {module}, sys; "
                 "print(sorted(m for m in sys.modules "
                 "if m in ('scipy', 'concurrent.futures') "
                 "or m.startswith('scipy.')))")
        # probe the same copy of the package this suite imported
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             env=env, capture_output=True, text=True).stdout
        assert out.strip() == "[]", module


def test_cli_numerical_failure_exit_code(capsys):
    # a negative damping rate passes argument parsing and dies in the
    # runner, which is the numerical-failure path
    code = main(["transmission", "--epsilon-range", "1.2:1.3:2",
                 "--gamma-star", "-0.01"])
    assert code == 3
    err = capsys.readouterr().err
    assert "qbarrier" in err

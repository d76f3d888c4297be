"""Helpers shared by more than one test module."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import qbarrier
from qbarrier import damped
from qbarrier.quadrature import integrate_adaptive


def _fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on the copy of the
    package this suite imported: what a run loads shows only from an
    empty ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=str(Path(qbarrier.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


# One fresh interpreter imports the package, runs every subcommand and
# three engine calls; after each step it records the scipy and thread-pool
# modules loaded so far, after the import the numpy.polynomial ones too, and
# at the end the package modules none loaded
_FRESH_RUNS = """
import json, os, pkgutil, sys

def heavy():
    return sorted(m for m in sys.modules if m == "scipy"
                  or m.startswith(("scipy.", "concurrent.futures")))

report = {"codes": {}, "heavy": {}}
import qbarrier
report["heavy"]["import qbarrier"] = heavy()
import qbarrier.cli
report["heavy"]["import qbarrier.cli"] = heavy()
report["polynomial at import"] = sorted(
    m for m in sys.modules if m.startswith("numpy.polynomial"))

import numpy as np
from qbarrier.damped import amplitude_w_D
from qbarrier.kernel import DampingKernel
from qbarrier.sweep import run_distribution
from qbarrier.traversal import cumulative_amplitude
kernel = DampingKernel(5e-3, 100.0)
for argv in (
        ["figure3", "--gamma-star", "0"], ["figure4"], ["figure5"],
        ["transmission", "--epsilon-range", "1.2:1.4:3", "--gamma-star", "5e-3"],
        ["traversal", "--tau-range", "0:8:20"],
        ["cumulative", "--tau-range", "0:3:4"], ["resonances"]):
    report["codes"][argv[0]] = qbarrier.cli.main(argv + ["--out", os.devnull])
    report["heavy"][argv[0]] = heavy()
amplitude_w_D(1.3, 5.0, kernel)
report["heavy"]["amplitude_w_D"] = heavy()
cumulative_amplitude(1.3, 5.0, kernel, np.linspace(0.0, 30.0, 301))
report["heavy"]["cumulative_amplitude"] = heavy()
run_distribution(5.0, 1.3, 0.0, 8.0, 50, [5e-3], 100.0)
report["heavy"]["run_distribution"] = heavy()
report["unloaded"] = sorted(
    name for _, name, _ in pkgutil.iter_modules(qbarrier.__path__, "qbarrier.")
    if name not in sys.modules)
print(json.dumps(report))
"""


def _spectrum_oracle(kernel, omega, tol):
    """One-sided transform of sqrt(f) at ``omega`` by direct quadrature,
    independent of the series evaluation under test.

    sqrt(f(t)) e^{gap t} / sqrt(t) = sqrt(2 sigma / (1 - e^{-2 sigma t}))
    decreases with t, so past T sqrt(f(t)) stays below
    sqrt(f(T)) sqrt(t / T) e^{-gap (t - T)}, whose integral is at most
    sqrt(f(T)) (1 + 1 / (2 gap T)) / gap.  T doubles until that bound is
    below tol / 4, and [0, T] is seeded with panels two radians of the
    phase wide.
    """
    gap = kernel.decay_gap
    stop = 1.0 / gap
    while kernel.sqrt_f(stop) * (1.0 + 0.5 / (gap * stop)) / gap > 0.25 * tol:
        stop *= 2.0
    fn = lambda t: kernel.sqrt_f(t) * np.exp(-1j * omega * t)
    marks = np.arange(0.0, stop, 2.0 / max(abs(omega), 0.25))
    return integrate_adaptive(fn, 0.0, stop, tol, breakpoints=marks).value


@pytest.fixture
def spectrum_oracle():
    return _spectrum_oracle


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty residual tables for this test; the fixture's value, called,
    empties them again."""
    def fresh():
        monkeypatch.setattr(damped, "_RESIDUAL_TABLES",
                            weakref.WeakKeyDictionary())

    fresh()
    return fresh


@pytest.fixture(scope="session")
def fresh_runs():
    """The report of ``_FRESH_RUNS``, made once for the whole session."""
    return json.loads(_fresh_interpreter(_FRESH_RUNS))

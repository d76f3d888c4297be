"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by module attribute and only lists a site it cannot find, so a refactor
that drops or renames one, or binds one early so that the wrapper is
never called, fails here instead of leaving the benchmark's per-layer
metrics silently empty."""

import importlib
import importlib.util
import inspect
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _sites() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


def test_every_traced_site_resolves():
    sites = [(module, attr) for module, attr, *_ in _sites()]
    sites.append(("qbarrier.damped", "integrate_adaptive"))
    missing = [f"{m}.{a}" for m, a in sites if not _resolves(m, a)]
    assert missing == []
    # the quadrature wrapper binds these arguments by name
    damped = importlib.import_module("qbarrier.damped")
    params = inspect.signature(damped.integrate_adaptive).parameters
    assert {"fn", "lo", "hi", "breakpoints"} <= set(params)


def test_runners_call_the_engine_through_the_sweep_module(monkeypatch):
    # the runners must look each traced engine call up in qbarrier.sweep
    # when they call it; a name bound earlier (an alias, a default
    # argument) would bypass the tracer's wrapper
    sweep = importlib.import_module("qbarrier.sweep")
    engine = [attr for module, attr, *_ in _sites()
              if module == "qbarrier.sweep"
              and not attr.startswith(("run_", "format_"))]
    assert engine
    calls = dict.fromkeys(engine, 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in engine:
        monkeypatch.setattr(sweep, name, counting(name, getattr(sweep, name)))
    sweep.run_transmission(5.0, [1.2, 1.3], [5e-3], 100.0)
    sweep.run_cumulative(5.0, 1.3, [0.0, 1.0], [], 100.0)
    sweep.run_distribution(5.0, 1.3, 0.0, 8.0, 20, [5e-3], 100.0)
    sweep.run_resonances(5.0, 2)
    assert calls == {"amplitude_w_D": 2, "cumulative_amplitude": 1,
                     "distribution_F": 1, "distribution_F_D": 1,
                     "transmission_prob": 3}

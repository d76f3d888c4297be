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


def _count_calls(monkeypatch, sites) -> dict:
    """Put a counting wrapper at each (module, attribute) site, where the
    tracer puts its own; return the counts keyed ``module.attribute``."""
    calls = {}

    def counting(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    for module, attr in sites:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        calls[f"{module}.{attr}"] = 0
        monkeypatch.setattr(owner, name,
                            counting(f"{module}.{attr}", getattr(owner, name)))
    return calls


def test_runners_call_the_engine_through_the_sweep_module(monkeypatch):
    # the runners must look each traced engine call up in qbarrier.sweep
    # when they call it; a name bound earlier (an alias, a default
    # argument) would bypass the tracer's wrapper
    sweep = importlib.import_module("qbarrier.sweep")
    engine = [(module, attr) for module, attr, *_ in _sites()
              if module == "qbarrier.sweep"
              and not attr.startswith(("run_", "format_"))]
    assert engine
    calls = _count_calls(monkeypatch, engine)
    sweep.run_transmission(5.0, [1.2, 1.3], [5e-3], 100.0)
    sweep.run_cumulative(5.0, 1.3, [0.0, 1.0], [], 100.0)
    sweep.run_distribution(5.0, 1.3, 0.0, 8.0, 20, [5e-3], 100.0)
    sweep.run_resonances(5.0, 2)
    assert calls == {"qbarrier.sweep.amplitude_w_D": 2,
                     "qbarrier.sweep.cumulative_amplitude": 1,
                     "qbarrier.sweep.distribution_F": 1,
                     "qbarrier.sweep.distribution_F_D": 1,
                     "qbarrier.sweep.transmission_prob": 3}


def test_engine_reaches_its_inner_sites_through_their_modules(monkeypatch):
    # the same for the sites inside the engine: the barrier amplitudes as
    # damped and traversal look them up, the height sweep, the kernel's
    # methods and the quadrature.  One damped call of each traced kind
    # must reach every one of them through the wrapper
    from qbarrier import damped, traversal
    from qbarrier.kernel import DampingKernel

    inner = [(module, attr) for module, attr, *_ in _sites()
             if module != "qbarrier.sweep"]
    inner.append(("qbarrier.damped", "integrate_adaptive"))
    calls = _count_calls(monkeypatch, inner)
    kernel = DampingKernel(5e-3, 100.0)
    damped.amplitude_w_D(1.3, 5.0, kernel)
    traversal.cumulative_amplitude(1.3, 5.0, kernel, [0.0, 1.0])
    traversal.distribution_F_D(1.3, 5.0, kernel)
    assert [site for site, n in calls.items() if n == 0] == []

"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by module attribute and only lists a site it cannot find, so a refactor
that drops or renames one fails here instead of leaving the benchmark's
per-layer metrics silently empty."""

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


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [(module, attr) for module, attr, *_ in spans.SITES]
    sites.append(("qbarrier.damped", "integrate_adaptive"))
    missing = [f"{m}.{a}" for m, a in sites if not _resolves(m, a)]
    assert missing == []
    # the quadrature wrapper binds these arguments by name
    damped = importlib.import_module("qbarrier.damped")
    params = inspect.signature(damped.integrate_adaptive).parameters
    assert {"fn", "lo", "hi", "breakpoints"} <= set(params)

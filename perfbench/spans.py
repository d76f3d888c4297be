"""In-memory spans around the package's public functions, and the
per-layer metrics computed from them.

A span is ``[id, parent, point, name, start, end, info]``.  ``point`` is
the id of the sweep point that caused it (one damped cell, one curve, one
CLI invocation); children inherit it.  ``info`` holds the work counted at
the boundary (nodes, panels, bytes, failures).  Times come from
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the benchmark and the CLI processes it starts.

The wrappers replace public functions at the module attributes where the
package looks them up, so no file of the package changes and
``Tracer.uninstall`` restores the originals.  A site the package no
longer has is skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
from time import perf_counter


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _nodes(index, name):
    return lambda a, k, r: {"nodes": _size(_arg(a, k, index, name))}


def _w_d_info(a, k, r):
    return {"panels": r.panels_used}


def _cumulative_info(a, k, r):
    return {"taus": _size(_arg(a, k, 3, "times"))}


def _bytes_info(a, k, r):
    return {"bytes": len(r.encode())}


# (module, attribute, span name, info function, starts a sweep point)
SITES = (
    ("qbarrier.sweep", "run_transmission", "sweep.run", None, False),
    ("qbarrier.sweep", "run_mean_deviation", "sweep.run", None, False),
    ("qbarrier.sweep", "run_cumulative", "sweep.run", None, False),
    ("qbarrier.sweep", "run_distribution", "sweep.run", None, False),
    ("qbarrier.sweep", "run_resonances", "sweep.run", None, False),
    ("qbarrier.sweep", "format_csv", "sweep.format", _bytes_info, False),
    ("qbarrier.sweep", "format_json", "sweep.format", _bytes_info, False),
    ("qbarrier.sweep", "amplitude_w_D", "damped.w_D", _w_d_info, True),
    ("qbarrier.sweep", "cumulative_amplitude", "traversal.cumulative",
     _cumulative_info, True),
    ("qbarrier.sweep", "distribution_F", "traversal.distribution", None, True),
    ("qbarrier.sweep", "distribution_F_D", "traversal.distribution", None,
     True),
    ("qbarrier.sweep", "transmission_prob", "barrier.w",
     _nodes(0, "epsilon"), False),
    ("qbarrier.damped", "amplitude_w", "barrier.w", _nodes(0, "epsilon"),
     False),
    ("qbarrier.damped", "amplitude_w_complex_height", "barrier.w",
     _nodes(2, "height"), False),
    ("qbarrier.traversal", "amplitude_w", "barrier.w", _nodes(0, "epsilon"),
     False),
    ("qbarrier.traversal", "amplitude_w_complex_height", "barrier.w",
     _nodes(2, "height"), False),
    ("qbarrier.traversal", "amplitude_w_D_height_sweep", "damped.height_sweep",
     _nodes(3, "omega_grid"), False),
    ("qbarrier.kernel", "DampingKernel.sqrt_f_spectrum", "kernel.spectrum",
     _nodes(1, "omega"), False),
    ("qbarrier.kernel", "DampingKernel.sqrt_f", "kernel.sqrt_f",
     _nodes(1, "t"), False),
)


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []

    def begin(self, name: str, point: bool = False) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        inherited = self.spans[parent][2] if parent is not None else None
        self.spans.append([sid, parent, sid if point else inherited, name,
                           perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, t1: float | None = None, info=None) -> None:
        span = self.spans[sid]
        span[5] = perf_counter() if t1 is None else t1
        span[6] = info
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished span measured without the wrappers."""
        sid = self.begin(name)
        self.spans[sid][4] = t0
        self.end(sid, t1)

    def graft(self, parent: int, spans) -> None:
        """Adopt spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        point = self.spans[parent][2]
        for sid, par, _pt, name, t0, t1, info in spans:
            self.spans.append([sid + offset,
                               parent if par is None else par + offset,
                               point, name, t0, t1, info])

    def wrapped(self, name: str, fn, info=None, point: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name, point)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(sid, info={"failed": 1})
                raise
            t1 = perf_counter()
            tracer.end(sid, t1, info(args, kwargs, result) if info else None)
            return result

        return wrapper

    def _quadrature(self, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            params["fn"] = tracer.wrapped(
                "damped.integrand", params["fn"], _nodes(0, "x"))
            sid = tracer.begin("quadrature.integrate")
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException:
                tracer.end(sid, info={"failed": 1})
                raise
            t1 = perf_counter()
            tracer.end(sid, t1, {"panels": result.panels_used,
                                 "seed_panels": _seed_panels(params)})
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for module, attr, name, info, point in SITES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patch(owner, leaf,
                        self.wrapped(name, getattr(owner, leaf), info, point))
        damped = importlib.import_module("qbarrier.damped")
        if hasattr(damped, "integrate_adaptive"):
            self._patch(damped, "integrate_adaptive",
                        self._quadrature(damped.integrate_adaptive))
        else:
            self.missing.append("qbarrier.damped.integrate_adaptive")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, fh, **tags) -> None:
        keys = ("id", "parent", "point", "name", "start", "end", "info")
        for span in self.spans:
            fh.write(json.dumps({**tags, **dict(zip(keys, span))}) + "\n")


def _seed_panels(params) -> int:
    """Seed panels of ``integrate_adaptive`` from its public arguments:
    one per breakpoint-delimited piece, split further by
    ``max_panel_width``."""
    lo, hi = float(params["lo"]), float(params["hi"])
    edges = [lo] + sorted(b for b in {float(b) for b in params["breakpoints"]}
                          if lo < b < hi)
    if math.isfinite(hi):
        edges.append(hi)
    cap = params.get("max_panel_width")
    pieces = zip(edges[:-1], edges[1:])
    count = sum(math.ceil((b - a) / cap) if cap and b - a > cap else 1
                for a, b in pieces)
    return max(count, 1)


# -- per-layer metrics --------------------------------------------------------

LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.main_self_s", "s"),
    ("cli.process_self_s", "s"), ("cli.invocations", "count"),
    ("sweep.run_self_s", "s"), ("sweep.format_s", "s"),
    ("sweep.bytes_out", "bytes"),
    ("damped.w_D_calls", "count"), ("damped.w_D_ms_p50", "ms"),
    ("damped.w_D_ms_p90", "ms"), ("damped.w_D_self_s", "s"),
    ("damped.w_D_failed", "count"), ("damped.panels", "count"),
    ("damped.integrand_self_s", "s"), ("damped.height_sweep_s", "s"),
    ("damped.height_sweep_self_s", "s"), ("damped.height_sweep_nodes", "count"),
    ("kernel.spectrum_calls", "count"), ("kernel.spectrum_nodes", "count"),
    ("kernel.spectrum_s", "s"), ("kernel.spectrum_us_per_node", "us"),
    ("kernel.sqrt_f_s", "s"),
    ("quadrature.calls", "count"), ("quadrature.panels", "count"),
    ("quadrature.seed_panels", "count"), ("quadrature.integrand_calls", "count"),
    ("quadrature.self_s", "s"),
    ("barrier.w_calls", "count"), ("barrier.w_nodes", "count"),
    ("barrier.w_s", "s"), ("barrier.w_us_per_node", "us"),
    ("traversal.cumulative_calls", "count"),
    ("traversal.cumulative_self_s", "s"), ("traversal.cumulative_taus", "count"),
    ("traversal.distribution_s", "s"), ("traversal.distribution_self_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.solve_s", "s"),
    ("trace.accounted_frac", "frac"),
)

# metrics whose value is the same in every traced repetition of one seed
COUNT_METRICS = tuple(n for n, unit in LAYER_METRICS if unit in ("count", "bytes"))


def rep_metrics(spans, root: int) -> dict:
    """Layer metrics of one traced repetition, the subtree under ``root``.

    Self time is a span's duration minus that of its direct children.
    The root is the benchmark's own timed section, so the self times of
    all other spans add up to the root's duration minus the benchmark's
    glue; ``trace.accounted_frac`` is that share.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    members = []
    todo = [root]
    while todo:
        sid = todo.pop()
        members.append(by_id[sid])
        todo.extend(c[0] for c in children.get(sid, ()))

    def dur(s):
        return s[5] - s[4]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s[0], ()))

    def named(name):
        return [s for s in members if s[3] == name]

    def total(name, fn=dur):
        return math.fsum(fn(s) for s in named(name))

    def info(name, key):
        return sum((s[6] or {}).get(key, 0) for s in named(name))

    spectrum_nodes = info("kernel.spectrum", "nodes")
    w_nodes = info("barrier.w", "nodes")
    root_span = by_id[root]
    out = {
        "cli.import_s": total("cli.import"),
        "cli.main_self_s": total("cli.main", self_time),
        "cli.process_self_s": total("cli.process", self_time),
        "cli.invocations": len(named("cli.main")),
        "sweep.run_self_s": total("sweep.run", self_time),
        "sweep.format_s": total("sweep.format"),
        "sweep.bytes_out": info("sweep.format", "bytes"),
        "damped.w_D_calls": len(named("damped.w_D")),
        "damped.w_D_self_s": total("damped.w_D", self_time),
        "damped.w_D_failed": info("damped.w_D", "failed"),
        "damped.panels": info("damped.w_D", "panels"),
        "damped.integrand_self_s": total("damped.integrand", self_time),
        "damped.height_sweep_s": total("damped.height_sweep"),
        "damped.height_sweep_self_s": total("damped.height_sweep", self_time),
        "damped.height_sweep_nodes": info("damped.height_sweep", "nodes"),
        "kernel.spectrum_calls": len(named("kernel.spectrum")),
        "kernel.spectrum_nodes": spectrum_nodes,
        "kernel.spectrum_s": total("kernel.spectrum"),
        "kernel.spectrum_us_per_node":
            1e6 * total("kernel.spectrum") / spectrum_nodes
            if spectrum_nodes else 0.0,
        "kernel.sqrt_f_s": total("kernel.sqrt_f"),
        "quadrature.calls": len(named("quadrature.integrate")),
        "quadrature.panels": info("quadrature.integrate", "panels"),
        "quadrature.seed_panels": info("quadrature.integrate", "seed_panels"),
        "quadrature.integrand_calls": len(named("damped.integrand")),
        "quadrature.self_s": total("quadrature.integrate", self_time),
        "barrier.w_calls": len(named("barrier.w")),
        "barrier.w_nodes": w_nodes,
        "barrier.w_s": total("barrier.w"),
        "barrier.w_us_per_node":
            1e6 * total("barrier.w") / w_nodes if w_nodes else 0.0,
        "traversal.cumulative_calls": len(named("traversal.cumulative")),
        "traversal.cumulative_self_s":
            total("traversal.cumulative", self_time),
        "traversal.cumulative_taus": info("traversal.cumulative", "taus"),
        "traversal.distribution_s": total("traversal.distribution"),
        "traversal.distribution_self_s":
            total("traversal.distribution", self_time),
        "trace.solve_s": dur(root_span),
        "trace.accounted_frac": 1.0 - self_time(root_span) / dur(root_span),
    }
    # w_D durations are pooled over repetitions by the caller
    out["_w_D_ms"] = [1e3 * dur(s) for s in named("damped.w_D")]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def summarize(reps, untraced_solve_s, import_s=None) -> dict:
    """Median of each layer metric over traced repetitions, w_D
    percentiles over all their calls, and the tracing overhead."""
    keys = [k for k in reps[0] if not k.startswith("_")]
    out = {k: (statistics.median_low if k in COUNT_METRICS
               else statistics.median)([r[k] for r in reps]) for k in keys}
    pooled = [ms for r in reps for ms in r["_w_D_ms"]]
    out["damped.w_D_ms_p50"] = percentile(pooled, 0.5)
    out["damped.w_D_ms_p90"] = percentile(pooled, 0.9)
    if import_s is not None:
        out["cli.import_s"] = import_s
    out["trace.overhead_frac"] = out["trace.solve_s"] / untraced_solve_s - 1.0
    return out

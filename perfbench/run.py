"""Benchmark of the qbarrier package, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  For ``--seconds`` a run
alternates

1. one ``setup_s`` probe: a fresh interpreter starting, importing
   ``qbarrier.cli`` and the benchmark's modules and building the
   workload's grids, timed from outside;
2. one repetition of the workload's solve, timed (the last repetition is
   finished, not cut).

Probes and repetitions share the window, so both sample the same state of
the machine; each metric is the median over the run (at least
``SETUP_MIN`` probes).  Afterwards it

3. checks every output cell of the first repetition against an
   independent route, and every later repetition for byte-identical
   output, outside the timed section;
4. prints, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` (output cells) and ``metrics``.

Only the first repetition's outputs are kept; later ones are reduced to a
hash at once, so ``peak_rss_mb`` does not grow with the number of
repetitions.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each step runs an untraced and a traced repetition; the
metrics are the per-layer ones from the traced repetitions plus the
tracing overhead, and the spans are written to ``.perfbench/``.

Only the benchmark's own process and the processes it starts are
observed; nothing traces the rest of the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("transmission", "cumulative", "cli", "weak_damping")
SETUP_MIN = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
LIMIT = ("only the benchmark's own process and the processes it starts are "
         "observed; no system-wide tracing")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive_int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up, for smoke.py")
    return parser.parse_args(argv)


def prepare_environment() -> int:
    """Use the checkout's sources and cap BLAS/OpenMP threads at nproc,
    for this process and every process it starts."""
    if not (SRC / "qbarrier" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qbarrier").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "limit": LIMIT,
    }


def time_setup(name: str, seed: int, tiny: bool):
    """Wall time of one fresh set-up, and the import time inside it."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(int(tiny))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - t0, float(proc.stdout.split()[-1])


def one_rep(workload, case, traced: bool):
    from spans import Tracer

    tracer = Tracer().install() if traced else None
    try:
        t0 = perf_counter()
        root = tracer.begin("bench.solve") if traced else None
        outputs = workload.solve(case, tracer)
        t1 = perf_counter()
        if traced:
            tracer.end(root, t1)
    finally:
        if traced:
            tracer.uninstall()
    return t1 - t0, outputs, tracer, root


def fingerprint(outputs) -> str:
    """Hash of what a repetition hands the user: its serialized texts and,
    for ``cli``, the exit codes."""
    blob = json.dumps([outputs["texts"], outputs.get("codes")],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = prepare_environment()

    from workloads import WORKLOADS
    import spans

    workload = WORKLOADS[args.workload]
    case = workload.make(args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, imports = [], []

    def probe():
        wall, imported = time_setup(args.workload, args.seed, args.tiny)
        setups.append(wall)
        imports.append(imported)

    solves, traced_flags, prints, per_rep, missing = [], [], [], [], set()
    first = None        # outputs of the first repetition, for the gate
    child_rss_kb = 0
    span_file = open(OUT / f"spans-{stem}.jsonl", "w") if args.trace else None
    start = perf_counter()
    while not solves or perf_counter() - start < args.seconds:
        probe()
        for traced in ((False, True) if args.trace else (False,)):
            solve_s, outputs, tracer, root = one_rep(workload, case, traced)
            solves.append(solve_s)
            traced_flags.append(traced)
            prints.append(fingerprint(outputs))
            child_rss_kb = max(child_rss_kb, outputs.get("child_rss_kb", 0))
            if traced:
                per_rep.append(spans.rep_metrics(tracer.spans, root))
                missing.update(tracer.missing)
                tracer.dump(span_file, rep=len(solves) - 1)
            if first is None:
                first = outputs
            del outputs, tracer
            print(f"perfbench: rep {len(solves)} traced={int(traced)} "
                  f"solve_s={solve_s:.4f} setup_s={setups[-1]:.4f}",
                  file=sys.stderr)
    while len(setups) < (1 if args.tiny else SETUP_MIN):
        probe()
    if span_file is not None:
        span_file.close()
    if args.workload == "cli":
        rss_kb = child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    gate = workload.check(case, first)
    attempted = gate.attempted * len(solves)
    failed = sum(gate.failed if fp == prints[0] else gate.attempted
                 for fp in prints)
    for note in gate.notes:
        print(f"perfbench: gate: {note}", file=sys.stderr)
    if failed > gate.failed * len(solves):
        print("perfbench: gate: output differs between repetitions",
              file=sys.stderr)

    setup_s = statistics.median(setups)
    solve_s = statistics.median(
        [t for t, traced in zip(solves, traced_flags) if not traced])
    if args.trace:
        values = spans.summarize(
            per_rep, solve_s,
            None if args.workload == "cli" else statistics.median(imports))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        if missing:
            print(f"perfbench: not traced, absent: {sorted(missing)}",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }

    env = environment(nproc)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env,
                   "reps_solve_s": solves, "reps_traced": traced_flags,
                   "setups_s": setups, "gate_notes": gate.notes, **result},
                  fh, indent=1)
    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench {args.workload} seed={args.seed} reps={len(solves)} "
          f"fail_frac={failed / attempted!r} ({failed} of {attempted} cells)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

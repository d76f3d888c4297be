"""Smoke test of the benchmark at tiny size, about three minutes:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` once untraced and twice
traced, and asserts that

* every metric ``BENCHMARK.json`` names is printed with its unit,
* the outputs pass the correctness gate,
* the count metrics repeat exactly between the two traced runs,
* the layer self times account for the traced solve time.

It then feeds a deliberately perturbed output to each workload's gate and
asserts that ``fail_frac`` comes out above 0, so a zero is not vacuous.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

from run import HERE, NAMES, ROOT, prepare_environment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, listed) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    printed = result["metrics"]
    for spec in listed:
        got = printed[spec["name"]]
        assert got["unit"] == spec["unit"], (spec, got)
        assert isinstance(got["value"], (int, float)), got
    assert set(printed) == {spec["name"] for spec in listed}


def check_workload(name: str) -> None:
    import spans

    assert_metrics(run(name, 0), SPEC["end_to_end"])
    first, second = run(name, 1), run(name, 1)
    for result in (first, second):
        assert_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.98
    for metric in spans.COUNT_METRICS:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric
    print(f"smoke: {name}: metrics, gate and repeatable counts ok")


def perturbed_outputs(name: str, outputs: dict):
    """Yield (what, outputs) with one deliberately wrong cell each."""
    from qbarrier import sweep

    if name in ("transmission", "weak_damping"):
        res = outputs["result"]
        table = res.table.copy()
        table[0, -1] *= 1.0 + 1e-4
        bad = dataclasses.replace(res, table=table)
        yield "damped cell", {
            "result": bad,
            "texts": {"transmission.csv": sweep.format_csv(bad, timestamp=False)}}
    elif name == "cumulative":
        got = outputs["captured"]
        args, kwargs, curve = got["cumulative_amplitude"][-1]
        shifted = dataclasses.replace(
            curve, suppressed_amplitude=curve.suppressed_amplitude * (1 + 1e-4))
        captured = dict(got, cumulative_amplitude=got["cumulative_amplitude"][:-1]
                        + [(args, kwargs, shifted)])
        yield "suppressed amplitude", dict(outputs, captured=captured)
        cum = outputs["cumulative"]
        table = cum.table.copy()
        table[-1, -1] *= 1.0 + 1e-4
        bad = dataclasses.replace(cum, table=table)
        texts = dict(outputs["texts"],
                     **{"cumulative.csv": sweep.format_csv(bad, timestamp=False)})
        yield "C_D cell", dict(outputs, cumulative=bad, texts=texts)
    else:
        texts = dict(outputs["texts"])
        texts["resonances.csv"] = texts["resonances.csv"].replace(
            "1.3947841760435744", "1.3947841760435745")
        yield "golden preset", dict(outputs, texts=texts)
        texts = dict(outputs["texts"])
        lines = texts["transmission.csv"].splitlines(keepends=True)
        axis, value = lines[-1].rstrip("\n").split(",")
        lines[-1] = f"{axis},{float(value) * (1 + 1e-6)!r}\n"
        texts["transmission.csv"] = "".join(lines)
        yield "clean grid cell", dict(outputs, texts=texts)


def check_gate(name: str) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    case = workload.make(5, tiny=True)
    outputs = workload.solve(case)
    clean = workload.check(case, outputs)
    assert clean.attempted > 0 and clean.failed == 0, clean.notes
    for what, bad in perturbed_outputs(name, outputs):
        gate = workload.check(case, bad)
        fail_frac = gate.failed / gate.attempted
        assert fail_frac > 0.0, (name, what)
        print(f"smoke: {name}: perturbed {what} -> fail_frac={fail_frac:.3g}")


def main() -> int:
    prepare_environment()
    for name in NAMES:
        check_workload(name)
        check_gate(name)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

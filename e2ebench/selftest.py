"""Self-test of the benchmark harness at tiny sizes.

Usage (from the repository root)::

    python3 e2ebench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the metrics the harness
emits, that every workload at a tiny size emits each of them with its
unit in both modes, that the output check trips on a perturbed digest,
and that ``run.py`` refuses to run where the program is missing.  Exits
non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

TINY = {
    "fig13": {"models": ("bert",), "scale": 32},
    "scenarios": {"families": ("moe",), "scale": 32},
    "table1": {"tasks": (("mlp", 0.75),), "epochs": 1},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_declared_metrics(spec) -> None:
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(declared == list(table), f"BENCHMARK.json {key} differs from the harness table")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS),
           "BENCHMARK.json workloads differ from the harness workloads")


def check_emitted(result, table, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct={result['correct']}, {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    expect(list(metrics) == [name for name, _, _ in table], f"{label}: metric names {list(metrics)}")
    for name, unit, _ in table:
        entry = metrics[name]
        expect(entry["unit"] == unit, f"{label}: {name} unit {entry['unit']} != {unit}")
        expect(isinstance(entry["value"], (int, float)), f"{label}: {name} value {entry['value']!r}")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(harness.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(harness.BENCH_DIR, Path(tmp) / harness.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{harness.BENCH_DIR.name}/run.py", "--workload", "fig13"],
            cwd=tmp, capture_output=True, timeout=60,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py ran without a program to measure")


def main() -> int:
    harness.prepare_environment()
    harness.use_program()
    check_declared_metrics(json.loads((harness.ROOT / "BENCHMARK.json").read_text()))
    check_refuses_without_program()
    for name, kwargs in TINY.items():
        workload = harness.WORKLOADS[name].resized(**kwargs)
        result, _ = harness.measure(workload, 0, 0, False, None, setup_probes=1)
        check_emitted(result, harness.END_TO_END, f"{name} --trace 0")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{name}: a zero end-to-end metric")
        result, _ = harness.measure(workload, 0, 0, True, None)
        check_emitted(result, harness.PER_LAYER, f"{name} --trace 1")
        good = harness.run_rep(workload, 0, traced=False)
        result, _ = harness.measure(workload, 0, 0, False, {k: "0" * 16 for k in good.digests}, setup_probes=1)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{name}: a perturbed digest did not trip the output check")
        print(f"{name}: ok", file=sys.stderr)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

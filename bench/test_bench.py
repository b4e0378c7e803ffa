"""Smoke tests for the benchmark itself, on tiny grids.

    python3 -m pytest bench/test_bench.py -q

Checks the output schema of every workload against ``BENCHMARK.json``, that
the work counters of two traced runs with one seed are identical, and that
the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTER_UNITS = ("count", "bytes")


def bench(root, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--small"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out["metrics"]


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    metrics = result(bench(ROOT, workload, trace=0))
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first, second = (result(bench(ROOT, workload, trace=1)) for _ in range(2))
    expected = units("per_layer")
    assert {k: v["unit"] for k, v in first.items()} == expected
    counters = [k for k, u in expected.items() if u in COUNTER_UNITS]
    assert ({k: first[k]["value"] for k in counters}
            == {k: second[k]["value"] for k in counters})


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

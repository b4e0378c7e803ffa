"""Schema of the committed benchmark records, ``BENCH_<tag>.json`` at the
repository root.

Each file holds the raw result lines of ``bench/run.py``; a speed claim
counts only with one.  Only the shape is checked here, not the numbers.
"""

import json
import numbers
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "success_rate")


def _metric_problems(name, metric):
    if not (isinstance(metric, dict)
            and isinstance(metric.get("value"), numbers.Real)
            and not isinstance(metric.get("value"), bool)
            and isinstance(metric.get("unit"), str)):
        return [f"metric {name!r} needs a numeric value and a unit: {metric!r}"]
    return []


def _run_problems(run):
    problems = []
    for key in ("side", "workload", "seed", "trace", "inputs", "result"):
        if key not in run:
            problems.append(f"missing {key!r}")
    result = run.get("result", {})
    if not isinstance(result.get("correct"), bool):
        problems.append("result.correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            problems.append(f"result.{key} must be a count")
    metrics = result.get("metrics", {})
    if run.get("trace") == 0:
        problems += [f"missing end-to-end metric {name!r}"
                     for name in END_TO_END if name not in metrics]
    for name, metric in metrics.items():
        problems += _metric_problems(name, metric)
    if run.get("inputs", {}).get("seed") != run.get("seed"):
        problems.append("inputs.seed differs from seed")
    return problems


def test_bench_files_follow_the_schema():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        data = json.loads(path.read_text())
        assert isinstance(data.get("command"), str), path.name
        runs = data.get("runs")
        assert isinstance(runs, list) and runs, path.name
        for i, run in enumerate(runs):
            assert _run_problems(run) == [], f"{path.name} run {i}"

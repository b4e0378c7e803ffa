"""Schema of the committed benchmark records, ``BENCH_<tag>.json`` at the
repository root.

Each file holds the raw result lines of ``bench/run.py``; a speed claim
counts only with one.  The shape is checked here, and that each summary
median restates the runs it summarizes, not whether the numbers are good.
"""

import json
import numbers
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "success_rate")
SIDES = ("before", "after")


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
    if run.get("side") not in SIDES:
        problems.append(f"side {run.get('side')!r} is not one of {SIDES}")
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


def _summary_problems(data):
    """Each ``summary[workload][side][metric]`` holds the median and the
    count n of that metric over the side's ``--trace 0`` runs of the
    workload."""
    problems = []
    for workload, sides in data.get("summary", {}).items():
        for side in SIDES:
            for metric, stat in sides.get(side, {}).items():
                values = [run["result"]["metrics"][metric]["value"]
                          for run in data["runs"]
                          if (run["workload"], run["side"], run["trace"])
                          == (workload, side, 0)]
                where = f"summary[{workload!r}][{side!r}][{metric!r}]"
                if stat.get("n") != len(values):
                    problems.append(f"{where}: n {stat.get('n')!r}, "
                                    f"{len(values)} runs")
                elif not values or stat.get("median") != statistics.median(
                        values):
                    problems.append(f"{where}: median {stat.get('median')!r} "
                                    "is not the runs' median")
    return problems


def test_bench_files_name_their_tag_and_base_and_restate_their_runs():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        assert data.get("tag") == path.stem[len("BENCH_"):], path.name
        assert re.fullmatch(r"[0-9a-f]{40}",
                            str(data.get("base_commit"))), path.name
        assert "summary" in data, path.name
        assert _summary_problems(data) == [], path.name

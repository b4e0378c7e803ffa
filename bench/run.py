"""grushinlab benchmark: time-to-verdict on four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload blowup-128 --seed 1 --seconds 20 --trace 0

Runs the workload's operation through the public API in this one process,
repeating it while another operation of the mean length fits in
``--seconds`` (at least once), and checks every result.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the inputs, the raw
samples and the machine.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` additionally runs the operation once under
:class:`tracing.Tracer` and reports the per-layer metrics instead.
``--small`` shrinks every grid and the set-up repeats for smoke tests.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.  Scratch
output (artifacts, span files, generated configs) goes to ``.bench_out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any child: the
# thread count changes both the timings and the last digits of lambda1.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5

# Cold-process set-up: everything before the first pipeline call.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import grushinlab
grushinlab.parse_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Seconds for ``import grushinlab`` plus ``parse_config`` in fresh
    interpreters.  One unrecorded probe runs first so that byte-compiling
    the sources does not land in the first sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE,
                              str(config_path)],
                             env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        if i:
            samples.append(float(out.stdout))
    return samples


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny grids and one set-up probe (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC / "grushinlab" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}{'-small' if args.small else ''}"
    OUT.mkdir(exist_ok=True)
    config_path = OUT / f"{tag}.json"
    config_path.write_text(json.dumps(wl.make_config(args.seed, args.small)))
    artifacts = OUT / f"{tag}-artifacts"

    setup = [] if args.trace else measure_setup(
        config_path, 1 if args.small else SETUP_REPEATS)

    import grushinlab as gl
    from tracing import Tracer

    if Path(gl.__file__).resolve().parent != SRC / "grushinlab":
        print(f"bench: imported grushinlab from {gl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    cfg = gl.parse_config(str(config_path))

    def attempt():
        """One operation: (seconds, its summary, or None if it raised)."""
        t0 = time.perf_counter()
        try:
            summary = wl.operation(gl, cfg, args.seed, artifacts)
        except Exception as exc:   # an operation that raises has failed
            print(f"bench: operation raised {exc!r}", file=sys.stderr)
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, summary()

    summaries, run_s = [], []
    start = time.perf_counter()
    # Repeat while another operation of the mean length still fits.
    while not run_s or (time.perf_counter() - start
                        + statistics.fmean(run_s) <= args.seconds):
        seconds, summary = attempt()
        run_s.append(seconds)
        summaries.append(summary)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer(run_id=f"{tag}-{os.getpid()}")
        with tracer:
            traced_s, summary = attempt()
        summaries.append(summary)
        tracer.write(OUT / f"{tag}-spans.jsonl")

    # Correctness, outside every timed region and after peak RSS is read.
    ref = workloads.reference_lambda1(gl, cfg)
    failed = 0
    for summary in summaries:
        problems = (["operation raised"] if summary is None
                    else wl.check(summary, ref))
        for p in problems:
            print(f"bench: incorrect: {p}", file=sys.stderr)
        failed += bool(problems)
    attempted = len(summaries)

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_s - statistics.median(run_s), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(run_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "config": json.loads(config_path.read_text()),
                      "run_s_samples": run_s, "setup_s_samples": setup,
                      "lambda1_reference": ref, "machine": machine_info()}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions with timing wrappers at the place
their caller looks them up (``runner.run``, ``integrator.cg_solve``, ...),
and puts the originals back on exit.  Spans stay in memory as
``[name, start, end, parent]`` and are written out once the run ends.  A span
name is ``<layer>.<call>`` with the layer the package module that owns the
call.  Matrix-vector products are counted but not spanned: there are about
10^5 of them per run.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import grushinlab
from grushinlab import (diagnostics, integrator, linalg, operators,
                        runner)

# Layers reported with a self time; the only operators span is assembly,
# which operators.assemble_s already reports.
SELF_TIME_LAYERS = ("linalg", "integrator", "nonlinearity", "diagnostics",
                    "runner")
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10      # samples that must lie beyond a reported percentile


def _matvec_bytes(A) -> int:
    """Bytes a CSR product y = A x reads and writes, computed (not measured)
    from nnz and N: values and column indices, the row pointer, x and y."""
    return (A.nnz * (A.values.itemsize + A.indices.itemsize)
            + (A.n + 1) * A.indptr.itemsize + 2 * A.n * 8)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # --- wrapping -----------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, perf_counter(), None, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_calls(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_matvecs(self, fn):
        counts = self.counts

        def apply(A, u):
            counts["operators.matvecs"] += 1
            counts["operators.matvec_bytes_computed"] += _matvec_bytes(A)
            return fn(A, u)
        return apply

    def __enter__(self) -> "Tracer":
        counts = self.counts
        span, patch = self._span, self._patch

        # operators
        patch(operators, "apply", self._count_matvecs(operators.apply))
        patch(integrator, "apply", self._count_matvecs(integrator.apply))
        for owner in (runner, grushinlab):
            patch(owner, "assemble_grushin",
                  span("operators.assemble", owner.assemble_grushin))

        # linalg
        def eigen_of(fn):
            def eigen(*args, **kwargs):
                res = fn(*args, **kwargs)
                counts["linalg.eigen_iters"] += res.iterations
                return res
            return eigen
        for owner in (runner, grushinlab):
            patch(owner, "smallest_eigenpair",
                  span("linalg.eigen", eigen_of(owner.smallest_eigenpair)))

        eigen_cg = linalg.cg_solve

        def eigen_solve(*args, **kwargs):
            x, rep = eigen_cg(*args, **kwargs)
            counts["linalg.eigen_cg_iters"] += rep.iterations
            return x, rep
        patch(linalg, "cg_solve", span("linalg.eigen_cg", eigen_solve))

        step_cg = integrator.cg_solve

        def step_solve(*args, **kwargs):
            try:
                x, rep = step_cg(*args, **kwargs)
            except linalg.SolverError:
                counts["linalg.solver_errors"] += 1
                raise
            counts["linalg.step_cg_iters"] += rep.iterations
            return x, rep
        patch(integrator, "cg_solve", span("linalg.step_solve", step_solve))

        # integrator
        march_fn = runner.run

        def march(*args, **kwargs):
            state, records = march_fn(*args, **kwargs)
            counts["integrator.steps_accepted"] += state.steps
            return state, records
        patch(runner, "run", span("integrator.march", march))

        # nonlinearity
        patch(integrator, "f_values",
              span("nonlinearity.f", integrator.f_values))
        patch(diagnostics, "F_values", span("nonlinearity.F", self._count_calls(
            "nonlinearity.F_calls", diagnostics.F_values)))
        for attr in ("check_blowup_hypothesis", "check_global_hypothesis",
                     "check_f_positive"):
            patch(runner, attr,
                  span("nonlinearity.hypothesis", getattr(runner, attr)))

        # diagnostics
        record_fn = diagnostics.EnergyTracker.__call__

        def record(tracker, state):
            before = len(tracker.records)
            record_fn(tracker, state)
            counts["diagnostics.records"] += len(tracker.records) - before
        patch(diagnostics.EnergyTracker, "__call__",
              span("diagnostics.record", record))

        def on_disk(fn):
            def write(*args, **kwargs):
                fn(*args, **kwargs)
                counts["diagnostics.io_bytes"] += os.path.getsize(args[-1])
            return write
        for attr in ("write_csv", "emit_svg_plot"):
            patch(runner, attr,
                  span("diagnostics.io", on_disk(getattr(runner, attr))))
        to_json_fn = runner.TheoremReport.to_json

        def to_json(report):
            text = to_json_fn(report)
            # run_experiment writes this string verbatim (ASCII, newline="").
            counts["diagnostics.io_bytes"] += len(text.encode())
            return text
        patch(runner.TheoremReport, "to_json", span("diagnostics.io", to_json))

        # runner
        for owner in (runner, grushinlab):
            patch(owner, "run_experiment", span("runner.experiment",
                  self._count_calls("runner.experiments", owner.run_experiment)))
        patch(grushinlab, "run_sweep", span("runner.sweep", grushinlab.run_sweep))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, "id": i,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``*_s`` of a named call is inclusive (children counted); ``<layer>.
        self_s`` is the layer's spans minus their direct child spans.
        """
        total, self_time = defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            self_time[name.split(".")[0]] += dur
            if parent is not None:
                self_time[self.spans[parent][0].split(".")[0]] -= dur
        solves = sorted(end - start for name, start, end, _ in self.spans
                        if name == "linalg.step_solve")
        pct, tail = _tail(solves)
        c = self.counts
        attempts = len(solves)
        m = {
            "operators.assemble_s": (total["operators.assemble"], "s"),
            "operators.matvecs": (c["operators.matvecs"], "count"),
            "operators.matvec_bytes_computed":
                (c["operators.matvec_bytes_computed"], "bytes"),
            "linalg.eigen_s": (total["linalg.eigen"], "s"),
            "linalg.eigen_iters": (c["linalg.eigen_iters"], "count"),
            "linalg.eigen_cg_iters": (c["linalg.eigen_cg_iters"], "count"),
            "linalg.step_solves": (attempts, "count"),
            "linalg.step_solve_s": (total["linalg.step_solve"], "s"),
            "linalg.step_solve_p50_ms":
                (1e3 * statistics.median(solves) if solves else 0.0, "ms"),
            "linalg.step_solve_tail_ms": (1e3 * tail, "ms"),
            "linalg.step_solve_tail_pct": (pct, "%"),
            "linalg.step_cg_iters": (c["linalg.step_cg_iters"], "count"),
            "linalg.solver_errors": (c["linalg.solver_errors"], "count"),
            "integrator.march_s": (total["integrator.march"], "s"),
            "integrator.steps_accepted":
                (c["integrator.steps_accepted"], "count"),
            "integrator.steps_rejected":
                (attempts - c["integrator.steps_accepted"], "count"),
            "nonlinearity.f_s": (total["nonlinearity.f"], "s"),
            "nonlinearity.F_s": (total["nonlinearity.F"], "s"),
            "nonlinearity.F_calls": (c["nonlinearity.F_calls"], "count"),
            "nonlinearity.hypothesis_s": (total["nonlinearity.hypothesis"], "s"),
            "diagnostics.record_s": (total["diagnostics.record"], "s"),
            "diagnostics.records": (c["diagnostics.records"], "count"),
            "diagnostics.io_s": (total["diagnostics.io"], "s"),
            "diagnostics.io_bytes": (c["diagnostics.io_bytes"], "bytes"),
            "runner.experiments": (c["runner.experiments"], "count"),
        }
        for layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_s"] = (self_time[layer], "s")
        return m


def _tail(samples):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples above it, by nearest rank; (0, 0) if none has."""
    n = len(samples)
    best = (0.0, 0.0)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, samples[rank - 1])
    return best

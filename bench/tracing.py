"""Span tracing of phasegate from outside the package.

A :class:`Tracer` replaces public functions under the names their
callers look up (``phasegate.pipeline.ml_reconstruct_process`` is the
name ``reconstruct_table`` calls, ``phasegate.tomography.ml_reconstruct_process``
the one the benchmark's own ops call) with wrappers that record one span
per call and return the result untouched.  :meth:`Tracer.restore` puts
the originals back.  Spans live in memory until the run ends.  Only
calls made inside an op (:meth:`Tracer.run_op`) are recorded, so the
benchmark's output checks leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

from phasegate import experiment, metrics, pipeline, tomography
from phasegate.experiment import CountTable

#: (function, layer, layer metric, owners).  The layer is the module that
#: defines the function; the metric is the busy time it counts towards;
#: the owners are the modules (or class) through which callers reach it.
TRACED = (
    ("simulate_counts", "experiment", "experiment.simulate_s", (experiment, pipeline)),
    ("outcome_probabilities", "experiment", "experiment.probability_s", (experiment,)),
    ("select_without_feedforward", "experiment", "experiment.select_rescale_s", (experiment, pipeline)),
    ("rescale_efficiencies", "experiment", "experiment.select_rescale_s", (experiment, pipeline)),
    ("usable_fraction", "experiment", "experiment.select_rescale_s", (experiment, pipeline)),
    ("write_counts", "pipeline", "experiment.csv_write_s", (pipeline,)),
    ("to_csv", "experiment", "experiment.csv_write_s", (CountTable,)),
    ("from_csv", "experiment", "experiment.csv_parse_s", (CountTable,)),
    ("settings_for_phase", "tomography", "tomography.design_s", (tomography, pipeline)),
    ("state_basis_counts", "tomography", "tomography.design_s", (tomography, pipeline)),
    ("ml_reconstruct_process", "tomography", "tomography.process_fit_s", (tomography, pipeline)),
    ("ml_reconstruct_state", "tomography", "tomography.state_fit_s", (tomography, pipeline)),
    ("merit_report", "metrics", "metrics.merit_s", (metrics, pipeline)),
    ("process_fidelity", "metrics", "metrics.merit_s", (metrics,)),
    ("run_pipeline", "pipeline", None, (pipeline,)),
    ("reconstruct_table", "pipeline", "pipeline.reconstruct_s", (pipeline,)),
    ("write_reconstruction", "pipeline", "pipeline.write_s", (pipeline,)),
    ("write_reports", "pipeline", "pipeline.write_s", (pipeline,)),
    ("collect_reports", "pipeline", "pipeline.collect_s", (pipeline,)),
    ("save_choi", "tomography", "pipeline.write_s", (pipeline,)),
    ("save_state", "tomography", "pipeline.write_s", (pipeline,)),
    ("load_choi", "tomography", "pipeline.collect_s", (pipeline,)),
    ("load_state", "tomography", "pipeline.collect_s", (pipeline,)),
)

LAYER_OF = {name: layer for name, layer, _, _ in TRACED}
METRIC_OF = {name: metric for name, _, metric, _ in TRACED}
METRIC_OF["op"] = None
LAYER_OF["op"] = "bench"
#: Spans whose result length is recorded: the number of tomography settings built.
SIZED = {"settings_for_phase"}


class Span(NamedTuple):
    """One call.  A tuple of plain values, which the cyclic GC stops tracking."""

    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = 0

    def install(self) -> None:
        for name, _, _, owners in TRACED:
            for owner in owners:
                raw = owner.__dict__[name]
                self._saved.append((owner, name, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(self._wrap(raw.__func__, name)))
                else:
                    setattr(owner, name, self._wrap(raw, name))

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != "op":
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                size = len(result) if sized and result is not None else 0
                spans[index] = Span(name, start, end, parent, self.op_id, size)

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside a root span of its own."""
        self.op_id = op_id
        return self._wrap(fn, "op")(*args)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def summarize(spans: list[Span]) -> dict:
    """Per-metric busy time, per-layer self time and call counts of one round.

    A metric's busy time sums the spans counted towards it that have no
    ancestor counted towards the same metric, so nested calls are not
    counted twice; ``entries`` counts those outermost spans.  A span's
    self time is its duration minus the time its direct children cover.
    """
    busy = defaultdict(float)
    entries = defaultdict(int)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    for i, s in enumerate(spans):
        calls[s.name] += 1
        sizes[s.name] += s.size
        self_time[LAYER_OF[s.name]] += s.duration - child_time[i]
        metric = METRIC_OF[s.name]
        if metric is not None and not _has_ancestor_with_metric(spans, s, metric):
            busy[metric] += s.duration
            entries[metric] += 1
    op_time = sum(s.duration for s in spans if s.name == "op")
    return {"busy": dict(busy), "entries": dict(entries), "self": dict(self_time), "calls": dict(calls),
            "sizes": dict(sizes), "op_s": op_time}


def _has_ancestor_with_metric(spans, span, metric) -> bool:
    parent = span.parent
    while parent is not None:
        if METRIC_OF[spans[parent].name] == metric:
            return True
        parent = spans[parent].parent
    return False


def fit_durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value.

    Below 20 samples that percentile would not lie above the median, so
    the maximum is returned as percentile 100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return 100.0, max(values)
    # Nearest rank: exactly ten samples lie above it.
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def write_spans(path, rounds: list[list[Span]]) -> None:
    """Write the spans of all rounds as gzip CSV, one row per span.

    Columns: round, index, op, name, layer, start_s, end_s, parent, where
    index and parent number the spans within their round and times are
    seconds since the first span of the run.
    """
    origin = min((s.start for spans in rounds for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", newline="") as f:
        f.write("round,index,op,name,layer,start_s,end_s,parent\n")
        for r, spans in enumerate(rounds):
            for i, s in enumerate(spans):
                parent = "" if s.parent is None else s.parent
                f.write(f"{r},{i},{s.op_id},{s.name},{LAYER_OF[s.name]},"
                        f"{s.start - origin:.9f},{s.end - origin:.9f},{parent}\n")

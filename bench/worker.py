"""One benchmark process: set up a workload, run its ops, report as JSON.

Started by ``run_bench.py`` with ``src/`` on ``PYTHONPATH`` and BLAS at
one thread.  The last line of standard output is one JSON object.

Modes:

* ``--setup-only``: import, build the inputs, report when the first op
  would start and the machine's speed then, exit.
* default: run rounds (every op of the workload once) untraced until the
  next round would end after ``--seconds``.
* ``--trace 1``: alternate untraced and traced rounds, and derive the
  per-layer metrics from the spans of the traced ones.
* ``--self-test``: show that the output checks reject corrupted outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import phasegate
from checks import gap_median_problems
from speedclock import SpeedClock, speed_scale
from tracing import Tracer, fit_durations, median, summarize, tail, write_spans
from workloads import WORKLOADS, fresh_workdir

#: Traced rounds kept in memory; staged_fine records ~30k spans a round.
MAX_TRACED_ROUNDS = 5
#: Where a traced run writes its spans, relative to the checkout (the working directory).
SPANS_DIR = ".bench_out"


@dataclass
class Round:
    """One pass over the workload's ops.  ``op_times`` are reference seconds
    (see :mod:`speedclock`), ``op_wall`` wall seconds."""

    traced: bool
    op_times: list[float] = field(default_factory=list)
    op_wall: list[float] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def time(self) -> float:
        return sum(self.op_times)

    @property
    def wall(self) -> float:
        return sum(self.op_wall)

    def total(self, key: str) -> int:
        if key.endswith("_max"):
            return max((c[key] for c in self.counts), default=0)
        return sum(c[key] for c in self.counts)


def run_round(workload, clock: SpeedClock, tracer: Tracer | None) -> Round:
    rnd = Round(traced=tracer is not None)
    audits = []
    for op_id, op in enumerate(workload.ops):
        start, ref_start = time.perf_counter(), clock.now()
        try:
            out = tracer.run_op(op_id, workload.run, op) if tracer else workload.run(op)
            failure = None
        except Exception as exc:
            failure = exc
        rnd.op_times.append(clock.now() - ref_start)
        rnd.op_wall.append(time.perf_counter() - start)
        if failure is not None:
            rnd.failed += 1
            rnd.problems.append(f"op {op}: {''.join(traceback.format_exception(failure))}")
            continue
        try:
            audit = workload.audit(op, out)
        except Exception:
            rnd.failed += 1
            rnd.problems.append(f"op {op}: check raised {traceback.format_exc()}")
            continue
        finally:
            del out
        audits.append(audit)
        rnd.counts.append(audit.counts)
        rnd.gaps += audit.gaps
        if audit.problems:
            rnd.failed += 1
            rnd.problems += [f"op {op}: {p}" for p in audit.problems]
    round_problems = workload.check_round(audits) + gap_median_problems(rnd.gaps)
    if round_problems:
        rnd.failed += 1
        rnd.problems += round_problems
    if tracer:
        rnd.spans = tracer.take()
    return rnd


def run_rounds(workload, seconds: float, trace: bool, clock: SpeedClock) -> list[Round]:
    """Repeat rounds until the next one is predicted to end after ``seconds`` of wall time.

    Untraced only, or alternating untraced and traced rounds (at least one
    of each) when ``trace`` is set.
    """
    tracer = Tracer(clock.now) if trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        if not trace:
            rounds.append(run_round(workload, clock, None))
        else:
            # Untraced-traced, then traced-untraced, so drift cancels in the overhead.
            order = (False, True) if len(rounds) % 4 == 0 else (True, False)
            for traced in order:
                rounds.append(_traced_round(workload, clock, tracer) if traced else run_round(workload, clock, None))
        step = sum(r.wall for r in rounds[-2:]) if trace else rounds[-1].wall
        n_traced = sum(r.traced for r in rounds)
        if time.perf_counter() - start + step > seconds or n_traced >= MAX_TRACED_ROUNDS:
            return rounds


def _traced_round(workload, clock: SpeedClock, tracer: Tracer) -> Round:
    tracer.install()
    try:
        return run_round(workload, clock, tracer)
    finally:
        tracer.restore()


def exact_count_problems(rounds: list[Round]) -> list[str]:
    """Every round ran the same inputs, so its counts must repeat exactly."""
    first = rounds[0].counts
    return [f"round {i} ({'traced' if r.traced else 'untraced'}): exact counts differ from round 0"
            for i, r in enumerate(rounds) if r.counts != first]


def end_to_end(rounds: list[Round]) -> dict:
    """Times in reference seconds, each distinct op at its median over the rounds.

    ``run_s`` is the sum over the ops, a typical round; ``op_p50_s`` the
    median over the ops.
    """
    per_op = [median(times) for times in zip(*(r.op_times for r in rounds))]
    return {
        "run_s": (sum(per_op), "s"),
        "op_p50_s": (median(per_op), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rounds: list[Round]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the self-time profile printed beside them."""
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    summaries = [summarize(r.spans) for r in traced]
    ref = plain[0]

    def busy(metric):
        return median(s["busy"].get(metric, 0.0) for s in summaries)

    def calls(*names):
        return median(sum(s["calls"].get(n, 0) for n in names) for s in summaries)

    def per_iter_us(fit_s, iters):
        return 1e6 * fit_s / iters if iters else 0.0

    process_fits = [d for r in traced for d in fit_durations(r.spans, "ml_reconstruct_process")]
    state_fits = [d for r in traced for d in fit_durations(r.spans, "ml_reconstruct_state")]
    fits = ref.total("process_fits") + ref.total("state_fits")
    pipeline_self = median(s["self"].get("pipeline", 0.0) for s in summaries)
    out = {
        "experiment.simulate_s": (busy("experiment.simulate_s"), "s"),
        "experiment.simulate_calls": (calls("simulate_counts"), "count"),
        "experiment.events": (ref.total("events"), "count"),
        "experiment.probability_s": (busy("experiment.probability_s"), "s"),
        "experiment.probability_calls": (calls("outcome_probabilities"), "count"),
        "experiment.select_rescale_s": (busy("experiment.select_rescale_s"), "s"),
        "experiment.csv_write_s": (busy("experiment.csv_write_s"), "s"),
        "experiment.csv_parse_s": (busy("experiment.csv_parse_s"), "s"),
        "experiment.csv_rows": (ref.total("csv_rows"), "count"),
        "experiment.csv_bytes": (ref.total("csv_bytes"), "bytes"),
        "tomography.design_s": (busy("tomography.design_s"), "s"),
        "tomography.design_settings": (median(s["sizes"].get("settings_for_phase", 0) for s in summaries), "count"),
        "tomography.process_fit_s": (busy("tomography.process_fit_s"), "s"),
        "tomography.process_fits": (ref.total("process_fits"), "count"),
        "tomography.process_iters": (ref.total("process_iters"), "count"),
        "tomography.process_iters_max": (ref.total("process_iters_max"), "count"),
        "tomography.process_us_per_iter": (per_iter_us(busy("tomography.process_fit_s"), ref.total("process_iters")), "us"),
        "tomography.process_fit_p50_s": (median(process_fits), "s"),
        "tomography.process_fit_tail_s": (tail(process_fits)[1], "s"),
        "tomography.state_fit_s": (busy("tomography.state_fit_s"), "s"),
        "tomography.state_fits": (ref.total("state_fits"), "count"),
        "tomography.state_iters": (ref.total("state_iters"), "count"),
        "tomography.state_iters_max": (ref.total("state_iters_max"), "count"),
        "tomography.state_us_per_iter": (per_iter_us(busy("tomography.state_fit_s"), ref.total("state_iters")), "us"),
        "tomography.state_fit_tail_s": (tail(state_fits)[1], "s"),
        "tomography.diluted_steps": (ref.total("diluted_steps"), "count"),
        "tomography.converged_ratio": (ref.total("converged") / fits if fits else 1.0, "1"),
        "tomography.gap_max_nats": (max(ref.gaps, default=0.0), "nats"),
        "tomography.gap_median_nats": (median(ref.gaps), "nats"),
        "metrics.merit_s": (busy("metrics.merit_s"), "s"),
        "metrics.reports": (median(s["entries"].get("metrics.merit_s", 0) for s in summaries), "count"),
        "pipeline.reconstruct_s": (busy("pipeline.reconstruct_s"), "s"),
        "pipeline.self_s": (pipeline_self, "s"),
        "pipeline.write_s": (busy("pipeline.write_s"), "s"),
        "pipeline.files_written": (ref.total("files_written"), "count"),
        "pipeline.bytes_written": (ref.total("bytes_written"), "bytes"),
        "pipeline.collect_s": (busy("pipeline.collect_s"), "s"),
        "pipeline.files_read": (calls("from_csv", "load_choi", "load_state"), "count"),
        "trace.overhead_s": (median(r.time for r in traced) - median(r.time for r in plain), "s"),
    }
    profile = {
        "op_s": median(s["op_s"] for s in summaries),
        "self_s": {layer: median(s["self"].get(layer, 0.0) for s in summaries)
                   for layer in ("experiment", "tomography", "metrics", "pipeline", "bench")},
        "process_fit_tail_percentile": tail(process_fits)[0],
        "state_fit_tail_percentile": tail(state_fits)[0],
        "fit_samples": {"process": len(process_fits), "state": len(state_fits)},
    }
    return out, profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import self_test
        return self_test()

    workdir = fresh_workdir(f"{args.workload}-")
    clock = SpeedClock()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.data_seed)
        ready = time.monotonic()
        setup_scale = speed_scale()
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        clock.start()
        try:
            rounds = run_rounds(workload, args.seconds, bool(args.trace), clock)
        finally:
            clock.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + exact_count_problems(rounds)
    result = {
        "ready": ready,
        "setup_scale": setup_scale,
        "slowdown": clock.slowdown(),
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "round_times": [(r.traced, r.time, r.wall) for r in rounds],
        "attempted": sum(len(r.op_times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": not problems,
        "problems": problems[:20],
        "round_counts": {k: rounds[0].total(k) for k in rounds[0].counts[0]} if rounds[0].counts else {},
        "dataset_seeds": list(workload.dataset_seeds),
        "versions": {"phasegate": phasegate.__version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    if args.trace:
        layers, profile = per_layer(rounds)
        result["metrics"] = layers
        result["profile"] = profile
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        write_spans(path, [r.spans for r in rounds if r.traced])
        result["spans_file"] = path
    else:
        result["metrics"] = end_to_end(rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

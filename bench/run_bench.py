#!/usr/bin/env python3
"""Benchmark of the phasegate pipeline: end-to-end and per-layer metrics.

Run from a checkout of the repository (the package is imported from its
``src/``, not from an installed copy):

    python3 bench/run_bench.py --workload ideal16k --seed 0 --seconds 36 --trace 0
    python3 bench/run_bench.py --workload seed_sweep --seed 0 --seconds 36 --trace 1
    python3 bench/run_bench.py --all --seed 0 --seconds 36
    python3 bench/run_bench.py --self-test

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``run_s``, ``op_p50_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of a separate traced run.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--all`` runs every workload, untraced and traced, and prints only the
human-readable lines.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedclock import speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ideal16k", "seed_sweep", "staged_fine")
#: Extra processes that only set up, so setup_s is a median.
SETUP_PROBES = 14
#: A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """One BLAS thread (4x4 and 2x2 matrices gain nothing from more) and ``src/`` first on the path."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON result and setup time.

    ``setup_s`` runs from just before the process is started to the
    moment the worker is ready for its first op; both ends read
    CLOCK_MONOTONIC, which all processes on the machine share.  It is
    scaled to reference seconds with the mean of the speeds measured
    right before (here) and right after (in the worker); see
    ``speedclock.py``.
    """
    scale_before = speed_scale()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {args} printed no result:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from exc
    result["setup_s"] = (result["ready"] - spawned) * (scale_before + result["setup_scale"]) / 2
    return result


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, result: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": args.data_seed,
        "dataset_seeds": result["dataset_seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def run_one(args, deadline: float) -> tuple[dict, dict]:
    """Run one workload; return the contract result and the full record."""
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    if args.data_seed is not None:
        worker_args += ["--data-seed", str(args.data_seed)]
    if args.trace:
        result = run_worker(worker_args, deadline)
        metrics = result["metrics"]
    else:
        setups = [run_worker(worker_args + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = run_worker(worker_args, deadline)
        setups.append(result["setup_s"])
        metrics = {"setup_s": (statistics.median(setups), "s"), **result["metrics"]}
        result["setup_samples"] = setups
    contract = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return contract, {**result, "provenance": provenance(args, result)}


def print_human(args, contract: dict, record: dict) -> None:
    attempted, failed = contract["attempted"], contract["failed"]
    print(f"== {args.workload} seed={args.seed} trace={args.trace}: {record['rounds']} rounds, "
          f"{attempted} ops, correct={contract['correct']}")
    for name, m in contract["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'op_p50_s samples':34s} {attempted} count")
        print(f"{'fail_ratio':34s} {failed / attempted:.6g} 1")
    else:
        prof = record["profile"]
        op = prof["op_s"]
        shares = ", ".join(f"{layer} {100 * t / op:.1f}%" for layer, t in prof["self_s"].items()) if op else ""
        print(f"{'self time per op (traced)':34s} {op:.6g} s: {shares}")
        print(f"{'fit tail percentiles':34s} process p{prof['process_fit_tail_percentile']:.1f}, "
              f"state p{prof['state_fit_tail_percentile']:.1f} of {prof['fit_samples']}")
        if record.get("spans_file"):
            print(f"{'spans':34s} {record['spans_file']}")
    times = " ".join(f"{t:.3f}{'T' if traced else ''}" for traced, t, _ in record["round_times"])
    walls = " ".join(f"{w:.3f}{'T' if traced else ''}" for traced, _, w in record["round_times"])
    print(f"{'round times (T = traced)':34s} {times} s")
    print(f"{'round wall times':34s} {walls} s, machine slowdown {record['slowdown']:.3f}")
    for problem in record["problems"]:
        print(f"problem: {problem.rstrip()}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"exact counts per round {json.dumps(record['round_counts'], sort_keys=True)}")


def pin_to_one_cpu() -> None:
    """Keep launcher and workers on one core, the core whose speed the workers measure.

    The vCPUs of the VM slow down independently of each other, so a
    worker that moved between them would be timed on one core and
    scaled with the speed of the other.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasegate pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="dataset seed of ideal16k and staged_fine, dataset block of seed_sweep "
                             "(default: criterion 1's seed, --seed, criterion 3's block)")
    parser.add_argument("--self-test", action="store_true", help="show that the checks reject corrupted outputs")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "phasegate" / "__init__.py").is_file():
        print(f"error: no phasegate sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1 or (args.data_seed is not None and args.data_seed < 0):
        parser.error("--seed and --data-seed must be >= 0 and --seconds >= 1")
    if args.self_test:
        proc = subprocess.run([sys.executable, str(WORKER), "--self-test"], cwd=ROOT, env=worker_env(),
                              timeout=RUN_LIMIT_S)
        return proc.returncode
    if not args.all and args.workload is None:
        parser.error("give --workload, --all or --self-test")
    pin_to_one_cpu()

    try:
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
                    contract, record = run_one(one, time.monotonic() + RUN_LIMIT_S)
                    print_human(one, contract, record)
                    ok = ok and contract["correct"] and contract["failed"] == 0
            return 0 if ok else 1
        contract, record = run_one(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_human(args, contract, record)
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())

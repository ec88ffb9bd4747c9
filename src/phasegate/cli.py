"""Command-line batch front end.

Four subcommands cover the pipeline and its stages:

* ``simulate``     write a synthetic coincidence CSV
* ``reconstruct``  tomography on a counts CSV (ours or external)
* ``report``       merit tables from previously written choi/state files
* ``pipeline``     all of the above in one deterministic run

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 numerical failure (non-convergence).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import EMIT_CHOICES, RunConfig, load_run_config
from .errors import ConfigError, ConvergenceError, DataFormatError
from .experiment import CountTable, simulate_counts
from .metrics import format_merit_table
from .pipeline import (
    collect_reports,
    reconstruct_table,
    run_pipeline,
    variant_tag,
    write_counts,
    write_pipeline_artifacts,
    write_reconstruction,
    write_reports,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _emit_list(value: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in value.split(",") if part.strip())
    if not items:
        raise argparse.ArgumentTypeError("emit list is empty")
    return items


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON run configuration")
    p.add_argument("--seed", type=int, help="simulation seed (overrides config)")
    p.add_argument("--no-feed-forward", action="store_true",
                   help="analyze only the uncorrected D_p0 branch")
    p.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    p.add_argument("--emit", type=_emit_list, metavar="LIST",
                   help=f"comma-separated subset of {','.join(EMIT_CHOICES)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegate",
        description="Programmable phase gate: coincidence simulation, process tomography, merit reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a coincidence-count CSV")
    _add_common_flags(p_sim)

    p_rec = sub.add_parser("reconstruct", help="ML tomography from a counts CSV")
    p_rec.add_argument("counts", metavar="COUNTS_CSV", help="count table to reconstruct from")
    _add_common_flags(p_rec)

    p_rep = sub.add_parser("report", help="merit tables from reconstructed files")
    _add_common_flags(p_rep)

    p_pipe = sub.add_parser("pipeline", help="simulate, reconstruct and report in one run")
    _add_common_flags(p_pipe)
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.no_feed_forward:
        cfg = cfg.replace(feed_forward=False)
    if args.out is not None:
        cfg = cfg.replace(output_dir=args.out)
    if args.emit is not None:
        cfg = cfg.replace(emit=args.emit)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    table = simulate_counts(cfg.plan, cfg.noise, cfg.require_seed())
    path = write_counts(table, cfg.output_dir)
    n_rows = table.counts.size
    print(f"wrote {path} ({n_rows} records, {table.total():.0f} coincidences)")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    cfg = _config_from_args(args)
    table = CountTable.from_csv(args.counts)
    rs = reconstruct_table(table, cfg.noise, cfg.feed_forward)
    written = write_reconstruction(rs, cfg.output_dir, emit=cfg.emit)
    tag = variant_tag(rs.feed_forward)
    iters = [p.iterations for p in rs.processes]
    gap = max(p.certified_gap for p in rs.processes)
    print(
        f"reconstructed {len(rs.phases)} phase(s) [{tag}]: "
        f"success probability {rs.success_probability:.4f}, "
        f"iterations {min(iters)}-{max(iters)}, certified gap <= {gap:.2g} nats, wrote {len(written)} file(s)"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _config_from_args(args)
    reports, warnings = collect_reports(cfg.output_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_reports(reports, cfg.output_dir)
    print(format_merit_table(reports), end="")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    result = run_pipeline(cfg)
    write_pipeline_artifacts(cfg, result)
    print(format_merit_table(result.reports), end="")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reconstruct": _cmd_reconstruct,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

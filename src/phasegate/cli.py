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
import dataclasses
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


#: Every option flag with its argparse settings; each subcommand takes the ones :data:`_COMMANDS` lists.
_FLAGS = {
    "--config": dict(metavar="PATH", help="JSON run configuration"),
    "--seed": dict(type=int, help="simulation seed (overrides config)"),
    "--no-feed-forward": dict(action="store_true", help="analyze only the uncorrected D_p0 branch"),
    "--out": dict(dest="output_dir", metavar="DIR", help="output directory (default from config)"),
    "--emit": dict(type=_emit_list, metavar="LIST", help=f"comma-separated subset of {','.join(EMIT_CHOICES)}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegate",
        description="Programmable phase gate: coincidence simulation, process tomography, merit reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if command == "reconstruct":
            p.add_argument("counts", metavar="COUNTS_CSV", help="count table to reconstruct from")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _config_from_args(args) -> RunConfig:
    """The config file's run configuration, overridden by the flags this subcommand takes."""
    opts = vars(args)
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if opts.get("no_feed_forward"):
        cfg = dataclasses.replace(cfg, feed_forward=False)
    for field in ("seed", "output_dir", "emit"):
        if opts.get(field) is not None:
            cfg = dataclasses.replace(cfg, **{field: opts[field]})
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


#: Each subcommand's handler, help line and the option flags it reads.
_COMMANDS = {
    "simulate": (_cmd_simulate, "generate a coincidence-count CSV", ("--config", "--seed", "--out")),
    "reconstruct": (_cmd_reconstruct, "ML tomography from a counts CSV",
                    ("--config", "--no-feed-forward", "--out", "--emit")),
    "report": (_cmd_report, "merit tables from reconstructed files", ("--config", "--out")),
    "pipeline": (_cmd_pipeline, "simulate, reconstruct and report in one run", tuple(_FLAGS)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
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

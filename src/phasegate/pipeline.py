"""Batch pipeline: simulate, select, rescale, reconstruct, score, emit files.

Stages hand off through files so that externally measured count tables
can enter at the reconstruction step.  On-disk layout in the output
directory (``ff``/``noff`` tags the analysis with and without feed
forward, ``pNN`` is the phase index in plan order):

* ``counts.csv``                    raw simulated coincidences
* ``choi_<tag>_pNN.txt``            reconstructed Choi matrix per phase
* ``state_<tag>_pNN_<label>.txt``   output density matrix per input state
* ``report.csv``, ``report.txt``    merit table, machine and human form

All writes go through an exclusively created temp file, whose mode
comes from the umask as for a plain ``open()``, and an atomic rename;
every file is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError, ConvergenceError, DataFormatError
from .experiment import (
    CountTable,
    NoiseConfig,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
    usable_fraction,
)
from .metrics import MeritReport, format_merit_table, merit_report, merit_reports, write_merit_csv
from .states import BASIS_LABELS, STATE_LABELS
from .tomography import (
    GAP_TOL,
    ProcessReconstruction,
    StateReconstruction,
    load_choi,
    load_state,
    ml_reconstruct_phases,
    ml_reconstruct_states,
    save_choi,
    save_state,
    state_counts,
)
# The one-fit entries, which the pipeline does not call, are also reached from here.
from .tomography import ml_reconstruct_process, ml_reconstruct_state, settings_for_phase  # noqa: F401
from .tomography import state_basis_counts  # noqa: F401

#: File-name-safe aliases for the state labels (and back).
STATE_FILE_LABELS = {"0": "0", "1": "1", "+": "plus", "-": "minus", "+i": "plusi", "-i": "minusi"}
_FILE_STATE_LABELS = {v: k for k, v in STATE_FILE_LABELS.items()}

_CHOI_FILE_RE = re.compile(r"^choi_(ff|noff)_p(\d+)\.txt$")
_STATE_FILE_RE = re.compile(r"^state_(ff|noff)_p(\d+)_(0|1|plus|minus|plusi|minusi)\.txt$")


def variant_tag(feed_forward: bool) -> str:
    return "ff" if feed_forward else "noff"


@dataclass
class ReconstructionSet:
    """Everything reconstructed from one count table under one analysis."""

    feed_forward: bool
    phases: tuple[float, ...]
    input_states: tuple[str, ...]
    processes: list[ProcessReconstruction]
    #: indexed [phase][input_state], parallel to ``phases``/``input_states``
    output_states: list[list[StateReconstruction]]
    success_probability: float


@dataclass
class PipelineResult:
    counts: CountTable
    reconstructions: list[ReconstructionSet]
    reports: list[MeritReport]


def reconstruct_table(table: CountTable, noise: NoiseConfig, feed_forward: bool) -> ReconstructionSet:
    """Full tomography pass over one count table: the one-analysis case of :func:`reconstruct_analyses`."""
    return reconstruct_analyses(table, noise, (feed_forward,))[0]


def reconstruct_analyses(table: CountTable, noise: NoiseConfig, variants) -> list[ReconstructionSet]:
    """Full tomography pass over one count table, once per analysis in ``variants`` (with feed forward or not).

    Without feed forward the D_p1 branch is discarded first; either way counts are efficiency-rescaled before
    entering the likelihood.  A usable fraction above 1 raises :class:`ConfigError` and an empty phase
    :class:`DataFormatError`, before any fit.  The process fits of all analyses run as one batch, and so do their
    state fits; the first analysis with an uncertified phase raises ConvergenceError.
    """
    if missing_bases := [b for b in BASIS_LABELS if b not in table.bases]:
        raise DataFormatError(f"incomplete design: missing measurement bases {missing_bases}")
    rescaled = [rescale_efficiencies(table if ff else select_without_feedforward(table), noise) for ff in variants]
    success = [usable_fraction(analyzed, noise) for analyzed in rescaled]
    if (most := max(success)) > 1.0:
        raise ConfigError(f"usable fraction {most:.6g} is above 1: after division by the efficiencies eta_*, "
                          "the table holds more events than pair_rate * interval_s pairs per setting and interval")
    per_state = [state_counts(t) for t in rescaled]
    for ff, counts in zip(variants, per_state):
        if not (totals := counts.sum(axis=(1, 2, 3))).all():  # counts are non-negative: argmin is the first 0
            raise DataFormatError(f"phase index {totals.argmin()} holds no counts in the analysis "
                                  f"{'with' if ff else 'without'} feed forward; nothing to reconstruct")
    fits = ml_reconstruct_phases(*rescaled)
    for processes in fits:
        if uncertified := [f"phase index {pi} stopped uncertified ({proc.stop_reason}) after {proc.iterations} "
                           f"iterations: certified gap {proc.certified_gap:.3g} nats > {GAP_TOL:g}"
                           for pi, proc in enumerate(processes) if not proc.converged]:
            raise ConvergenceError("process reconstruction at " + "; ".join(uncertified))
    fitted = iter(ml_reconstruct_states(np.concatenate(per_state).reshape(-1, len(BASIS_LABELS), 2)))
    return [ReconstructionSet(ff, table.phases, table.input_states, processes,
                              [[next(fitted) for _ in table.input_states] for _ in table.phases], fraction)
            for ff, processes, fraction in zip(variants, fits, success)]


def reports_from_reconstruction(rs: ReconstructionSet) -> list[MeritReport]:
    """Merit rows of a reconstruction; output states are matched to the inputs by label."""
    if sorted(rs.input_states) != sorted(STATE_LABELS):
        raise DataFormatError(f"merit report needs the full six-state input design, got {rs.input_states}")
    order = [rs.input_states.index(label) for label in STATE_LABELS]
    rhos = [[states[si].rho for si in order] for states in rs.output_states]
    return merit_reports([p.choi for p in rs.processes], rhos, rs.phases, rs.feed_forward, rs.success_probability)


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Simulate once, then reconstruct and score each requested analysis.

    By default both analyses run on the same dataset (the comparison is
    the point of the exercise), and are reconstructed in one pass; with
    ``feed_forward=False`` only the post-selected D_p0 analysis runs.
    """
    table = simulate_counts(cfg.plan, cfg.noise, cfg.require_seed())
    recon_sets = reconstruct_analyses(table, cfg.noise, [True, False] if cfg.feed_forward else [False])
    reports = [row for rs in recon_sets for row in reports_from_reconstruction(rs)]
    return PipelineResult(table, recon_sets, reports)


def _atomic(path: str, write_fn, *args, **kwargs) -> str:
    """Have ``write_fn(tmp, *args, **kwargs)`` write a temp file beside ``path``, then rename it into place.

    The temp file is created exclusively under a random name, so runs
    sharing a directory cannot collide, with the mode a plain ``open()``
    gives (0o666 less the umask).  It is removed if ``write_fn`` fails.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write_fn(tmp, *args, **kwargs)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def write_counts(table: CountTable, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return _atomic(os.path.join(out_dir, "counts.csv"), table.to_csv)


def write_reconstruction(rs: ReconstructionSet, out_dir: str, emit=("choi", "states")) -> list[str]:
    """Emit per-phase Choi files and per-(phase, state) density matrices."""
    os.makedirs(out_dir, exist_ok=True)
    tag = variant_tag(rs.feed_forward)
    written = []
    ff = int(rs.feed_forward)
    for pi, phi in enumerate(rs.phases):
        proc = rs.processes[pi]
        if "choi" in emit:
            path = os.path.join(out_dir, f"choi_{tag}_p{pi:02d}.txt")
            written.append(_atomic(path, save_choi, proc.choi, phi, proc.iterations, proc.log_likelihood,
                                   feed_forward=ff, success_probability=f"{rs.success_probability:.9g}"))
        if "states" in emit:
            for si, label in enumerate(rs.input_states):
                path = os.path.join(out_dir, f"state_{tag}_p{pi:02d}_{STATE_FILE_LABELS[label]}.txt")
                written.append(_atomic(path, save_state, rs.output_states[pi][si].rho, phi, label, feed_forward=ff))
    return written


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def write_reports(reports, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    return [
        _atomic(os.path.join(out_dir, "report.csv"), write_merit_csv, reports),
        _atomic(os.path.join(out_dir, "report.txt"), _write_text, format_merit_table(reports)),
    ]


def write_pipeline_artifacts(cfg: RunConfig, result: PipelineResult) -> list[str]:
    written = []
    if "counts" in cfg.emit:
        written.append(write_counts(result.counts, cfg.output_dir))
    for rs in result.reconstructions:
        written.extend(write_reconstruction(rs, cfg.output_dir, emit=cfg.emit))
    if "report" in cfg.emit:
        written.extend(write_reports(result.reports, cfg.output_dir))
    return written


def _meta_number(path, meta, key: str) -> float:
    """A finite number from file metadata; the key must be present."""
    if key not in meta:
        raise DataFormatError(f"{path}: missing metadata key {key!r}")
    raw = meta[key]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: metadata {key} must be a finite number, got {raw!r}")
    return value


def _require_variant(path, meta, feed_forward: bool) -> None:
    """A file's ``feed_forward`` metadata must be its name's tag: 1 for ``ff``, 0 for ``noff``."""
    if _meta_number(path, meta, "feed_forward") != feed_forward:
        raise DataFormatError(f"{path}: feed_forward {meta['feed_forward']} does not match the file name")


def collect_reports(out_dir: str):
    """Rebuild merit rows from the choi/state files in a directory.

    Returns ``(reports, warnings)``, the feed-forward rows first and each
    analysis in phase-index order, as :func:`run_pipeline` lists them.
    Groups files by (variant, phase index); every group needs its Choi
    matrix and all six output states.  Two names of one file, such as
    ``p0`` beside ``p00``, raise :class:`DataFormatError` naming both.
    Each matrix is checked as it loads (Hermitian, PSD, trace), so a
    non-physical file raises :class:`DataFormatError` naming it.
    Success probabilities come from ``success_probability`` in each Choi
    file.  Missing or non-numeric metadata, a file whose ``feed_forward``
    or a state file whose ``input_state`` is not the one its name says, a
    state file whose phase is not its Choi file's modulo 2*pi, or a merit
    figure outside [0, 1], raises :class:`DataFormatError` naming the file.
    """
    if not os.path.isdir(out_dir):
        raise DataFormatError(f"not a directory: {out_dir}")
    files = {}  # (feed forward, phase index) names a Choi file, and with a state label a state file
    for name in sorted(os.listdir(out_dir)):
        if m := _CHOI_FILE_RE.match(name) or _STATE_FILE_RE.match(name):
            key = (m.group(1) == "ff", int(m.group(2)), *map(_FILE_STATE_LABELS.get, m.groups()[2:]))
            if key in files:
                what = f"{m.group(1)} phase index {key[1]}" + "".join(f" input state {s}" for s in key[2:])
                raise DataFormatError(f"{files[key]} and {os.path.join(out_dir, name)} both name {what}")
            files[key] = os.path.join(out_dir, name)
    choi_keys = sorted((key for key in files if len(key) == 2), key=lambda key: (not key[0], key[1]))  # ff first
    if not choi_keys:
        raise DataFormatError(f"no choi_*.txt files found in {out_dir}")
    reports, warnings = [], []
    for ff, pi in choi_keys:
        choi_path = files[ff, pi]
        chi, meta = load_choi(choi_path)
        _require_variant(choi_path, meta, ff)
        phi = _meta_number(choi_path, meta, "phase")
        missing = [s for s in STATE_LABELS if (ff, pi, s) not in files]
        if missing:
            raise DataFormatError(f"{choi_path}: missing output-state files for {missing}")
        rhos = []
        for label in STATE_LABELS:
            path = files[ff, pi, label]
            rho, smeta = load_state(path)
            _require_variant(path, smeta, ff)
            if abs(math.remainder(_meta_number(path, smeta, "phase") - phi, math.tau)) > 1e-9:
                raise DataFormatError(f"{path}: phase does not match {choi_path}")
            if smeta["input_state"] != label:
                raise DataFormatError(f"{path}: input_state {smeta['input_state']!r} does not match the file name")
            rhos.append(rho)
        success = _meta_number(choi_path, meta, "success_probability")
        try:
            reports.append(merit_report(chi, rhos, phi, ff, success))
        except ValueError as exc:
            raise DataFormatError(f"{choi_path}: {exc}") from exc
    phases_ff = {r.phi for r in reports if r.feed_forward_active}
    phases_noff = {r.phi for r in reports if not r.feed_forward_active}
    if phases_ff and phases_noff and phases_ff != phases_noff:
        warnings.append(
            "phase sets differ between feed-forward variants; "
            f"comparison restricted to {len(phases_ff & phases_noff)} common phase(s)"
        )
    return reports, warnings

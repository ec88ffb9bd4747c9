"""Batch pipeline: simulate, select, rescale, reconstruct, score, emit files.

Stages hand off through files so that externally measured count tables
can enter at the reconstruction step.  On-disk layout in the output
directory (``ff``/``noff`` tags the analysis with and without feed
forward, ``pNN`` is the phase index in plan order):

* ``counts.csv``                    raw simulated coincidences
* ``choi_<tag>_pNN.txt``            reconstructed Choi matrix per phase
* ``state_<tag>_pNN_<label>.txt``   output density matrix per input state
* ``report.csv``, ``report.txt``    merit table, machine and human form

All writes go through a temp file and an atomic rename, and every file
is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass

from .config import RunConfig
from .errors import ConvergenceError, DataFormatError
from .experiment import (
    CountTable,
    NoiseConfig,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
    usable_fraction,
)
from .metrics import MeritReport, format_merit_table, merit_report, write_merit_csv
from .states import BASIS_LABELS, STATE_LABELS
from .tomography import (
    ProcessReconstruction,
    StateReconstruction,
    load_choi,
    load_state,
    ml_reconstruct_process,
    ml_reconstruct_state,
    save_choi,
    save_state,
    settings_for_phase,
    state_basis_counts,
)

#: File-name-safe aliases for the state labels (and back).
STATE_FILE_LABELS = {"0": "0", "1": "1", "+": "plus", "-": "minus", "+i": "plusi", "-i": "minusi"}
_FILE_STATE_LABELS = {v: k for k, v in STATE_FILE_LABELS.items()}

_CHOI_FILE_RE = re.compile(r"^choi_(ff|noff)_p(\d+)\.txt$")
_STATE_FILE_RE = re.compile(r"^state_(ff|noff)_p(\d+)_(0|1|plus|minus|plusi|minusi)\.txt$")

#: Nominal success probabilities, used only when a file lacks the measured value.
NOMINAL_SUCCESS = {True: 0.5, False: 0.25}


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
    """Full tomography pass over one count table.

    Without feed forward the D_p1 branch is discarded first; either way
    counts are efficiency-rescaled before entering the likelihood.
    """
    missing_bases = [b for b in BASIS_LABELS if b not in table.bases]
    if missing_bases:
        raise DataFormatError(f"incomplete design: missing measurement bases {missing_bases}")
    analyzed = table if feed_forward else select_without_feedforward(table)
    rescaled = rescale_efficiencies(analyzed, noise)
    success = usable_fraction(rescaled, noise)
    processes = []
    output_states = []
    for pi in range(len(table.phases)):
        proc = ml_reconstruct_process(settings_for_phase(rescaled, pi))
        if not proc.converged:
            raise ConvergenceError(
                f"process reconstruction at phase index {pi} did not converge in {proc.iterations} iterations"
            )
        processes.append(proc)
        output_states.append(
            [ml_reconstruct_state(state_basis_counts(rescaled, pi, si)) for si in range(len(table.input_states))]
        )
    return ReconstructionSet(feed_forward, table.phases, table.input_states, processes, output_states, success)


def reports_from_reconstruction(rs: ReconstructionSet) -> list[MeritReport]:
    if tuple(rs.input_states) != STATE_LABELS:
        raise DataFormatError(f"merit report needs the full six-state input design, got {rs.input_states}")
    return [
        merit_report(
            rs.processes[pi].choi,
            [r.rho for r in rs.output_states[pi]],
            phi,
            rs.feed_forward,
            rs.success_probability,
        )
        for pi, phi in enumerate(rs.phases)
    ]


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Simulate once, then reconstruct and score each requested analysis.

    By default both analyses run on the same dataset (the comparison is
    the point of the exercise); with ``feed_forward=False`` only the
    post-selected D_p0 analysis runs.
    """
    table = simulate_counts(cfg.plan, cfg.noise, cfg.require_seed())
    variants = [True, False] if cfg.feed_forward else [False]
    recon_sets = [reconstruct_table(table, cfg.noise, ff) for ff in variants]
    reports = [row for rs in recon_sets for row in reports_from_reconstruction(rs)]
    return PipelineResult(table, recon_sets, reports)


def _atomic(path: str, write_fn) -> str:
    """Have ``write_fn`` write a private temp file beside ``path``, then rename it into place.

    The temp name is unique, so runs sharing a directory cannot collide,
    and it is removed if ``write_fn`` fails.
    """
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    os.close(fd)
    try:
        # mkstemp creates the file owner-only; give it the mode a plain open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        write_fn(tmp)
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
    for pi, phi in enumerate(rs.phases):
        proc = rs.processes[pi]
        if "choi" in emit:
            path = os.path.join(out_dir, f"choi_{tag}_p{pi:02d}.txt")
            written.append(
                _atomic(
                    path,
                    lambda p, proc=proc, phi=phi: save_choi(
                        p,
                        proc.choi,
                        phi,
                        proc.iterations,
                        proc.log_likelihood,
                        feed_forward=int(rs.feed_forward),
                        success_probability=f"{rs.success_probability:.9g}",
                    ),
                )
            )
        if "states" in emit:
            for si, label in enumerate(rs.input_states):
                sres = rs.output_states[pi][si]
                path = os.path.join(out_dir, f"state_{tag}_p{pi:02d}_{STATE_FILE_LABELS[label]}.txt")
                written.append(
                    _atomic(
                        path,
                        lambda p, sres=sres, phi=phi, label=label: save_state(
                            p, sres.rho, phi, label, feed_forward=int(rs.feed_forward)
                        ),
                    )
                )
    return written


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def write_reports(reports, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = _atomic(os.path.join(out_dir, "report.csv"), lambda p: write_merit_csv(p, reports))
    text = format_merit_table(reports)
    txt_path = _atomic(os.path.join(out_dir, "report.txt"), lambda p: _write_text(p, text))
    return [csv_path, txt_path]


def write_pipeline_artifacts(cfg: RunConfig, result: PipelineResult) -> list[str]:
    written = []
    if "counts" in cfg.emit:
        written.append(write_counts(result.counts, cfg.output_dir))
    for rs in result.reconstructions:
        written.extend(write_reconstruction(rs, cfg.output_dir, emit=cfg.emit))
    if "report" in cfg.emit:
        written.extend(write_reports(result.reports, cfg.output_dir))
    return written


def collect_reports(out_dir: str):
    """Rebuild merit rows from the choi/state files in a directory.

    Returns ``(reports, warnings)``.  Groups files by (variant, phase
    index); every group needs its Choi matrix and all six output states.
    Success probabilities come from file metadata when present, else the
    nominal 1/2 or 1/4.
    """
    if not os.path.isdir(out_dir):
        raise DataFormatError(f"not a directory: {out_dir}")
    choi_files = {}
    state_files = {}
    for name in sorted(os.listdir(out_dir)):
        m = _CHOI_FILE_RE.match(name)
        if m:
            choi_files[(m.group(1) == "ff", int(m.group(2)))] = os.path.join(out_dir, name)
            continue
        m = _STATE_FILE_RE.match(name)
        if m:
            key = (m.group(1) == "ff", int(m.group(2)))
            state_files.setdefault(key, {})[_FILE_STATE_LABELS[m.group(3)]] = os.path.join(out_dir, name)
    if not choi_files:
        raise DataFormatError(f"no choi_*.txt files found in {out_dir}")
    reports = []
    warnings = []
    for (ff, pi), choi_path in sorted(choi_files.items()):
        chi, meta = load_choi(choi_path)
        phi = float(meta["phase"])
        states_here = state_files.get((ff, pi), {})
        missing = [s for s in STATE_LABELS if s not in states_here]
        if missing:
            raise DataFormatError(f"{choi_path}: missing output-state files for {missing}")
        rhos = []
        for label in STATE_LABELS:
            rho, smeta = load_state(states_here[label])
            if abs(float(smeta["phase"]) - phi) > 1e-9:
                raise DataFormatError(f"{states_here[label]}: phase does not match {choi_path}")
            rhos.append(rho)
        success = float(meta.get("success_probability", NOMINAL_SUCCESS[ff]))
        reports.append(merit_report(chi, rhos, phi, ff, success))
    phases_ff = {r.phi for r in reports if r.feed_forward_active}
    phases_noff = {r.phi for r in reports if not r.feed_forward_active}
    if phases_ff and phases_noff and phases_ff != phases_noff:
        warnings.append(
            "phase sets differ between feed-forward variants; "
            f"comparison restricted to {len(phases_ff & phases_noff)} common phase(s)"
        )
    return reports, warnings

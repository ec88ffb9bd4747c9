"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one op per
input, and audits every op's outputs (see :mod:`checks`).  Ops call the
package through module attributes (``pipeline.run_pipeline``), the names
a tracer replaces.

* ``ideal16k``: acceptance criterion 1 in memory; bound by the RrhoR
  iterations of 14 process and 84 state fits.
* ``seed_sweep``: criterion 3 style statistics over 20 calibrated
  datasets; simulation, design build and 280 small process fits.
* ``staged_fine``: the staged file path of the CLI on a calibrated
  dataset split into 20x as many records; simulation and I/O bound.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from checks import Audit, check_staged_files
from phasegate import experiment, metrics, pipeline, tomography
from phasegate.config import RunConfig
from phasegate.experiment import ExperimentPlan, calibrated_noise, ideal_noise

#: Criterion 1 fixes its dataset seed.  Its RrhoR work depends strongly on
#: the dataset (6.9-13.8 s over seeds 1-6), so ideal16k keeps that seed
#: unless a data seed is given.
CRITERION_1_SEED = 1
#: Criterion 3 draws 20 datasets from seed 100 on.  The RrhoR work of a
#: block of 20 also depends on the block (46k-73k process iterations over
#: twelve blocks), so seed_sweep keeps criterion 3's block unless a data
#: seed is given; data seed ``d`` takes the block from ``100 + 20 d``.
SWEEP_FIRST_SEED = 100
SWEEP_SIZE = 20
#: Criterion 1: every process fidelity of the noiseless run.
IDEAL_MIN_F_CHI = 0.999
#: Criterion 4: calibrated-noise process fidelity band, with feed forward.
CALIBRATED_F_CHI_BAND = (0.96, 0.99)
#: Criterion 3: per-phase median |F_chi(ff) - F_chi(noff)| over the seeds.
NEUTRALITY_BOUND = 0.01


def fresh_workdir(prefix: str) -> str:
    """A new directory under ``.bench_tmp/`` of the checkout; the caller removes it."""
    tmp_root = os.path.join(os.getcwd(), ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=tmp_root)


class Ideal16k:
    name = "ideal16k"

    def __init__(self, seed: int, workdir: str, data_seed: int | None = None):
        dataset = CRITERION_1_SEED if data_seed is None else data_seed
        self.config = RunConfig(noise=ideal_noise(pair_rate=16000.0), seed=dataset)
        self.ops = [self.config]
        self.dataset_seeds = [dataset]

    def run(self, cfg):
        return pipeline.run_pipeline(cfg)

    def audit(self, cfg, result) -> Audit:
        audit = Audit()
        audit.counts["events"] = int(result.counts.total())
        for rs in result.reconstructions:
            audit.reconstruction_set(rs, result.counts, cfg.noise)
        audit.require(len(result.reports) == 14, f"expected 14 reports, got {len(result.reports)}")
        check_min_fidelity(audit, [r.F_chi for r in result.reports])
        return audit

    def check_round(self, audits) -> list[str]:
        return []


def check_min_fidelity(audit: Audit, f_chi) -> None:
    worst = min(f_chi)
    audit.require(worst >= IDEAL_MIN_F_CHI, f"min F_chi {worst:.6f} < {IDEAL_MIN_F_CHI}")


class SeedSweep:
    name = "seed_sweep"

    def __init__(self, seed: int, workdir: str, data_seed: int | None = None):
        self.plan = ExperimentPlan()
        self.noise = calibrated_noise()
        first = SWEEP_FIRST_SEED + SWEEP_SIZE * (data_seed or 0)
        self.ops = list(range(first, first + SWEEP_SIZE))
        self.dataset_seeds = self.ops

    def run(self, seed: int):
        table = experiment.simulate_counts(self.plan, self.noise, seed)
        fits = {}
        for ff in (True, False):
            analyzed = table if ff else experiment.select_without_feedforward(table)
            rescaled = experiment.rescale_efficiencies(analyzed, self.noise)
            rows = []
            for pi, phi in enumerate(rescaled.phases):
                settings = tomography.settings_for_phase(rescaled, pi)
                rec = tomography.ml_reconstruct_process(settings)
                rows.append((settings, rec, metrics.process_fidelity(rec.choi, metrics.ideal_choi(phi))))
            fits[ff] = rows
        return table, fits

    def audit(self, seed: int, output) -> Audit:
        table, fits = output
        audit = Audit()
        audit.counts["events"] = int(table.total())
        for ff, rows in fits.items():
            for pi, (settings, rec, _) in enumerate(rows):
                audit.process_fit(rec, settings, f"seed {seed} {'ff' if ff else 'noff'} process p{pi}")
        audit.fidelities = {ff: [f for _, _, f in rows] for ff, rows in fits.items()}
        check_fidelity_band(audit, audit.fidelities[True])
        return audit

    def check_round(self, audits) -> list[str]:
        pairs = [(a.fidelities[True], a.fidelities[False]) for a in audits if a.fidelities]
        return neutrality_problems(pairs)


def check_fidelity_band(audit: Audit, f_chi_ff) -> None:
    lo, hi = CALIBRATED_F_CHI_BAND
    for pi, f in enumerate(f_chi_ff):
        audit.require(lo <= f <= hi, f"phase p{pi}: F_chi {f:.4f} outside [{lo}, {hi}]")


def neutrality_problems(pairs) -> list[str]:
    """Criterion 3 over ``(F_chi with ff, F_chi without ff)`` per dataset."""
    if not pairs:
        return ["no dataset finished, feed-forward neutrality not checked"]
    gaps = np.abs(np.array([ff for ff, _ in pairs]) - np.array([noff for _, noff in pairs]))
    medians = np.median(gaps, axis=0)
    return [f"phase p{pi}: median |dF_chi| {m:.5f} >= {NEUTRALITY_BOUND}"
            for pi, m in enumerate(medians) if not m < NEUTRALITY_BOUND]


@dataclass
class StagedOutput:
    out_dir: str
    simulated: object
    loaded: object
    recon_sets: list
    reports: list
    warnings: list
    written: list


class StagedFine:
    name = "staged_fine"

    def __init__(self, seed: int, workdir: str, data_seed: int | None = None):
        self.plan = ExperimentPlan()
        self.noise = calibrated_noise(n_intervals=240, interval_s=0.15)
        self.ops = [seed if data_seed is None else data_seed]
        self.dataset_seeds = self.ops
        self.workdir = workdir

    def run(self, seed: int) -> StagedOutput:
        out = tempfile.mkdtemp(prefix="staged-", dir=self.workdir)
        simulated = experiment.simulate_counts(self.plan, self.noise, seed)
        written = [pipeline.write_counts(simulated, out)]
        loaded = experiment.CountTable.from_csv(written[0])
        recon_sets = [pipeline.reconstruct_table(loaded, self.noise, ff) for ff in (True, False)]
        for rs in recon_sets:
            written += pipeline.write_reconstruction(rs, out)
        reports, warnings = pipeline.collect_reports(out)
        written += pipeline.write_reports(reports, out)
        return StagedOutput(out, simulated, loaded, recon_sets, reports, warnings, written)

    def audit(self, seed: int, out: StagedOutput) -> Audit:
        try:
            return audit_staged(out, self.noise)
        finally:
            shutil.rmtree(out.out_dir)

    def check_round(self, audits) -> list[str]:
        return []


def audit_staged(out: StagedOutput, noise) -> Audit:
    audit = Audit()
    c = audit.counts
    c["events"] = int(out.simulated.total())
    c["csv_rows"] = int(out.loaded.counts.size)
    c["csv_bytes"] = os.path.getsize(out.written[0])
    c["files_written"] = len(out.written)
    c["bytes_written"] = sum(os.path.getsize(p) for p in out.written)
    for rs in out.recon_sets:
        audit.reconstruction_set(rs, out.loaded, noise)
    audit.require(not out.warnings, f"collect_reports warned: {out.warnings}")
    audit.require(len(out.reports) == 14, f"expected 14 reports, got {len(out.reports)}")
    check_staged_files(audit, out.simulated, out.loaded, out.recon_sets, out.reports,
                       os.path.join(out.out_dir, "report.csv"))
    return audit


WORKLOADS = {w.name: w for w in (Ideal16k, SeedSweep, StagedFine)}

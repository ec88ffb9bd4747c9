"""Show that the benchmark's output checks reject corrupted outputs.

Runs the staged file path once on the default calibrated config (small
and quick), confirms that its untouched outputs pass, then corrupts one
output at a time and confirms that the corresponding check rejects it.
Returns exit code 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np

from checks import Audit, check_staged_files, gap_median_problems
from phasegate.errors import DataFormatError
from phasegate.experiment import CountTable, calibrated_noise, rescale_efficiencies
from phasegate.pipeline import collect_reports
from phasegate.tomography import load_state, ml_reconstruct_process, save_state, settings_for_phase
from workloads import (
    StagedFine,
    audit_staged,
    check_fidelity_band,
    check_min_fidelity,
    fresh_workdir,
    neutrality_problems,
)


def self_test() -> int:
    workdir = fresh_workdir("selftest-")
    try:
        results = _cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for ok, name, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(not ok for ok, _, _ in results)
    print(f"self-test: {len(results) - failed} of {len(results)} cases as expected")
    return 1 if failed else 0


def _rejected(name, problems):
    return (bool(problems), name, f"rejected: {problems[0]}" if problems else "NOT rejected")


def _cases(workdir):
    workload = StagedFine(0, workdir)
    workload.noise = calibrated_noise()
    out = workload.run(0)
    noise = workload.noise
    results = []

    clean = audit_staged(out, noise)
    results.append((not clean.problems, "untouched outputs pass",
                    f"problems: {clean.problems}" if clean.problems else "no problems"))

    # A Choi matrix moved off the optimum, still PSD with trace 2.
    proc = out.recon_sets[0].processes[1]
    settings = settings_for_phase(rescale_efficiencies(out.loaded, noise), 1)
    eps = 1e-4
    moved = dataclasses.replace(proc, choi=(1 - eps) * proc.choi + eps * np.eye(4) / 2)
    audit = Audit()
    audit.process_fit(moved, settings, "chi mixed 1e-4 with identity")
    results.append(_rejected("process fit off the optimum", audit.problems))

    # A looser RrhoR stop: every fit passes the per-fit bound, the round median does not.
    rescaled = rescale_efficiencies(out.loaded, noise)
    audit = Audit()
    for pi in range(len(rescaled.phases)):
        settings = settings_for_phase(rescaled, pi)
        audit.process_fit(ml_reconstruct_process(settings, tol=3e-9), settings, f"p{pi} stopped at tol 3e-9")
    results.append(_rejected("process fits stopped at update tol 3e-9 instead of 1e-10",
                             audit.problems + gap_median_problems(audit.gaps)))

    csv_path = out.written[0]
    with open(csv_path, encoding="utf-8") as f:
        lines = f.readlines()

    dropped = os.path.join(workdir, "dropped.csv")
    with open(dropped, "w", encoding="utf-8") as f:
        f.writelines(lines[:100] + lines[101:])
    try:
        CountTable.from_csv(dropped)
        problems = []
    except DataFormatError as exc:
        problems = [f"CountTable.from_csv raised DataFormatError ({exc}), so the op fails"]
    results.append(_rejected("counts CSV with one row dropped", problems))

    altered = os.path.join(workdir, "altered.csv")
    fields = lines[100].rstrip("\n").split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    with open(altered, "w", encoding="utf-8") as f:
        f.writelines(lines[:100] + [",".join(fields) + "\n"] + lines[101:])
    audit = Audit()
    check_staged_files(audit, out.simulated, CountTable.from_csv(altered), out.recon_sets, out.reports,
                       os.path.join(out.out_dir, "report.csv"))
    results.append(_rejected("counts CSV with one count changed", audit.problems))

    report_csv = os.path.join(out.out_dir, "report.csv")
    with open(report_csv, encoding="utf-8") as f:
        rows = f.readlines()
    cells = rows[2].split(",")
    cells[1] = f"{float(cells[1]) - 1e-4:.9g}"
    rows[2] = ",".join(cells)
    with open(report_csv, "w", encoding="utf-8") as f:
        f.writelines(rows)
    audit = Audit()
    check_staged_files(audit, out.simulated, out.loaded, out.recon_sets, out.reports, report_csv)
    results.append(_rejected("report.csv with one F_chi altered", audit.problems))

    state_file = os.path.join(out.out_dir, "state_ff_p02_plus.txt")
    rho, meta = load_state(state_file)
    save_state(state_file, 0.99 * rho + 0.01 * np.eye(2) / 2, float(meta["phase"]), meta["input_state"],
               feed_forward=meta["feed_forward"])
    collected, _ = collect_reports(out.out_dir)
    audit = Audit()
    check_staged_files(audit, out.simulated, out.loaded, out.recon_sets, collected, report_csv)
    results.append(_rejected("state file altered before collect_reports",
                             [p for p in audit.problems if "collect_reports" in p]))

    audit = Audit()
    check_min_fidelity(audit, [0.9995, 0.9985])
    results.append(_rejected("ideal16k report with F_chi below 0.999", audit.problems))

    audit = Audit()
    check_fidelity_band(audit, [0.975, 0.955])
    results.append(_rejected("seed_sweep F_chi outside [0.96, 0.99]", audit.problems))

    ff = [0.975] * 7
    results.append(_rejected("seed_sweep analyses 0.02 apart",
                             neutrality_problems([(ff, [f - 0.02 for f in ff])] * 3)))
    return results

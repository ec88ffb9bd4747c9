"""Behaviour lock: the files of two fixed runs, pinned.

Runs the criterion-1 config (``ideal_noise(pair_rate=16000)``) and the
calibrated bench preset, both at seed 1, writes every artefact and
compares against values recorded from the reference implementation.
The pins were last recorded when the simulator moved to the closed-form
detector rates with three array draws per setting, which changed the
random stream on purpose.  One ``F_chi`` pin (calibrated, pi/3, feed
forward) was moved by one unit in its 9th digit when the process fit
gained its Newton stage: both fits are certified, and their unrounded
values differ by 1.5e-11.

Tolerances, and why:

* ``counts.csv`` is pinned by sha256.  Simulation is deterministic in
  the seed, so any change to the random stream or the CSV format shows
  here; a change that alters it on purpose re-pins it and says so.
* The ``iterations`` line of every Choi file is pinned exactly: the
  RrhoR and Newton steps of each process fit, so a change to the fit
  schedule shows here even where it leaves every figure in place.
  So are each fit's Newton steps and likelihood decreases, which
  split those iterations between the two stages.
* ``F_chi`` and ``success_probability`` must equal the 9 significant
  digits written to ``report.csv``.  They come from the process fit and
  from counting alone, so a change to the state estimator cannot move
  them.  Every locked process fit must also carry a certificate of at
  most ``GAP_TOL`` nats, so the pinned ``F_chi`` is that of a fit
  proven to sit at the likelihood maximum.
* ``F_av``, ``F_min``, ``P_av`` and ``P_min`` are pinned within 1e-6
  absolute.  They come from the output-state fits, an exact solve whose
  root finding may end on a different last digit after a change of
  arithmetic order; 1e-6 is far below the statistical error of either
  dataset (about 1e-4).
"""

import hashlib
from pathlib import Path
from typing import NamedTuple

import pytest

from phasegate import RunConfig, calibrated_noise, ideal_noise, run_pipeline, write_pipeline_artifacts
from phasegate.pipeline import PipelineResult
from phasegate.tomography import GAP_TOL, load_choi

STATE_FIGURE_ATOL = 1e-6

# Per run: the noise, the sha256 of counts.csv, the iterations of choi_ff_p00..06 and choi_noff_p00..06, the
# (newton_iterations, likelihood_decreases) of the same fits, and the rows of report.csv: phi, F_chi, F_av, F_min,
# P_av, P_min, feed_forward_active, success_probability.
PINS = {
    "ideal16k": (
        ideal_noise(pair_rate=16000),
        "175fb21511ee7509f95e406f11272ef4541ca8d4083552fd238809723d00ceb9",
        ((33, 41, 42, 33, 41, 44, 33), (33, 41, 41, 33, 45, 39, 33)),
        (((1, 0), (9, 0), (10, 0), (1, 0), (9, 0), (12, 0), (1, 0)),
         ((1, 0), (9, 0), (9, 0), (1, 0), (13, 0), (7, 0), (1, 0))),
        """\
0,0.999999534,0.999999151,0.99999782,1,1,1,0.500024705
0.523598775598,0.99984403,0.999807682,0.999251333,0.999618953,0.998506783,1,0.500024705
1.0471975512,0.999999446,0.999939758,0.999643773,0.999881881,0.999291285,1,0.500024705
1.57079632679,0.999999673,0.999999434,0.999999102,1,1,1,0.500024705
2.09439510239,0.999899738,0.999863698,0.999477852,0.999729914,0.998957595,1,0.500024705
2.61799387799,0.999999496,0.999836271,0.99937528,0.999674421,0.998751419,1,0.500024705
3.14159265359,0.999998714,0.999998409,0.999996951,1,1,1,0.500024705
0,0.999999651,0.999998081,0.999995522,1,1,0,0.249991512
0.523598775598,0.999839091,0.999775771,0.999221919,0.999556002,0.998446965,0,0.249991512
1.0471975512,0.999998624,0.999851355,0.999122691,0.999708293,0.998249755,0,0.249991512
1.57079632679,0.999998611,0.999998212,0.999993868,1,1,0,0.249991512
2.09439510239,0.999994168,0.999765262,0.998859908,0.999533879,0.99772323,0,0.249991512
2.61799387799,0.999424235,0.999575532,0.998734753,0.999157737,0.997473898,0,0.249991512
3.14159265359,0.999998899,0.999998182,0.999996608,1,1,0,0.249991512
""",
    ),
    "calibrated": (
        calibrated_noise(),
        "7c4bf799881d8aec871f3077b4df0a707e74b2ec31a64ff6d9dbefcbe3ce1e5b",
        ((34, 34, 34, 34, 34, 40, 34), (34, 34, 34, 34, 34, 41, 34)),
        (((2, 0), (2, 0), (2, 0), (2, 0), (2, 0), (8, 0), (2, 0)),
         ((2, 0), (2, 0), (2, 0), (2, 0), (2, 0), (9, 1), (2, 0))),
        """\
0,0.974463549,0.982947509,0.971986497,0.966963984,0.945661619,1,0.500292098
0.523598775598,0.974371982,0.982947673,0.965759755,0.966866734,0.93396809,1,0.500292098
1.0471975512,0.976421788,0.984335191,0.971489114,0.96954159,0.944908007,1,0.500292098
1.57079632679,0.97543472,0.983629876,0.97144492,0.968185544,0.944577572,1,0.500292098
2.09439510239,0.975826921,0.983968631,0.973166004,0.968849386,0.947836234,1,0.500292098
2.61799387799,0.976064557,0.984041735,0.971392907,0.968990975,0.944553386,1,0.500292098
3.14159265359,0.976296619,0.984136523,0.96893573,0.969242422,0.939829313,1,0.500292098
0,0.973626595,0.982378757,0.971878515,0.966027926,0.945597713,0,0.249981051
0.523598775598,0.975035099,0.983593413,0.960338549,0.96827141,0.924164946,0,0.249981051
1.0471975512,0.976941209,0.984632808,0.973105479,0.970133514,0.947977089,0,0.249981051
1.57079632679,0.975392099,0.983603253,0.974226804,0.968262515,0.949873995,0,0.249981051
2.09439510239,0.975247696,0.983564896,0.972960719,0.968356106,0.947575506,0,0.249981051
2.61799387799,0.973786597,0.982546415,0.967437404,0.966256425,0.937408258,0,0.249981051
3.14159265359,0.97660083,0.984345498,0.971279373,0.969725716,0.944454691,0,0.249981051
""",
    ),
}


class LockedRun(NamedTuple):
    out: Path
    counts_sha: str
    #: Pinned ``iterations`` of the Choi files, per analysis (ff, noff) and phase.
    choi_iterations: tuple
    #: Pinned ``(newton_iterations, likelihood_decreases)`` of the same process fits.
    newton_split: tuple
    #: Pinned report.csv rows, split into fields.
    expected: list
    result: PipelineResult


@pytest.fixture(scope="module", params=sorted(PINS))
def locked_run(request, tmp_path_factory):
    noise, counts_sha, choi_iterations, newton_split, report_rows = PINS[request.param]
    out = tmp_path_factory.mktemp(request.param)
    cfg = RunConfig(noise=noise, seed=1, output_dir=str(out))
    result = run_pipeline(cfg)
    write_pipeline_artifacts(cfg, result)
    rows = [row.split(",") for row in report_rows.splitlines()]
    return LockedRun(out, counts_sha, choi_iterations, newton_split, rows, result)


def _report_rows(out):
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def test_counts_csv_sha256(locked_run):
    assert hashlib.sha256((locked_run.out / "counts.csv").read_bytes()).hexdigest() == locked_run.counts_sha


def test_choi_iterations(locked_run):
    got = tuple(tuple(int(load_choi(locked_run.out / f"choi_{tag}_p{pi:02d}.txt")[1]["iterations"]) for pi in range(7))
                for tag in ("ff", "noff"))
    assert got == locked_run.choi_iterations


def test_newton_split(locked_run):
    got = tuple(tuple((proc.newton_iterations, proc.likelihood_decreases) for proc in rs.processes)
                for rs in locked_run.result.reconstructions)
    assert [rs.feed_forward for rs in locked_run.result.reconstructions] == [True, False]
    assert got == locked_run.newton_split


def test_process_fidelity_and_success_exact(locked_run):
    got = _report_rows(locked_run.out)
    assert len(got) == len(locked_run.expected)
    for g, e in zip(got, locked_run.expected):
        # phi, F_chi, feed_forward_active, success_probability as written.
        assert [g[0], g[1], g[6], g[7]] == [e[0], e[1], e[6], e[7]]


def test_state_figures_within_tolerance(locked_run):
    for g, e in zip(_report_rows(locked_run.out), locked_run.expected):
        for column in (2, 3, 4, 5):  # F_av, F_min, P_av, P_min
            assert float(g[column]) == pytest.approx(float(e[column]), abs=STATE_FIGURE_ATOL)


def test_process_fits_certified(locked_run):
    for rs in locked_run.result.reconstructions:
        for proc in rs.processes:
            assert proc.stop_reason == "certified"
            assert proc.certified_gap <= GAP_TOL

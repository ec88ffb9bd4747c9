"""Behaviour lock: the files of fixed runs, pinned.

Two configs, the criterion-1 config (``ideal_noise(pair_rate=16000)``)
and the calibrated bench preset, each at seed 1, are run twice, and
every artefact is written and compared against recorded values:

* ``PINS`` takes each dataset from :func:`legacy_stream.legacy_counts`,
  the per-setting stream that the simulator drew before a dataset came
  from one generator, and runs it through ``reconstruct_analyses``,
  ``reports_from_reconstruction`` and ``write_pipeline_artifacts``.  Its
  pins were recorded when the simulator moved to closed-form detector
  rates with three array draws per setting, and they did not move when
  the simulation did, so they pin the fits, reports and writers alone.
  One ``F_chi`` pin (calibrated, pi/3, feed forward) was moved by one
  unit in its 9th digit when the process fit gained its Newton stage:
  both fits are certified, and their unrounded values differ by 1.5e-11.
* ``STREAM_PINS`` runs ``run_pipeline`` end to end, so it also pins the
  simulator's one-generator stream.  Its pins were recorded when that
  stream replaced the per-setting one.
* Both sets' iteration and Newton-split pins were re-pinned when the
  Newton step became a gauge-fixed Cholesky solve: five fits took one
  step fewer or damped one step fewer, and no other pin moved.

Tolerances, and why:

* ``counts.csv`` is pinned by sha256.  Simulation is deterministic in
  the seed, so a change to the CSV format shows under both pin sets and
  a change to the random stream under ``STREAM_PINS``; a change that
  alters either on purpose re-pins it and says so.
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
  absolute.  They come from the output-state fits, a solve to rounding
  whose Newton in the Lagrange multiplier may end on a different last
  digit after a change of arithmetic order; 1e-6 is far below the
  statistical error of either dataset (about 1e-4).
"""

import hashlib
from pathlib import Path
from typing import NamedTuple

import pytest

from legacy_stream import legacy_counts

from phasegate import RunConfig, calibrated_noise, ideal_noise, run_pipeline, write_pipeline_artifacts
from phasegate.pipeline import PipelineResult, reconstruct_analyses, reports_from_reconstruction
from phasegate.tomography import GAP_TOL, load_choi

STATE_FIGURE_ATOL = 1e-6

# Per run on the legacy-stream dataset: the noise, the sha256 of counts.csv, the iterations of choi_ff_p00..06 and
# choi_noff_p00..06, the (newton_iterations, likelihood_decreases) of the same fits, and the rows of report.csv: phi,
# F_chi, F_av, F_min, P_av, P_min, feed_forward_active, success_probability.
PINS = {
    "ideal16k": (
        ideal_noise(pair_rate=16000),
        "175fb21511ee7509f95e406f11272ef4541ca8d4083552fd238809723d00ceb9",
        ((33, 41, 42, 33, 41, 43, 33), (33, 41, 41, 33, 45, 39, 33)),
        (((1, 0), (9, 0), (10, 0), (1, 0), (9, 0), (11, 0), (1, 0)),
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
         ((2, 0), (2, 0), (2, 0), (2, 0), (2, 0), (9, 0), (2, 0))),
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


# Per run_pipeline run, on the one-generator stream: the same fields as PINS.
STREAM_PINS = {
    "stream-ideal16k": (
        ideal_noise(pair_rate=16000),
        "c674fa2d47fea98d4c3e3674159c7811a724340ebc48d08880867a30537d5b55",
        ((33, 41, 41, 33, 44, 41, 33), (33, 42, 41, 33, 40, 40, 33)),
        (((1, 0), (9, 0), (9, 0), (1, 0), (12, 0), (9, 0), (1, 0)),
         ((1, 0), (10, 0), (9, 0), (1, 0), (8, 0), (8, 0), (1, 0))),
        """\
0,0.999999479,0.99999909,0.999997234,1,1,1,0.499993786
0.523598775598,0.999855158,0.99983736,0.99921992,0.999677215,0.998451546,1,0.499993786
1.0471975512,0.999796772,0.999745272,0.998574842,0.99949348,0.997153978,1,0.499993786
1.57079632679,0.999999703,0.99999948,0.999998939,1,1,1,0.499993786
2.09439510239,0.999999812,0.999836753,0.999404414,0.999675243,0.998811871,1,0.499993786
2.61799387799,0.999999338,0.999827898,0.999384582,0.999659076,0.998774832,1,0.499993786
3.14159265359,0.999999744,0.999998855,0.999997128,1,1,1,0.499993786
0,0.999998989,0.9999987,0.999996832,1,1,0,0.249977417
0.523598775598,0.999961463,0.99981846,0.999031702,0.999640365,0.998072591,0,0.249977417
1.0471975512,0.999832175,0.999554443,0.997983218,0.99911662,0.995975371,0,0.249977417
1.57079632679,0.999998241,0.999998581,0.999997369,1,1,0,0.249977417
2.09439510239,0.999999273,0.999830423,0.999226364,0.999665527,0.998457457,0,0.249977417
2.61799387799,0.999999096,0.999945303,0.999683996,0.999895005,0.99937003,0,0.249977417
3.14159265359,0.999998739,0.999998282,0.999994068,1,1,0,0.249977417
""",
    ),
    "stream-calibrated": (
        calibrated_noise(),
        "69137b2c78e4d5ff32129d8fe4418064a87f0a24f231d5febd3d597552e3481e",
        ((39, 34, 34, 34, 34, 36, 34), (38, 34, 34, 34, 34, 41, 34)),
        (((7, 0), (2, 0), (2, 0), (2, 0), (2, 0), (4, 0), (2, 0)),
         ((6, 0), (2, 0), (2, 0), (2, 0), (2, 0), (9, 0), (2, 0))),
        """\
0,0.973657899,0.982452099,0.972344829,0.965982486,0.946387557,1,0.499972889
0.523598775598,0.974142497,0.982747401,0.970942295,0.966574815,0.943576521,1,0.499972889
1.0471975512,0.976248024,0.984201692,0.971787916,0.969281609,0.945393088,1,0.499972889
1.57079632679,0.973910969,0.982594952,0.971365433,0.966243532,0.944604667,1,0.499972889
2.09439510239,0.974818234,0.983221726,0.972582391,0.96736001,0.946733414,1,0.499972889
2.61799387799,0.974755224,0.983243935,0.970132777,0.96753311,0.942376527,1,0.499972889
3.14159265359,0.976563583,0.984389649,0.974019155,0.969666907,0.94975531,1,0.499972889
0,0.973198664,0.982134045,0.971066191,0.965573593,0.944210063,0,0.250054659
0.523598775598,0.97500392,0.983340701,0.971404623,0.967665132,0.944572368,0,0.250054659
1.0471975512,0.977425724,0.985048277,0.972143852,0.971096751,0.946254604,0,0.250054659
1.57079632679,0.97518805,0.983476799,0.973441534,0.968077153,0.948527951,0,0.250054659
2.09439510239,0.976170199,0.98415292,0.972755971,0.969218231,0.947165281,0,0.250054659
2.61799387799,0.97828971,0.985556261,0.973139718,0.972221793,0.948521044,0,0.250054659
3.14159265359,0.976901577,0.984617917,0.972152803,0.970176872,0.946161253,0,0.250054659
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


@pytest.fixture(scope="module", params=[*sorted(PINS), *sorted(STREAM_PINS)])
def locked_run(request, tmp_path_factory):
    noise, counts_sha, choi_iterations, newton_split, report_rows = {**PINS, **STREAM_PINS}[request.param]
    out = tmp_path_factory.mktemp(request.param)
    cfg = RunConfig(noise=noise, seed=1, output_dir=str(out))
    if request.param in STREAM_PINS:
        result = run_pipeline(cfg)
    else:
        table = legacy_counts(cfg.plan, noise, cfg.seed)
        recon_sets = reconstruct_analyses(table, noise, [True, False])
        reports = [row for rs in recon_sets for row in reports_from_reconstruction(rs)]
        result = PipelineResult(table, recon_sets, reports)
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

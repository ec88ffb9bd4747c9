"""Behaviour lock: the files of two fixed runs, pinned.

Runs the criterion-1 config (``ideal_noise(pair_rate=16000)``) and the
calibrated bench preset, both at seed 1, writes every artefact and
compares against values recorded from the reference implementation.

Tolerances, and why:

* ``counts.csv`` is pinned by sha256.  Simulation is deterministic in
  the seed, so any change to the random stream or the CSV format shows
  here; a change that alters it on purpose re-pins it and says so.
* ``F_chi`` and ``success_probability`` must equal the 9 significant
  digits written to ``report.csv``.  They come from the process fit and
  from counting alone, so a change to the state estimator cannot move
  them.  ``F_chi`` was re-pinned when the process fit moved from a stop
  on a 1e-10 step of the iterate to a certified stop within ``GAP_TOL``
  nats of the maximum; it must stay within ``F_CHI_REPIN_ATOL`` of the
  values before that (``PREVIOUS_F_CHI``), and every locked process fit
  must carry a certificate of at most ``GAP_TOL``.
* ``F_av``, ``F_min``, ``P_av`` and ``P_min`` are pinned within 1e-6
  absolute.  They come from the output-state fits, and the reference
  values were produced by an iterative estimator that stops on a
  1e-10 step size, not at the exact likelihood maximum.  An exact
  estimator moves them by at most about 3e-7 on these runs, well
  below the statistical error of either dataset (about 1e-4).
"""

import hashlib
from pathlib import Path
from typing import NamedTuple

import pytest

from phasegate import RunConfig, calibrated_noise, ideal_noise, run_pipeline, write_pipeline_artifacts
from phasegate.pipeline import PipelineResult
from phasegate.tomography import GAP_TOL

STATE_FIGURE_ATOL = 1e-6
F_CHI_REPIN_ATOL = 1e-7

# Rows of report.csv: phi, F_chi, F_av, F_min, P_av, P_min, feed_forward_active, success_probability.
PINS = {
    "ideal16k": (
        ideal_noise(pair_rate=16000),
        "f187d00ea3f4851451838ca0c24099b8bea88c0973b1bde65e67ad97fc0292d3",
        """\
0,0.999999773,0.999999066,0.999998252,1,1,1,0.50002031
0.523598775598,0.999999556,0.999885902,0.999398141,0.99977442,0.998800803,1,0.50002031
1.0471975512,0.999999837,0.999986043,0.999919791,0.999973153,0.999840433,1,0.50002031
1.57079632679,0.99999973,0.999999132,0.999997943,1,1,1,0.50002031
2.09439510239,0.999999621,0.999891894,0.999361887,0.999787574,0.998725599,1,0.50002031
2.61799387799,0.999999044,0.999925268,0.99967545,0.999853149,0.999354317,1,0.50002031
3.14159265359,0.999999829,0.999999715,0.999999184,1,1,1,0.50002031
0,0.999999435,0.999998207,0.999997193,1,1,0,0.250030065
0.523598775598,0.999998953,0.999841697,0.99923753,0.999687911,0.998484106,0,0.250030065
1.0471975512,0.999999386,0.999890194,0.9993525,0.999784523,0.998707865,0,0.250030065
1.57079632679,0.999999227,0.999997903,0.999993493,1,1,0,0.250030065
2.09439510239,0.999999365,0.999896996,0.999391212,0.999797642,0.998786024,0,0.250030065
2.61799387799,0.99999879,0.999831547,0.998996836,0.999666928,0.998001891,0,0.250030065
3.14159265359,0.999999771,0.999998797,0.999997004,1,1,0,0.250030065
""",
    ),
    "calibrated": (
        calibrated_noise(),
        "43bc73a2f827b03346c93bec9e6100e4d99f34a6bedeea277be13cfdf6947a84",
        """\
0,0.974961813,0.98333572,0.972216149,0.967926242,0.94605524,1,0.498827598
0.523598775598,0.975321934,0.98355456,0.972492822,0.967997662,0.946505763,1,0.498827598
1.0471975512,0.974859186,0.983385387,0.970441117,0.967674015,0.942663954,1,0.498827598
1.57079632679,0.974959668,0.983308239,0.969803965,0.967559357,0.941441587,1,0.498827598
2.09439510239,0.975321434,0.983528112,0.971089644,0.968004577,0.943958355,1,0.498827598
2.61799387799,0.978230098,0.985545967,0.97478595,0.971855761,0.951033561,1,0.498827598
3.14159265359,0.975246952,0.983487216,0.973263511,0.967894544,0.94805997,1,0.498827598
0,0.974778893,0.983199408,0.97032967,0.967606334,0.942609605,0,0.24924206
0.523598775598,0.97664549,0.984389086,0.970930263,0.969824853,0.943559188,0,0.24924206
1.0471975512,0.972648063,0.982153216,0.961843564,0.965511388,0.926725401,0,0.24924206
1.57079632679,0.974508161,0.9829771,0.968401487,0.967077766,0.939210973,0,0.24924206
2.09439510239,0.975165779,0.983406397,0.965103258,0.967898537,0.932855672,0,0.24924206
2.61799387799,0.980716144,0.98734413,0.976050632,0.975435912,0.953340409,0,0.24924206
3.14159265359,0.974407311,0.982899879,0.970891673,0.966817001,0.943508205,0,0.24924206
""",
    ),
}


# F_chi column as pinned before the certified stop, same row order.
PREVIOUS_F_CHI = {
    "ideal16k": (
        "0.999999773 0.999999531 0.999999762 0.99999973 0.999999587 0.999998987 0.999999829 "
        "0.999999435 0.999998935 0.999999359 0.999999227 0.999999348 0.99999874 0.999999771"
    ),
    "calibrated": (
        "0.974961813 0.975321935 0.974859185 0.974959668 0.975321435 0.978230097 0.975246952 "
        "0.974778893 0.97664549 0.972648063 0.974508161 0.975165779 0.980716143 0.974407309"
    ),
}


class LockedRun(NamedTuple):
    name: str
    out: Path
    counts_sha: str
    #: Pinned report.csv rows, split into fields.
    expected: list
    result: PipelineResult


@pytest.fixture(scope="module", params=sorted(PINS))
def locked_run(request, tmp_path_factory):
    noise, counts_sha, report_rows = PINS[request.param]
    out = tmp_path_factory.mktemp(request.param)
    cfg = RunConfig(noise=noise, seed=1, output_dir=str(out))
    result = run_pipeline(cfg)
    write_pipeline_artifacts(cfg, result)
    return LockedRun(request.param, out, counts_sha, [row.split(",") for row in report_rows.splitlines()], result)


def _report_rows(out):
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def test_counts_csv_sha256(locked_run):
    assert hashlib.sha256((locked_run.out / "counts.csv").read_bytes()).hexdigest() == locked_run.counts_sha


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


def test_f_chi_repin_close_to_previous_pin(locked_run):
    previous = [float(v) for v in PREVIOUS_F_CHI[locked_run.name].split()]
    assert len(previous) == len(locked_run.expected)
    for e, old in zip(locked_run.expected, previous):
        assert abs(float(e[1]) - old) <= F_CHI_REPIN_ATOL


def test_process_fits_certified(locked_run):
    for rs in locked_run.result.reconstructions:
        for proc in rs.processes:
            assert proc.stop_reason == "certified"
            assert proc.certified_gap <= GAP_TOL

"""Pipeline orchestration: reconstruction sets, file artifacts, report assembly."""

import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasegate import tomography
from phasegate.config import RunConfig
from phasegate.errors import ConvergenceError, DataFormatError
from phasegate.experiment import CountTable, ExperimentPlan, calibrated_noise, ideal_noise, simulate_counts
from phasegate.pipeline import (
    _atomic,
    collect_reports,
    reconstruct_table,
    reports_from_reconstruction,
    run_pipeline,
    write_pipeline_artifacts,
    write_reconstruction,
    write_reports,
)


@pytest.fixture(scope="module")
def small_run():
    """One-phase calibrated pipeline shared by the artifact tests."""
    plan = ExperimentPlan(phases=(np.pi / 2,))
    cfg = RunConfig(plan=plan, noise=calibrated_noise(pair_rate=3000.0, n_intervals=4), seed=77)
    return cfg, run_pipeline(cfg)


@pytest.fixture(scope="module")
def two_phase_run():
    """Two-phase calibrated pipeline for the CSV row-order property."""
    plan = ExperimentPlan(phases=(np.pi / 6, 2 * np.pi / 3))
    cfg = RunConfig(plan=plan, noise=calibrated_noise(pair_rate=3000.0, n_intervals=3), seed=41)
    return cfg, run_pipeline(cfg)


class TestReconstructTable:
    def test_structure_and_success(self, small_run):
        _, result = small_run
        ff, noff = result.reconstructions
        assert ff.feed_forward and not noff.feed_forward
        assert len(ff.processes) == 1
        assert len(ff.output_states[0]) == 6
        assert ff.success_probability == pytest.approx(0.5, abs=0.02)
        assert noff.success_probability == pytest.approx(0.25, abs=0.02)

    def test_reports_cover_both_variants(self, small_run):
        _, result = small_run
        flags = [r.feed_forward_active for r in result.reports]
        assert flags == [True, False]
        for r in result.reports:
            assert 0.9 < r.F_chi <= 1.0

    def test_csv_ingestion_equals_in_memory(self, small_run, tmp_path):
        cfg, result = small_run
        table = result.counts
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        again = reconstruct_table(CountTable.from_csv(path), cfg.noise, True)
        np.testing.assert_allclose(again.processes[0].choi, result.reconstructions[0].processes[0].choi,
                                   atol=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_csv_rows_give_the_same_figures(self, two_phase_run, rng):
        cfg, result = two_phase_run
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.csv"
            result.counts.to_csv(path)
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            rng.shuffle(rows)
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            table = CountTable.from_csv(path)
        # Phases come back in order of first appearance, written to 12 significant digits.
        def per_phase(reports):
            return {(r.feed_forward_active, round(r.phi, 9)): r for r in reports}

        got_rows = per_phase(row for ff in (True, False)
                             for row in reports_from_reconstruction(reconstruct_table(table, cfg.noise, ff)))
        expected_rows = per_phase(result.reports)
        assert got_rows.keys() == expected_rows.keys()
        for key, expected in expected_rows.items():
            got = got_rows[key]
            for name in ("F_chi", "F_av", "success_probability"):
                assert getattr(got, name) == pytest.approx(getattr(expected, name), abs=1e-9)

    def test_feed_forward_false_only(self):
        plan = ExperimentPlan(phases=(0.0,))
        cfg = RunConfig(plan=plan, noise=ideal_noise(pair_rate=1500.0, n_intervals=2), seed=5,
                        feed_forward=False)
        result = run_pipeline(cfg)
        assert [rs.feed_forward for rs in result.reconstructions] == [False]
        assert all(not r.feed_forward_active for r in result.reports)

    def test_reports_match_input_states_by_label(self, small_run, tmp_path):
        # A count CSV whose rows list the input states in another order.
        cfg, result = small_run
        path = tmp_path / "counts.csv"
        result.counts.to_csv(path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        order = ["-i", "+", "1", "0", "+i", "-"]
        rows.sort(key=lambda row: order.index(row.split(",")[1]))
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        table = CountTable.from_csv(path)
        assert table.input_states == tuple(order)
        reports = reports_from_reconstruction(reconstruct_table(table, cfg.noise, True))
        expected = result.reports[0]
        assert reports[0].F_chi == pytest.approx(expected.F_chi, abs=1e-12)
        for name in ("F_av", "F_min", "P_av", "P_min"):
            assert getattr(reports[0], name) == pytest.approx(getattr(expected, name), abs=1e-12)

    def test_uncertified_fit_names_stop_reason_and_gap(self, small_run, monkeypatch):
        # One Newton step per pass leaves the fit uncertified.
        cfg, result = small_run
        monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
        with pytest.raises(ConvergenceError, match=r"phase index 0 stopped uncertified \(stalled\) after \d+ "
                                                   r"iterations: certified gap .* nats > 1e-06"):
            reconstruct_table(result.counts, cfg.noise, True)

    def test_six_state_requirement_for_reports(self):
        # Four states are enough for the process ML but not for the report.
        plan = ExperimentPlan(phases=(0.0,), input_states=("0", "1", "+", "+i"))
        noise = ideal_noise(pair_rate=2000.0, n_intervals=1)
        rs = reconstruct_table(simulate_counts(plan, noise, 6), noise, True)
        with pytest.raises(DataFormatError, match="six-state"):
            reports_from_reconstruction(rs)


class TestArtifacts:
    def test_emitted_files_and_no_leftovers(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "out"
        written = write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out)), result)
        names = sorted(os.listdir(out))
        assert "counts.csv" in names
        assert "choi_ff_p00.txt" in names and "choi_noff_p00.txt" in names
        assert "state_ff_p00_plusi.txt" in names
        assert "report.csv" in names and "report.txt" in names
        assert not [n for n in names if n.endswith(".tmp")]
        assert len(written) == len(names)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def fail(p):
            with open(p, "w") as f:
                f.write("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            _atomic(str(tmp_path / "report.csv"), fail)
        assert os.listdir(tmp_path) == []

    def test_temp_file_private_to_one_write(self, tmp_path):
        # Another run's temp file for the same target must be left alone.
        other = tmp_path / "report.csv.tmp"
        other.write_text("other run")
        seen = []

        def write(p):
            seen.append(p)
            with open(p, "w") as f:
                f.write("mine")

        _atomic(str(tmp_path / "report.csv"), write)
        assert os.path.dirname(seen[0]) == str(tmp_path)
        assert other.read_text() == "other run"
        assert (tmp_path / "report.csv").read_text() == "mine"
        assert sorted(os.listdir(tmp_path)) == ["report.csv", "report.csv.tmp"]

    def test_written_file_has_default_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        _atomic(str(tmp_path / "atomic.txt"), lambda p: open(p, "w").close())
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode

    def test_process_umask_untouched(self, tmp_path, monkeypatch):
        # Setting the umask, even to read it, would change it for every thread of the process.
        plain = tmp_path / "plain.txt"
        plain.write_text("x")

        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        _atomic(str(tmp_path / "atomic.txt"), lambda p: open(p, "w").close())
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode

    def test_emit_filter(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "only_report"
        write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out), emit=("report",)), result)
        assert sorted(os.listdir(out)) == ["report.csv", "report.txt"]

    def test_collect_reports_round_trip(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "rt"
        write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out)), result)
        loaded, warnings = collect_reports(str(out))
        assert not warnings
        assert len(loaded) == len(result.reports)
        by_key = {(r.feed_forward_active, round(r.phi, 9)): r for r in loaded}
        for r in result.reports:
            match = by_key[(r.feed_forward_active, round(r.phi, 9))]
            assert match.F_chi == pytest.approx(r.F_chi, abs=1e-9)
            assert match.F_av == pytest.approx(r.F_av, abs=1e-9)
            assert match.success_probability == pytest.approx(r.success_probability, abs=1e-8)

    def test_collect_reports_checks_each_matrix_once(self, small_run, tmp_path, monkeypatch):
        cfg, result = small_run
        out = tmp_path / "checked"
        write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out)), result)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        loaded, _ = collect_reports(str(out))
        # Per report: its Choi matrix and six states as they load, then the rank-1 check of chi_id.
        assert sorted(calls) == sorted([(2, 2)] * 6 * len(loaded) + [(4, 4)] * 2 * len(loaded))

    def test_missing_state_file_listed(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "broken"
        write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out)), result)
        os.remove(out / "state_ff_p00_minus.txt")
        with pytest.raises(DataFormatError, match=r"\['-'\]"):
            collect_reports(str(out))

    def test_variant_mismatch_warns(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "mismatch"
        write_pipeline_artifacts(dataclasses.replace(cfg, output_dir=str(out)), result)
        # Fake a second phase present only in the ff variant.
        for name in list(os.listdir(out)):
            if "_p00" in name and "_ff_" in name:
                src = (out / name).read_text().replace("phase 1.5707", "phase 2.5707")
                (out / name.replace("_p00", "_p01")).write_text(src)
        _, warnings = collect_reports(str(out))
        assert warnings and "differ" in warnings[0]

    def test_reports_only_from_states_and_choi(self, small_run, tmp_path):
        cfg, result = small_run
        out = tmp_path / "files_only"
        write_reconstruction(result.reconstructions[0], str(out))
        loaded, _ = collect_reports(str(out))
        assert len(loaded) == 1
        write_reports(loaded, str(out))
        assert (out / "report.csv").exists()

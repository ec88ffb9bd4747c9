"""Config parsing and the command-line front end (run in-process)."""

import dataclasses
import json

import numpy as np
import pytest

from phasegate import tomography
from phasegate.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from phasegate.config import RunConfig, load_run_config, run_config_from_dict
from phasegate.errors import ConfigError
from phasegate.experiment import (
    DEFAULT_PHASES,
    ExperimentPlan,
    calibrated_noise,
    ideal_noise,
    rescale_efficiencies,
    simulate_counts,
)
from phasegate.metrics import ideal_choi, read_merit_csv
from phasegate.pipeline import STATE_FILE_LABELS, collect_reports
from phasegate.states import STATE_LABELS, density
from phasegate.tomography import GAP_TOL, ml_reconstruct_process, save_choi, save_state, settings_for_phase


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.plan.phases == DEFAULT_PHASES
        assert cfg.noise.visibility == 1.0
        assert cfg.seed is None
        assert cfg.feed_forward is True
        assert cfg.emit == ("counts", "choi", "states", "report")

    def test_nested_overrides(self):
        cfg = run_config_from_dict(
            {
                "plan": {"phases": [0.0, 1.0], "bases": ["Z", "X", "Y"]},
                "noise": {"visibility": 0.9, "n_intervals": 2},
                "seed": 11,
                "emit": ["counts"],
            }
        )
        assert cfg.plan.phases == (0.0, 1.0)
        assert cfg.noise.visibility == 0.9
        assert cfg.noise.pair_rate == 1000.0  # untouched default
        assert cfg.seed == 11 and cfg.emit == ("counts",)

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"pair_rate": 1.0}, "pair_rate"),
            ({"noise": {"pairrate": 1.0}}, "pairrate"),
            ({"plan": {"states": ["0"]}}, "states"),
            ({"plan": ["not", "a", "dict"]}, "plan"),
            ({"seed": "tomorrow"}, "seed"),
            ({"emit": ["counts", "everything"]}, "everything"),
            ({"emit": ["counts", "counts"]}, "duplicates"),
            ({"feed_forward": 1}, "feed_forward"),
            ({"seed": True}, "seed"),
            ({"noise": {"eta_p0": True}}, "eta_p0"),
            ({"noise": {"n_intervals": True}}, "n_intervals"),
            ({"noise": {"pair_rate": False}}, "pair_rate"),
            ({"plan": {"phases": 0.5}}, "phases must be a list"),
            ({"plan": {"phases": "abc"}}, "phases must be a list"),
            ({"plan": {"phases": [None]}}, "phases entries"),
            ({"plan": {"phases": [float("nan")]}}, "phases entries"),
            ({"plan": {"phases": [float("inf")]}}, "phases entries"),
            ({"plan": {"phases": [10**400]}}, "phases entries"),
            ({"plan": {"phases": [True]}}, "phases entries"),
            ({"plan": {"input_states": 5}}, "input_states must be a list"),
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"noise": {"pair_rate": 10**400}}, "pair_rate"),
            ({"noise": {"interval_s": float("inf")}}, "interval_s"),
            ({"output_dir": 5}, "output_dir must be a path string"),
            ({"output_dir": None}, "output_dir must be a path string"),
            ({"emit": "counts"}, "emit must be a list"),
            ({"plan": {"phases": []}}, "phases must be non-empty"),
        ],
    )
    def test_rejections_name_the_problem(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment):
            run_config_from_dict(data)

    def test_require_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig().require_seed()
        assert RunConfig(seed=4).require_seed() == 4

    def test_load_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 9, "noise": {"pair_rate": 50.0}}))
        cfg = load_run_config(path)
        assert cfg.seed == 9 and cfg.noise.pair_rate == 50.0

    def test_load_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(bad)


@pytest.fixture()
def small_config(tmp_path):
    """Config file for a fast but fully realistic one-phase run."""
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "plan": {"phases": [np.pi / 4]},
                "noise": {
                    "eta_p0": 0.55, "eta_d0": 0.55, "eta_d1": 0.55, "eta_p1": 0.50,
                    "dark_quad": 400.0, "dark_single": 180.0,
                    "visibility": 0.95, "phase_sigma": np.pi / 200,
                    "pair_rate": 2500.0, "n_intervals": 2,
                },
                "seed": 123,
            }
        )
    )
    return str(path)


class TestCli:
    def test_simulate_unseeded_is_a_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_simulate_default_grid(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "counts.csv").read_text().splitlines()
        # 7 phases x 6 states x 3 bases x 4 detector pairs x 12 intervals
        assert len(lines) == 1 + 6048
        assert lines[0] == "phase,input_state,basis,program_detector,data_detector,interval,count"
        assert "6048 records" in capsys.readouterr().out

    def test_simulate_byte_determinism(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["simulate", "--seed", "3", "--out", str(tmp_path / sub)]) == EXIT_OK
        a = (tmp_path / "a" / "counts.csv").read_bytes()
        b = (tmp_path / "b" / "counts.csv").read_bytes()
        assert a == b
        assert main(["simulate", "--seed", "4", "--out", str(tmp_path / "c")]) == EXIT_OK
        assert (tmp_path / "c" / "counts.csv").read_bytes() != a

    def test_simulate_with_phases_that_read_back_as_one_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plan": {"phases": [0.1, 0.1 + 1e-13]}, "noise": {"n_intervals": 1}, "seed": 0}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert "both read back as 0.1" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # neither counts.csv nor its temp file

    def test_staged_matches_one_shot_pipeline(self, small_config, tmp_path, capsys):
        staged = str(tmp_path / "staged")
        counts = f"{staged}/counts.csv"
        assert main(["simulate", "--config", small_config, "--out", staged]) == EXIT_OK
        assert main(["reconstruct", counts, "--config", small_config, "--out", staged]) == EXIT_OK
        assert main(["reconstruct", counts, "--config", small_config, "--out", staged,
                     "--no-feed-forward"]) == EXIT_OK
        assert main(["report", "--out", staged]) == EXIT_OK
        assert "F_chi" in capsys.readouterr().out

        oneshot = str(tmp_path / "oneshot")
        assert main(["pipeline", "--config", small_config, "--out", oneshot]) == EXIT_OK

        def rows(d):
            got = read_merit_csv(f"{d}/report.csv")
            return sorted(got, key=lambda r: (r.feed_forward_active, r.phi))

        for a, b in zip(rows(staged), rows(oneshot), strict=True):
            assert a.feed_forward_active == b.feed_forward_active
            assert a.phi == pytest.approx(b.phi, abs=1e-9)
            for field in ("F_chi", "F_av", "F_min", "P_av", "P_min"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-9)
            assert a.success_probability == pytest.approx(b.success_probability, abs=1e-7)

    def test_staged_files_equal_the_pipeline_files_byte_for_byte(self, tmp_path):
        # Calibrated seed 7: each fit ends bit for bit as it would alone, and report lists feed forward first.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": dataclasses.asdict(calibrated_noise()), "seed": 7}))
        oneshot, staged = tmp_path / "oneshot", tmp_path / "staged"
        assert main(["pipeline", "--config", str(cfg), "--out", str(oneshot)]) == EXIT_OK
        counts = str(staged / "counts.csv")
        assert main(["simulate", "--config", str(cfg), "--out", str(staged)]) == EXIT_OK
        for flags in ([], ["--no-feed-forward"]):
            assert main(["reconstruct", counts, "--config", str(cfg), "--out", str(staged), *flags]) == EXIT_OK
        assert main(["report", "--config", str(cfg), "--out", str(staged)]) == EXIT_OK
        names = sorted(path.name for path in oneshot.iterdir())
        assert names == sorted(path.name for path in staged.iterdir()) and len(names) == 2 * 7 * 7 + 3
        assert [name for name in names if (oneshot / name).read_bytes() != (staged / name).read_bytes()] == []

    def test_emit_flag_restricts_outputs(self, small_config, tmp_path):
        out = tmp_path / "emit"
        assert main(["pipeline", "--config", small_config, "--out", str(out),
                     "--emit", "counts,report"]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["counts.csv", "report.csv", "report.txt"]

    def test_no_feed_forward_pipeline(self, small_config, tmp_path):
        out = tmp_path / "noff"
        assert main(["pipeline", "--config", small_config, "--out", str(out),
                     "--no-feed-forward"]) == EXIT_OK
        rows = read_merit_csv(out / "report.csv")
        assert rows and all(not r.feed_forward_active for r in rows)
        assert all(abs(r.success_probability - 0.25) < 0.02 for r in rows)

    def test_unknown_emit_entry(self, tmp_path, capsys):
        code = main(["pipeline", "--seed", "1", "--out", str(tmp_path), "--emit", "verything"])
        assert code == EXIT_CONFIG
        assert "verything" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--no-feed-forward"), ("simulate", "--emit counts"), ("reconstruct", "--seed 1"),
         ("report", "--seed 1"), ("report", "--no-feed-forward"), ("report", "--emit report")],
    )
    def test_subcommands_reject_flags_they_ignore(self, tmp_path, capsys, command, flag):
        args = [command, *(["counts.csv"] if command == "reconstruct" else []), "--out", str(tmp_path), *flag.split()]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_emit_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--seed", "1", "--out", str(tmp_path), "--emit", ","])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --emit: emit list is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_phase_just_below_two_pi_reads_back_from_every_file(self, tmp_path, capsys):
        # At 12 digits 2*pi - 1e-13 rounds up to 6.28318530718, above 2*pi, which would read back as 4.1e-13.
        phases = (0.5, 2 * np.pi - 1e-13)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plan": {"phases": phases}, "noise": {"n_intervals": 2}, "seed": 1}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        in_memory = ExperimentPlan(phases=phases).phases
        spelled = "-1.00364161426e-13"
        assert (out / "choi_ff_p01.txt").read_text().startswith(f"phase {spelled}\n")
        assert (out / "state_noff_p01_plusi.txt").read_text().startswith(f"phase {spelled}\n")
        written = (out / "report.csv").read_bytes()
        assert [line.split(",")[0] for line in written.decode().splitlines()[1:]] == ["0.5", spelled] * 2
        assert [r.phi for r in read_merit_csv(out / "report.csv")] == list(in_memory) * 2
        assert [r.phi for r in collect_reports(str(out))[0]] == list(in_memory) * 2
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == EXIT_OK
        assert (out / "report.csv").read_bytes() == written
        assert "0.000000" not in capsys.readouterr().out

    def test_report_compares_phases_modulo_two_pi(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plan": {"phases": [0.0, 1.0]}, "noise": {"n_intervals": 2}, "seed": 1}))
        untouched, respelled = tmp_path / "untouched", tmp_path / "respelled"
        for out in (untouched, respelled):
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert main(["reconstruct", str(out / "counts.csv"), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        states = sorted(respelled.glob("state_ff_p00_*.txt"))
        assert len(states) == len(STATE_LABELS)
        for path in states:
            text = path.read_text()
            assert text.startswith("phase 0\n")
            path.write_text(text.replace("phase 0\n", "phase 6.283185307179586\n"))
        for out in (untouched, respelled):
            assert main(["report", "--out", str(out)]) == EXIT_OK
        assert (respelled / "report.csv").read_bytes() == (untouched / "report.csv").read_bytes()
        assert "warning" not in capsys.readouterr().err

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"noise": {"pair_rate": -3}}')
        assert main(["simulate", "--config", str(bad), "--seed", "1"]) == EXIT_CONFIG
        assert "pair_rate" in capsys.readouterr().err
        bad.write_text('{"seed": true, "noise": {"eta_p0": true}}')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "counts.csv").exists()

    @pytest.mark.parametrize("output_dir", [5, None, ""], ids=["5", "None", "empty"])
    def test_bad_output_dir_is_a_config_error(self, tmp_path, capsys, monkeypatch, output_dir):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "output_dir": output_dir}))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "output_dir must be a path string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_accidentals_above_the_pair_rate_are_a_config_error(self, tmp_path, capsys):
        # Dark counts far above the pair rate: 16.5 usable events per generated pair.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"pair_rate": 1.0, "dark_quad": 20000.0, "dark_single": 20000.0},
                                    "plan": {"phases": [0.0]}, "seed": 1}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: usable fraction 16.4552 is above 1") and "pair_rate * interval_s" in err
        assert not out.exists()

    def test_reconstruct_with_efficiencies_the_counts_lack_is_a_config_error(self, tmp_path, capsys):
        # Ideal counts read as if every detector had efficiency 1/2: usable fraction 0.5 / 0.25 = 2, up to noise.
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "1", "--out", str(out)]) == EXIT_OK
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"eta_p0": 0.5, "eta_d0": 0.5, "eta_d1": 0.5, "eta_p1": 0.5}}))
        capsys.readouterr()
        assert main(["reconstruct", str(out / "counts.csv"), "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: usable fraction 1.99982 is above 1")
        assert [p.name for p in out.iterdir()] == ["counts.csv"]

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_expected_count_beyond_exact_integers_is_a_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"pair_rate": 1e300}, "seed": 1}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: expected counts reach 7.5e+299, above 2**53")
        assert "pair_rate" in err and "interval_s" in err
        assert not out.exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-3", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "counts.csv").exists()

    def test_reconstruct_missing_and_truncated_csv(self, tmp_path, capsys):
        assert main(["reconstruct", str(tmp_path / "nope.csv")]) == EXIT_DATA
        short = tmp_path / "short.csv"
        short.write_text("phase,input_state,basis,program_detector,data_detector,interval,count\n"
                         "0,0,Z,D_p0,D_d0,0,5\n")
        assert main(["reconstruct", str(short), "--out", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("record", [b"0,0,Z,D_p0,D_d0,1000000000000000000,5", b"0,0,Z,D_p0,D_d0,0,5\xff"])
    def test_reconstruct_rejects_far_interval_and_non_utf8(self, tmp_path, capsys, record):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"phase,input_state,basis,program_detector,data_detector,interval,count\n" + record + b"\n")
        assert main(["reconstruct", str(path), "--out", str(tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_report_on_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_DATA
        assert "choi" in capsys.readouterr().err

    def test_report_on_missing_dir(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert main(["report", "--out", str(missing)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: not a directory: {missing}\n"
        assert not missing.exists()

    def test_reconstruct_header_only_csv(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("phase,input_state,basis,program_detector,data_detector,interval,count\n")
        assert main(["reconstruct", str(path), "--out", str(tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: count CSV contains no records\n"
        assert [p.name for p in tmp_path.iterdir()] == ["counts.csv"]

    def test_reconstruct_without_basis_y_is_an_incomplete_design(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plan": {"phases": [0.0], "bases": ["Z", "X"]}, "seed": 1}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["reconstruct", str(out / "counts.csv"), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: incomplete design: missing measurement bases ['Y']\n"
        assert [p.name for p in out.iterdir()] == ["counts.csv"]

    def test_reconstruct_with_zero_pair_rate_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "1", "--out", str(out)]) == EXIT_OK
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"pair_rate": 0}}))
        capsys.readouterr()
        assert main(["reconstruct", str(out / "counts.csv"), "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: pair_rate and interval_s must be positive")
        assert [p.name for p in out.iterdir()] == ["counts.csv"]

    def test_uncertified_fit_exits_4(self, small_config, tmp_path, capsys, monkeypatch):
        # One Newton step per pass leaves the fit uncertified.
        monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", small_config, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error: process reconstruction at phase index 0 "
                                                  "stopped uncertified (stalled)")
        assert not out.exists()

    def test_uncertified_table_names_every_uncertified_phase(self, tmp_path, capsys, monkeypatch):
        # With one Newton step per pass, phases 1, 2, 4 and 5 of criterion 1's dataset end uncertified and
        # phase 0 does not.  The batched fit of the table names each of them, in the words of its fit alone.
        monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
        noise = ideal_noise(pair_rate=16000.0)
        rescaled = rescale_efficiencies(simulate_counts(ExperimentPlan(), noise, 1), noise)
        alone = [ml_reconstruct_process(settings_for_phase(rescaled, pi)) for pi in range(len(rescaled.phases))]
        uncertified = [pi for pi, fit in enumerate(alone) if not fit.converged]
        assert len(uncertified) >= 2 and uncertified[0] > 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"pair_rate": 16000.0}, "seed": 1}))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical error: process reconstruction at " + "; ".join(
            f"phase index {pi} stopped uncertified ({alone[pi].stop_reason}) after {alone[pi].iterations} "
            f"iterations: certified gap {alone[pi].certified_gap:.3g} nats > {GAP_TOL:g}" for pi in uncertified) + "\n"

    def test_report_warns_on_variant_phase_mismatch(self, small_config, tmp_path, capsys):
        out = tmp_path / "warn"
        assert main(["pipeline", "--config", small_config, "--out", str(out)]) == EXIT_OK
        for path in list(out.iterdir()):
            if "_ff_p00" in path.name:
                text = path.read_text().replace("phase 0.7853", "phase 2.7853")
                (out / path.name.replace("_p00", "_p01")).write_text(text)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == EXIT_OK
        assert "differ" in capsys.readouterr().err


@pytest.fixture()
def ideal_files(tmp_path):
    """Choi and output-state files of the ideal gate at phi = 0, as ``report`` reads them."""
    save_choi(tmp_path / "choi_ff_p00.txt", ideal_choi(0.0), 0.0, 1, 0.0, feed_forward=1, success_probability=0.5)
    for label in STATE_LABELS:
        save_state(tmp_path / f"state_ff_p00_{STATE_FILE_LABELS[label]}.txt", density(label), 0.0, label,
                   feed_forward=1)
    return tmp_path


class TestReportRejectsNonPhysicalFiles:
    def test_ideal_files_pass(self, ideal_files, capsys):
        assert main(["report", "--out", str(ideal_files)]) == EXIT_OK
        assert "F_chi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, matrix, fragment",
        [
            ("state_ff_p00_plus.txt", 2 * density("+"), "density matrix trace must be 1, got 2"),
            # F_chi = 2: diag(1, 0, 0, 1) plus 3 on the |00><11| corners.
            ("choi_ff_p00.txt", [[1, 0, 0, 3], [0, 0, 0, 0], [0, 0, 0, 0], [3, 0, 0, 1]],
             "Choi matrix has negative eigenvalue -2.000e+00"),
            ("choi_ff_p00.txt", np.diag([1.2, 0.2, -0.2, 0.8]), "Choi matrix has negative eigenvalue -2.000e-01"),
        ],
        ids=["state_trace_2", "choi_F_chi_above_1", "choi_not_psd"],
    )
    def test_exits_3_naming_the_file(self, ideal_files, capsys, name, matrix, fragment):
        path = ideal_files / name
        if name.startswith("choi"):
            save_choi(path, matrix, 0.0, 1, 0.0)
        else:
            save_state(path, matrix, 0.0, "+")
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: {fragment}")
        assert not (ideal_files / "report.csv").exists()

    def test_missing_success_probability_exits_3_naming_the_file(self, ideal_files, capsys):
        path = ideal_files / "choi_ff_p00.txt"
        save_choi(path, ideal_choi(0.0), 0.0, 1, 0.0, feed_forward=1)
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: missing metadata key 'success_probability'")
        assert not (ideal_files / "report.csv").exists()

    def test_swapped_state_files_exit_3_naming_the_file(self, ideal_files, capsys):
        plus, minus = ideal_files / "state_ff_p00_plus.txt", ideal_files / "state_ff_p00_minus.txt"
        text = plus.read_text()
        plus.write_text(minus.read_text())
        minus.write_text(text)
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {plus}: input_state '-' does not match the file name")
        assert not (ideal_files / "report.csv").exists()

    @pytest.mark.parametrize(
        "name, fragment",
        [
            ("state_ff_p00_plus.txt", "metadata phase must be a finite number, got 'zero'"),
            ("choi_ff_p00.txt", "success_probability = 1.5 outside [0, 1]"),
        ],
        ids=["state_phase_zero", "choi_success_1.5"],
    )
    def test_malformed_metadata_exits_3_naming_the_file(self, ideal_files, capsys, name, fragment):
        path = ideal_files / name
        if name.startswith("choi"):
            save_choi(path, ideal_choi(0.0), 0.0, 1, 0.0, feed_forward=1, success_probability=1.5)
        else:
            path.write_text(path.read_text().replace("phase 0\n", "phase zero\n"))
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: {fragment}")
        assert not (ideal_files / "report.csv").exists()

    def test_two_choi_files_of_one_phase_exit_3_naming_both(self, ideal_files, capsys):
        # p0 and p00 are one phase index; neither file may silently win.
        kept, copy = ideal_files / "choi_ff_p00.txt", ideal_files / "choi_ff_p0.txt"
        save_choi(copy, ideal_choi(0.0), 0.0, 1, 0.0, feed_forward=1, success_probability=0.4)
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {copy} and {kept} both name ff phase index 0\n"
        assert not (ideal_files / "report.csv").exists()

    def test_two_state_files_of_one_phase_exit_3_naming_both(self, ideal_files, capsys):
        kept, copy = ideal_files / "state_ff_p00_plus.txt", ideal_files / "state_ff_p0_plus.txt"
        copy.write_bytes(kept.read_bytes())
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {kept} and {copy} both name ff phase index 0 input state +\n"
        assert not (ideal_files / "report.csv").exists()

    def test_state_phase_must_match_the_choi_file(self, ideal_files, capsys):
        path = ideal_files / "state_ff_p00_plus.txt"
        path.write_text(path.read_text().replace("phase 0\n", "phase 1\n"))
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        choi = ideal_files / "choi_ff_p00.txt"
        assert capsys.readouterr().err == f"data error: {path}: phase does not match {choi}\n"
        assert not (ideal_files / "report.csv").exists()

    @pytest.mark.parametrize("name", ["choi_ff_p00.txt", "state_ff_p00_plus.txt"])
    @pytest.mark.parametrize(
        "edit, fragment",
        [(lambda t: t.replace("feed_forward 1\n", "feed_forward 0\n"), "feed_forward 0 does not match the file name"),
         (lambda t: t.replace("feed_forward 1\n", ""), "missing metadata key 'feed_forward'")],
        ids=["noff_value", "missing"],
    )
    def test_feed_forward_metadata_must_match_the_file_name(self, ideal_files, capsys, name, edit, fragment):
        path = ideal_files / name
        path.write_text(edit(path.read_text()))
        assert main(["report", "--out", str(ideal_files)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: {fragment}")
        assert not (ideal_files / "report.csv").exists()

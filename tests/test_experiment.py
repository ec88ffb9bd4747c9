"""Coincidence simulation against Born-rule and Poisson-statistics oracles."""

import numpy as np
import pytest

from phasegate.errors import ConfigError, DataFormatError
from phasegate.experiment import (
    CSV_HEADER,
    CountTable,
    DEFAULT_PHASES,
    ExperimentPlan,
    NoiseConfig,
    calibrated_noise,
    ideal_noise,
    outcome_probabilities,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
    usable_fraction,
)
from phasegate.gate import gate_unitary
from phasegate.states import BASIS_OUTCOMES, ket


def born_oracle(psi_label, phi, basis, visibility=1.0):
    """Hand computation: U psi, damp coherences, project on the basis kets.

    Returns the 2x2 (program, data) probability table for unit
    efficiencies and no darks; both program branches are identical after
    the correction.
    """
    psi = gate_unitary(phi) @ ket(psi_label)
    rho = np.outer(psi, psi.conj())
    rho[0, 1] *= visibility
    rho[1, 0] *= visibility
    q = np.array([np.vdot(ket(lbl), rho @ ket(lbl)).real for lbl in BASIS_OUTCOMES[basis]])
    return 0.5 * np.vstack([q, q])


class TestOutcomeProbabilities:
    def test_identity_gate_on_eigenbasis(self):
        probs, rate = outcome_probabilities("+", 0.0, "X", ideal_noise())
        np.testing.assert_allclose(probs, [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)
        assert rate == pytest.approx(1000.0 * 0.5, abs=1e-9)

    def test_zero_state_in_z(self):
        probs, _ = outcome_probabilities("0", 2.0, "Z", ideal_noise())
        np.testing.assert_allclose(probs, [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)

    def test_visibility_wrong_port(self):
        v = 0.9
        probs, _ = outcome_probabilities("+", 0.0, "X", ideal_noise(visibility=v))
        # Wrong port picks up (1 - v)/2 per program branch.
        np.testing.assert_allclose(probs[:, 1], [0.5 * (1 - v) / 2] * 2, atol=1e-14)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-14)

    def test_matches_density_matrix_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            label = ["0", "1", "+", "-", "+i", "-i"][rng.integers(6)]
            basis = ["Z", "X", "Y"][rng.integers(3)]
            phi = rng.uniform(0, 2 * np.pi)
            v = rng.uniform(0.7, 1.0)
            probs, _ = outcome_probabilities(label, phi, basis, ideal_noise(visibility=v))
            np.testing.assert_allclose(probs, born_oracle(label, phi, basis, v), atol=1e-12)

    def test_branches_identical_after_correction(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            label = ["0", "1", "+", "-", "+i", "-i"][rng.integers(6)]
            basis = ["Z", "X", "Y"][rng.integers(3)]
            probs, _ = outcome_probabilities(label, rng.uniform(0, 2 * np.pi), basis, ideal_noise())
            np.testing.assert_allclose(probs[0], probs[1], atol=1e-12)

    def test_efficiency_weighting(self):
        probs, rate = outcome_probabilities("+", 0.0, "X", ideal_noise(eta_p1=0.5))
        # D_p1 branch halves; renormalized split becomes 2/3 vs 1/3.
        assert probs[0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1, 0] == pytest.approx(1 / 3, abs=1e-12)
        assert rate == pytest.approx(1000.0 * 0.5 * 0.75, abs=1e-9)

    def test_dark_rates_add(self):
        noise = ideal_noise(pair_rate=0.0, dark_quad=400.0, dark_single=180.0)
        probs, rate = outcome_probabilities("0", 0.0, "Z", noise)
        w = noise.coincidence_window
        expected = np.array(
            [[400 * 400 * w, 400 * 400 * w], [180 * 400 * w, 180 * 400 * w]]
        )
        assert rate == pytest.approx(expected.sum(), rel=1e-12)
        np.testing.assert_allclose(probs, expected / expected.sum(), atol=1e-12)

    def test_total_rate_monotone_in_darks(self):
        rates = []
        for dark in (0.0, 100.0, 400.0, 1000.0):
            _, rate = outcome_probabilities("+", 1.0, "Y", ideal_noise(dark_quad=dark))
            rates.append(rate)
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        plan = ExperimentPlan(phases=(0.0, np.pi), input_states=("+", "-i"), bases=("X", "Y"))
        noise = calibrated_noise(n_intervals=3)
        a = simulate_counts(plan, noise, 42)
        b = simulate_counts(plan, noise, 42)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = simulate_counts(plan, noise, 43)
        assert np.any(a.counts != c.counts)

    def test_noiseless_wrong_port_is_empty(self):
        plan = ExperimentPlan(phases=(0.0,), input_states=("+",), bases=("X",))
        noise = ideal_noise(pair_rate=1e6 / 36.0)  # 1e6 pairs over 12 x 3 s
        table = simulate_counts(plan, noise, 1)
        assert table.counts[..., 1, :].sum() == 0.0
        assert table.total() > 4.9e5

    def test_visibility_wrong_port_fraction(self):
        v = 0.98
        plan = ExperimentPlan(phases=(0.0,), input_states=("+",), bases=("X",))
        noise = ideal_noise(pair_rate=1e6 / 36.0, visibility=v)
        table = simulate_counts(plan, noise, 2)
        total = table.total()
        wrong = table.counts[..., 1, :].sum()
        p = (1 - v) / 2
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(wrong / total - p) < 5 * sigma

    def test_phase_jitter_spreads_counts(self):
        plan = ExperimentPlan(phases=(0.0,), input_states=("+",), bases=("X",))
        steady = simulate_counts(plan, ideal_noise(pair_rate=5000.0), 3)
        jittery = simulate_counts(plan, ideal_noise(pair_rate=5000.0, phase_sigma=0.5), 3)
        assert steady.counts[..., 1, :].sum() == 0.0
        assert jittery.counts[..., 1, :].sum() > 0.0

    def test_empirical_frequencies_converge_to_born(self):
        plan = ExperimentPlan(phases=(np.pi / 3,), input_states=("+i",), bases=("Y",))
        noise = ideal_noise(pair_rate=2e6 / 36.0)
        table = simulate_counts(plan, noise, 4)
        probs, _ = outcome_probabilities("+i", np.pi / 3, "Y", noise)
        n = table.total()
        freq = table.setting_counts(0, 0, 0) / n
        bound = 5 * np.sqrt(np.clip(probs * (1 - probs), 1e-12, None) / n)
        assert np.all(np.abs(freq - probs) <= bound)


class TestRescale:
    def test_uniform_efficiency_scales_all(self):
        plan = ExperimentPlan(phases=(1.0,), input_states=("+",), bases=("Z", "X", "Y"))
        table = simulate_counts(plan, ideal_noise(), 5)
        rescaled = rescale_efficiencies(table, ideal_noise(eta_p0=0.5, eta_p1=0.5, eta_d0=0.5, eta_d1=0.5))
        np.testing.assert_allclose(rescaled.counts, table.counts * 4.0, atol=1e-9)

    def test_single_detector_rescale(self):
        plan = ExperimentPlan(phases=(1.0,), input_states=("0",), bases=("Z",))
        table = simulate_counts(plan, ideal_noise(), 6)
        rescaled = rescale_efficiencies(table, ideal_noise(eta_p1=0.5))
        np.testing.assert_allclose(rescaled.counts[..., 0, :, :], table.counts[..., 0, :, :])
        np.testing.assert_allclose(rescaled.counts[..., 1, :, :], table.counts[..., 1, :, :] * 2.0)

    def test_rescaled_simulation_matches_equal_efficiency_run(self):
        """Paired-simulation oracle: rescaling removes the detector bias."""
        plan = ExperimentPlan(phases=(np.pi / 2,), input_states=("+", "-i"), bases=("X", "Y"))
        lossy = ideal_noise(pair_rate=30000.0, eta_p0=0.9, eta_p1=0.5, eta_d0=0.8, eta_d1=0.6)
        clean = ideal_noise(pair_rate=30000.0)
        rescaled = rescale_efficiencies(simulate_counts(plan, lossy, 7), lossy)
        reference = simulate_counts(plan, clean, 8)
        for si in range(2):
            for bi in range(2):
                a = rescaled.setting_counts(0, si, bi)
                b = reference.setting_counts(0, si, bi)
                w = np.outer([0.9, 0.5], [0.8, 0.6])
                var = a * w / w**2 + b  # var of n/w is n/w^2 with n raw counts
                bound = 5 * np.sqrt(np.clip(var, 1.0, None))
                assert np.all(np.abs(a - b) <= bound)

    def test_zero_efficiency_rejected(self):
        table = simulate_counts(ExperimentPlan(phases=(0.0,)), ideal_noise(n_intervals=1), 9)
        with pytest.raises(ConfigError, match="eta_d1"):
            rescale_efficiencies(table, ideal_noise(eta_d1=0.0))


class TestSelectWithoutFeedForward:
    def test_halves_equal_branches(self):
        plan = ExperimentPlan(phases=(0.5,), input_states=("+",), bases=("X",))
        table = simulate_counts(plan, ideal_noise(pair_rate=40000.0), 10)
        kept = select_without_feedforward(table)
        assert kept.counts[:, :, :, 1].sum() == 0.0
        np.testing.assert_allclose(kept.counts[:, :, :, 0], table.counts[:, :, :, 0])
        # Branches are statistically even, so about half the data survives.
        assert kept.total() / table.total() == pytest.approx(0.5, abs=0.01)

    def test_empty_table_stays_empty(self):
        table = CountTable((0.0,), ("0",), ("Z",), np.zeros((1, 1, 1, 2, 2, 1)))
        assert select_without_feedforward(table).total() == 0.0

    def test_retained_branch_follows_plus_statistics(self):
        # At phi = pi the uncorrected D_p1 branch would look phase flipped;
        # the D_p0 selection must match the ideal U(pi) statistics.
        plan = ExperimentPlan(phases=(np.pi,), input_states=("+",), bases=("X",))
        noise = ideal_noise(pair_rate=40000.0)
        kept = select_without_feedforward(simulate_counts(plan, noise, 11))
        block = kept.setting_counts(0, 0, 0)
        # U(pi)|+> = |->: all data counts on D_d1.
        assert block[0, 0] == 0.0
        assert block[0, 1] > 0.0


class TestUsableFraction:
    def test_feed_forward_half(self):
        table = simulate_counts(ExperimentPlan(), ideal_noise(), 12)
        frac = usable_fraction(table, ideal_noise())
        n = ideal_noise().pair_rate * 36 * ExperimentPlan().n_settings
        assert abs(frac - 0.5) < 3 * np.sqrt(0.5 * n) / n

    def test_without_feed_forward_quarter(self):
        table = simulate_counts(ExperimentPlan(), ideal_noise(), 12)
        frac = usable_fraction(select_without_feedforward(table), ideal_noise())
        n = ideal_noise().pair_rate * 36 * ExperimentPlan().n_settings
        assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * n) / n


class TestCountTableCsv:
    def test_default_plan_row_count(self, tmp_path):
        table = simulate_counts(ExperimentPlan(), ideal_noise(pair_rate=10.0), 13)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 7 * 6 * 3 * 4 * 12

    def test_minimal_plan_row_count(self, tmp_path):
        plan = ExperimentPlan(phases=(0.0,), input_states=("0",), bases=("Z",))
        table = simulate_counts(plan, ideal_noise(n_intervals=1), 14)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        assert len(path.read_text().splitlines()) == 1 + 4

    def test_round_trip_integers_exact(self, tmp_path):
        plan = ExperimentPlan(phases=(0.0, np.pi / 6), input_states=("+", "1"), bases=("X", "Z"))
        table = simulate_counts(plan, calibrated_noise(n_intervals=2), 15)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        back = CountTable.from_csv(path)
        assert back.input_states == table.input_states
        assert back.bases == table.bases
        np.testing.assert_array_equal(back.counts, table.counts)
        np.testing.assert_allclose(back.phases, table.phases, rtol=1e-11)

    def test_round_trip_rescaled_reals(self, tmp_path):
        plan = ExperimentPlan(phases=(1.0,), input_states=("+",), bases=("Y",))
        table = rescale_efficiencies(simulate_counts(plan, calibrated_noise(n_intervals=1), 16), calibrated_noise())
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        np.testing.assert_allclose(CountTable.from_csv(path).counts, table.counts, rtol=1e-11)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase,input_state\n")
        with pytest.raises(DataFormatError, match="header"):
            CountTable.from_csv(path)

    def test_missing_record_rejected(self, tmp_path):
        plan = ExperimentPlan(phases=(0.0,), input_states=("0",), bases=("Z",))
        table = simulate_counts(plan, ideal_noise(n_intervals=1), 17)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError, match="missing"):
            CountTable.from_csv(path)

    def test_duplicate_record_rejected(self, tmp_path):
        plan = ExperimentPlan(phases=(0.0,), input_states=("0",), bases=("Z",))
        table = simulate_counts(plan, ideal_noise(n_intervals=1), 18)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            CountTable.from_csv(path)

    def test_phase_spellings_merge(self, tmp_path):
        # "0", "0.0" and 2*pi all name phase 0; their records form one phase.
        plan = ExperimentPlan(phases=(0.0,), input_states=("0",), bases=("Z",))
        table = simulate_counts(plan, ideal_noise(n_intervals=3), 19)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        spellings = ["0", "0.0", repr(2 * np.pi)]
        rows = [f"{spellings[int(ln.split(',')[5])]}{ln[1:]}" for ln in lines[1:]]
        path.write_text("\n".join([lines[0]] + rows) + "\n")
        back = CountTable.from_csv(path)
        assert back.phases == (0.0,)
        np.testing.assert_array_equal(back.counts, table.counts)

    def test_duplicate_across_phase_spellings_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(CSV_HEADER + "\n0,0,Z,D_p0,D_d0,0,5\n0.0,0,Z,D_p0,D_d0,0,5\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            CountTable.from_csv(path)

    def test_non_finite_phase_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nnan,0,Z,D_p0,D_d0,0,5\n")
        with pytest.raises(DataFormatError, match="phase"):
            CountTable.from_csv(path)

    def test_unknown_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,q,Z,D_p0,D_d0,0,5\n")
        with pytest.raises(DataFormatError, match="input_state"):
            CountTable.from_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,0,Z,D_p0,D_d0,0,-3\n")
        with pytest.raises(DataFormatError, match="count"):
            CountTable.from_csv(path)


class TestConfigValidation:
    def test_noise_field_ranges(self):
        with pytest.raises(ConfigError, match="visibility"):
            NoiseConfig(visibility=1.2)
        with pytest.raises(ConfigError, match="eta_p0"):
            NoiseConfig(eta_p0=-0.1)
        with pytest.raises(ConfigError, match="pair_rate"):
            NoiseConfig(pair_rate=-5.0)
        with pytest.raises(ConfigError, match="n_intervals"):
            NoiseConfig(n_intervals=0)

    def test_plan_defaults(self):
        plan = ExperimentPlan()
        assert len(plan.phases) == 7
        np.testing.assert_allclose(plan.phases, DEFAULT_PHASES)
        assert len(plan.input_states) == 6
        assert plan.bases == ("Z", "X", "Y")

    def test_plan_rejects_bad_entries(self):
        with pytest.raises(ConfigError, match="input_states"):
            ExperimentPlan(input_states=("0", "q"))
        with pytest.raises(ConfigError, match="duplicates"):
            ExperimentPlan(phases=(0.0, 2 * np.pi))

    def test_calibrated_preset_values(self):
        noise = calibrated_noise()
        assert (noise.eta_p0, noise.eta_d0, noise.eta_d1, noise.eta_p1) == (0.55, 0.55, 0.55, 0.5)
        assert (noise.dark_quad, noise.dark_single) == (400.0, 180.0)
        assert noise.phase_sigma == pytest.approx(np.pi / 200)
        assert 0.9 < noise.visibility < 1.0

"""Coincidence simulation against Born-rule and Poisson-statistics oracles."""

import dataclasses
import itertools
import math
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasegate import experiment
from phasegate.errors import ConfigError, DataFormatError
from phasegate.experiment import (
    CSV_HEADER,
    DATA_DETECTORS,
    PROGRAM_DETECTORS,
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
    _format_count,
    _numbers,
    usable_fraction,
)
from phasegate.gate import canonical_phase, gate_unitary
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS, ket


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


def row_by_row(path):
    """Read a count CSV one record at a time: the oracle for the columnar parse.

    Returns a CountTable, or the DataFormatError message that the file
    deserves.  Expects a good header and no interval beyond 10**6.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    phases, states, bases, records = {}, {}, {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 7:
            return f"line {lineno}: expected 7 fields, got {len(fields)}"
        try:
            phi = canonical_phase(float(fields[0]))
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            return f"line {lineno}: bad phase {fields[0]!r}"
        phase = phases.setdefault(phi, len(phases))
        allowed_labels = (STATE_LABELS, BASIS_LABELS, PROGRAM_DETECTORS, DATA_DETECTORS)
        names = ("input_state", "basis", "program_detector", "data_detector")
        for value, allowed, name in zip(fields[1:5], allowed_labels, names):
            if value not in allowed:
                return f"line {lineno}: unknown {name} {value!r}"
        interval_s, count_s = fields[5:]
        try:
            interval, count = int(interval_s), float(count_s)
        except ValueError:
            return f"line {lineno}: bad interval/count {interval_s!r},{count_s!r}"
        if interval < 0:
            return f"line {lineno}: negative interval {interval}"
        if not math.isfinite(count) or count < 0:
            return f"line {lineno}: bad count {count_s!r}"
        key = (phase, *fields[1:5], interval)
        if key in records:
            return f"line {lineno}: duplicate record for {key}"
        records[key] = count
        states.setdefault(fields[1], len(states))
        bases.setdefault(fields[2], len(bases))
    counts = np.full((len(phases), len(states), len(bases), 2, 2, 1 + max(k[5] for k in records)), np.nan)
    for (p, s, b, dp, dd, t), c in records.items():
        counts[p, states[s], bases[b], PROGRAM_DETECTORS.index(dp), DATA_DETECTORS.index(dd), t] = c
    if np.isnan(counts).any():
        return f"count CSV is missing {np.isnan(counts).sum()} records (index coverage incomplete)"
    return CountTable(tuple(phases), tuple(states), tuple(bases), counts)


def _reference_to_csv(self, path):
    """The row-loop body that ``CountTable.to_csv`` had, verbatim: the byte-for-byte oracle for the columnar write."""
    keys = itertools.product(
        [f"{phi:.12g}" for phi in self.phases], self.input_states, self.bases, PROGRAM_DETECTORS, DATA_DETECTORS
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for key, block in zip(keys, self.counts.reshape(-1, self.n_intervals)):
            prefix = ",".join(key)
            f.writelines(f"{prefix},{t},{_format_count(c)}\n" for t, c in enumerate(block.tolist()))


def written_bytes(table):
    """The bytes that ``CountTable.to_csv`` and :func:`_reference_to_csv` write for ``table``, in that order."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        table.to_csv(ours)
        _reference_to_csv(table, reference)
        return ours.read_bytes(), reference.read_bytes()


def one_stream_reference(plan, noise, seed):
    """Rebuild a dataset from the documented stream contract, one setting and interval at a time.

    One generator, ``default_rng((seed, crc32(b"simulate")))``, draws the
    phase jitter of every (phase, state, basis, interval), then one Poisson
    count per record in the C order of the (phase, state, basis, D_p, D_d,
    interval) grid, with mean ``probs * total_rate * interval_s`` from
    :func:`outcome_probabilities` at the jittered phase.
    """
    rng = np.random.default_rng((seed, zlib.crc32(b"simulate")))
    jitter = rng.normal(0.0, noise.phase_sigma, (len(plan.phases), len(plan.input_states), len(plan.bases),
                                                 noise.n_intervals))
    mean = np.zeros(jitter.shape[:3] + (2, 2, noise.n_intervals))
    for (pi, phi), (si, label), (bi, basis) in itertools.product(
            enumerate(plan.phases), enumerate(plan.input_states), enumerate(plan.bases)):
        for t in range(noise.n_intervals):
            probs, total_rate = outcome_probabilities(label, phi + jitter[pi, si, bi, t], basis, noise)
            mean[pi, si, bi, :, :, t] = probs * total_rate * noise.interval_s
    return rng.poisson(mean)


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
        phis = rng.uniform(-1.0, 7.0, 5)
        for label in STATE_LABELS:
            for basis in BASIS_OUTCOMES:
                probs, rates = outcome_probabilities(label, phis, basis, ideal_noise(visibility=0.9))
                assert probs.shape == (5, 2, 2) and rates.shape == (5,)
                for p, phi in zip(probs, phis):
                    np.testing.assert_allclose(p, born_oracle(label, phi, basis, 0.9), atol=1e-12)

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

    def test_zero_rate_and_unknown_basis(self):
        probs, rate = outcome_probabilities("+", 1.0, "X", ideal_noise(pair_rate=0.0))
        np.testing.assert_array_equal(probs, np.full((2, 2), 0.25))
        assert isinstance(rate, float) and rate == 0.0
        plan = ExperimentPlan(phases=(1.0,), input_states=("+",), bases=("X",))
        assert simulate_counts(plan, ideal_noise(pair_rate=0.0, phase_sigma=0.1), 7).total() == 0.0
        with pytest.raises(ConfigError, match="basis"):
            outcome_probabilities("+", 1.0, "W", ideal_noise())

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

    @pytest.mark.parametrize(
        "plan, noise",
        [(ExperimentPlan(), calibrated_noise()),
         (ExperimentPlan(phases=(np.pi, 0.3), input_states=("+i", "0"), bases=("Y", "Z")), calibrated_noise()),
         (ExperimentPlan(), calibrated_noise(pair_rate=0.0))],
        ids=["default", "reordered_subset", "pair_rate_0"],
    )
    def test_matches_one_stream_reference(self, plan, noise):
        assert np.array_equal(simulate_counts(plan, noise, 11).counts, one_stream_reference(plan, noise, 11))

    def test_expected_counts_match_outcome_probabilities(self):
        # The one closed-form pass gives every record the mean that the per-setting probabilities give.
        plan = ExperimentPlan(phases=(2.0, 0.0, np.pi), input_states=("-i", *STATE_LABELS[:5]), bases=("Y", "Z", "X"))
        noise = calibrated_noise(visibility=0.9, eta_d1=0.4)
        phi = np.array(plan.phases)[:, None, None, None] + np.random.default_rng(5).normal(0.0, 0.3, (3, 6, 3, 4))
        mean = experiment._expected_counts(plan, noise, phi)
        assert mean.shape == (3, 6, 3, 2, 2, 4)
        grid = itertools.product(range(3), enumerate(plan.input_states), enumerate(plan.bases))
        for pi, (si, label), (bi, basis) in grid:
            probs, total_rate = outcome_probabilities(label, phi[pi, si, bi], basis, noise)
            expected = np.moveaxis(probs * total_rate[:, None, None] * noise.interval_s, 0, -1)
            np.testing.assert_allclose(mean[pi, si, bi], expected, rtol=1e-15, atol=0.0)

    def test_pair_counts_are_independent_poisson(self):
        # One steady setting over many intervals: each pair's count has its Poisson mean and a variance equal to
        # it, and the four pairs are uncorrelated.
        plan = ExperimentPlan(phases=(0.0,), input_states=("+",), bases=("Y",))
        n = 20000
        noise = calibrated_noise(phase_sigma=0.0, n_intervals=n)
        counts = simulate_counts(plan, noise, 31).counts.reshape(4, n)
        probs, total_rate = outcome_probabilities("+", 0.0, "Y", noise)
        for row, lam in zip(counts, (probs * total_rate * noise.interval_s).ravel()):
            assert abs(row.mean() - lam) < 4 * np.sqrt(lam / n)
            assert abs(row.var(ddof=1) / row.mean() - 1.0) < 4 * np.sqrt((2.0 + 1.0 / lam) / n)
        correlation = np.corrcoef(counts)[np.triu_indices(4, 1)]
        assert np.all(np.abs(correlation) < 4 / np.sqrt(n))

    def test_expected_count_beyond_exact_integers_is_a_config_error(self):
        plan = ExperimentPlan(phases=(0.0,), input_states=("+",), bases=("X",))
        # The D_d0 record's mean is pair_rate * interval_s / 4: 2**52 is drawn, just above 2**53 is refused, and so
        # are 1e300 pairs per second and a mean that is not a number (infinite darks over zero seconds).
        assert simulate_counts(plan, ideal_noise(pair_rate=2.0**54, interval_s=1.0), 1).counts.max() > 2.0**51
        for noise in (ideal_noise(pair_rate=2.0**55 * (1 + 1e-9), interval_s=1.0), ideal_noise(pair_rate=1e300),
                      ideal_noise(dark_quad=1e300, interval_s=0.0)):
            with pytest.raises(ConfigError, match="above 2\\*\\*53: lower pair_rate or interval_s"):
                simulate_counts(plan, noise, 1)

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
        freq = table.counts[0, 0, 0].sum(axis=2) / n
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
                a = rescaled.counts[0, si, bi].sum(axis=2)
                b = reference.counts[0, si, bi].sum(axis=2)
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
        block = kept.counts[0, 0, 0].sum(axis=2)
        # U(pi)|+> = |->: all data counts on D_d1.
        assert block[0, 0] == 0.0
        assert block[0, 1] > 0.0


class TestUsableFraction:
    def test_feed_forward_half(self):
        table = simulate_counts(ExperimentPlan(), ideal_noise(), 12)
        frac = usable_fraction(table, ideal_noise())
        n = ideal_noise().pair_rate * 36 * table.counts[..., 0, 0, 0].size  # pairs per setting x settings
        assert abs(frac - 0.5) < 3 * np.sqrt(0.5 * n) / n

    def test_without_feed_forward_quarter(self):
        table = simulate_counts(ExperimentPlan(), ideal_noise(), 12)
        frac = usable_fraction(select_without_feedforward(table), ideal_noise())
        n = ideal_noise().pair_rate * 36 * table.counts[..., 0, 0, 0].size  # pairs per setting x settings
        assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * n) / n


@pytest.mark.parametrize(
    "counts, message",
    [
        (np.ones((1, 1, 1, 2, 2)),
         "counts shape (1, 1, 1, 2, 2) does not match index space (1, 1, 1, 2, 2) + intervals"),
        (np.ones((1, 1, 1, 2, 2, 0)), "count table needs at least one interval"),
        (np.full((1, 1, 1, 2, 2, 1), -1.0), "counts must be finite and non-negative"),
        (np.full((1, 1, 1, 2, 2, 1), np.nan), "counts must be finite and non-negative"),
    ],
    ids=["shape", "no_interval", "negative", "nan"],
)
def test_count_table_built_directly_checks_its_counts(counts, message):
    with pytest.raises(DataFormatError) as info:
        CountTable((0.0,), ("0",), ("Z",), counts)
    assert str(info.value) == message


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

    def test_round_trip_bytes_identical(self, tmp_path):
        counts = np.random.default_rng(19).uniform(0.0, 1000.0, (2, 2, 1, 2, 2, 3))
        counts[..., 0] = np.round(counts[..., 0])
        table = CountTable((0.123456789012, 2 * np.pi / 3), ("+", "-i"), ("Y",), counts)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        table.to_csv(first)
        CountTable.from_csv(first).to_csv(second)
        assert second.read_bytes() == first.read_bytes()

    # Values whose spelling takes each branch of the count format: whole counts below 2**53, whole counts at
    # and beyond it, which Python's int spells in full, signed zero, and non-integers at 12 significant digits.
    _COUNT = st.sampled_from([0.0, -0.0, 1.0, 7.0, 2.0 ** 53, 1e20, 0.5, 1 / 3, 1e-300]) | st.integers(0, 10 ** 6).map(
        float) | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phases=st.lists(st.sampled_from(DEFAULT_PHASES + (0.123456789012, 1.0, 6.2)), min_size=1, max_size=2,
                           unique=True),
           states=st.lists(st.sampled_from(STATE_LABELS), min_size=1, max_size=3, unique=True),
           bases=st.lists(st.sampled_from(BASIS_LABELS), min_size=1, max_size=2, unique=True),
           n_intervals=st.integers(1, 12) | st.integers(1, 1100),
           pool=st.lists(_COUNT, min_size=1, max_size=6), fill=st.integers(0, 2 ** 32 - 1))
    @example(phases=[0.0], states=["0"], bases=["Z"], n_intervals=1, pool=[0.0, 1.0, 3.0], fill=0)
    @example(phases=[1.0], states=["+"], bases=["X"], n_intervals=3, pool=[2.0 ** 53, 1e20], fill=1)
    @example(phases=[1.0], states=["-i"], bases=["Y"], n_intervals=2, pool=[-0.0, 0.0, 4.0], fill=2)
    @example(phases=[0.5], states=["1"], bases=["Z"], n_intervals=10, pool=[0.1, 1 / 3, 2.5e-7], fill=3)
    @example(phases=[0.0, 2.0], states=["0", "+i"], bases=["Y", "X"], n_intervals=1001, pool=[0.0, 5.0, 12.75, 1e20],
             fill=4)
    def test_write_is_byte_identical_to_the_row_loop(self, phases, states, bases, n_intervals, pool, fill):
        shape = (len(phases), len(states), len(bases), 2, 2, n_intervals)
        counts = np.random.default_rng(fill).choice(np.array(pool), size=shape)
        ours, reference = written_bytes(CountTable(tuple(phases), tuple(states), tuple(bases), counts))
        assert ours == reference

    def test_staged_fine_table_written_byte_identically(self):
        noise = calibrated_noise(n_intervals=240, interval_s=0.15)
        table = simulate_counts(ExperimentPlan(), noise, 0)
        for written in (table, rescale_efficiencies(table, noise)):
            ours, reference = written_bytes(written)
            assert ours == reference

    def test_phases_that_read_back_as_one_are_rejected_before_writing(self, tmp_path):
        table = simulate_counts(ExperimentPlan(phases=(0.1, 0.1 + 1e-13)), ideal_noise(n_intervals=1), 0)
        path = tmp_path / "counts.csv"
        with pytest.raises(DataFormatError, match=r"^phases 0\.1 and 0\.10000000000010001 both read back as 0\.1$"):
            table.to_csv(path)
        assert not path.exists()

    # Each table would write a count CSV that from_csv refuses, or reads back with other phases.
    @pytest.mark.parametrize("phases, states, bases, message", [
        ((math.nan,), ("0",), ("Z",), "phases entries must be finite"),
        ((0.0,), ("bogus",), ("Z",), "input_states must be distinct entries"),
        ((0.0,), ("0", "0"), ("Z",), "input_states must be distinct entries"),
        ((0.0,), ("0",), ("W",), "bases must be distinct entries"),
        ((), ("0",), ("Z",), "phases must be non-empty"),
        ((0.0,), (), ("Z",), "input_states must be distinct entries"),
        ((0.0, 2 * np.pi), ("0",), ("Z",), "phases contains duplicates"),
    ], ids=["nan-phase", "unknown-state", "repeated-state", "unknown-basis", "no-phases", "no-states",
            "phases-one-modulo-2pi"])
    def test_table_whose_csv_would_not_read_back_is_rejected(self, phases, states, bases, message):
        with pytest.raises(DataFormatError, match=message):
            CountTable(phases, states, bases, np.zeros((len(phases), len(states), len(bases), 2, 2, 1)))

    def test_phases_are_stored_canonical_and_read_back_as_stored(self, tmp_path):
        table = CountTable((-0.5, 7.0), ("0",), ("Z",), np.ones((2, 1, 1, 2, 2, 1)))
        assert table.phases == (canonical_phase(-0.5), canonical_phase(7.0))
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        np.testing.assert_allclose(CountTable.from_csv(path).phases, table.phases, rtol=0, atol=1e-11)

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

    @staticmethod
    def _rejection(tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataFormatError) as info:
            CountTable.from_csv(path)
        return str(info.value)

    GOOD = "0,0,Z,D_p0,D_d0,0,5"
    LABEL_FAULT = "0,q,Z,D_p0,D_d0,1,5"
    COUNT_FAULT = "0,0,Z,D_p0,D_d0,2,-3"

    def test_earlier_of_two_faulty_lines_is_reported(self, tmp_path):
        msg = self._rejection(tmp_path, [self.GOOD, self.LABEL_FAULT, self.COUNT_FAULT])
        assert msg == "line 3: unknown input_state 'q'"
        msg = self._rejection(tmp_path, [self.GOOD, self.COUNT_FAULT, self.LABEL_FAULT])
        assert msg == "line 3: bad count '-3'"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,q,Z,D_p0,D_d0,x,5", "bad phase 'nan'"),
            ("0,q,W,D_p0,D_d0,x,5", "unknown input_state 'q'"),
            ("0,0,W,D_p9,D_d0,x,5", "unknown basis 'W'"),
            ("0,0,Z,D_p9,D_d9,x,5", "unknown program_detector 'D_p9'"),
            ("0,0,Z,D_p0,D_d9,x,5", "unknown data_detector 'D_d9'"),
            ("0,0,Z,D_p0,D_d0,x,-3", "bad interval/count 'x','-3'"),
            ("0,0,Z,D_p0,D_d0,-1,-3", "negative interval -1"),
            ("0,0,Z,D_p0,D_d0,0,inf", "bad count 'inf'"),
            ("abc,q,Z,D_p0,D_d0,x,5", "bad phase 'abc'"),
        ],
    )
    def test_check_order_within_one_line(self, tmp_path, row, message):
        # The second row also repeats the first row's key where its fields parse.
        assert self._rejection(tmp_path, [self.GOOD, row]) == f"line 3: {message}"

    @pytest.mark.parametrize("row, n", [("0,0,Z,D_p0,D_d0,5", 6), ("0,0,Z,D_p0,D_d0,0,5,7", 8), (" ", 1)])
    def test_field_count_named(self, tmp_path, row, n):
        assert self._rejection(tmp_path, [self.GOOD, row]) == f"line 3: expected 7 fields, got {n}"

    def test_crlf_and_blank_lines_parse_to_the_same_table(self, tmp_path):
        plan = ExperimentPlan(phases=(0.0, 1.0), input_states=("0", "+i"), bases=("Z", "Y"))
        table = simulate_counts(plan, ideal_noise(n_intervals=2), 23)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        spaced = [lines[0]] + [x for ln in lines[1:] for x in ("", ln)] + ["", ""]
        for newline in ("\r\n", "\r"):
            path.write_bytes((newline.join(spaced) + newline).encode())
            back = CountTable.from_csv(path)
            assert (back.phases, back.input_states, back.bases) == (table.phases, table.input_states, table.bases)
            np.testing.assert_array_equal(back.counts, table.counts)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        plan = ExperimentPlan(phases=(0.0, 1.0), input_states=("0", "+i"), bases=("Z", "Y"))
        table = simulate_counts(plan, ideal_noise(n_intervals=2), 23)
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        text = path.read_bytes()
        path.write_bytes("\ufeff".encode() + text)
        back = CountTable.from_csv(path)
        assert (back.phases, back.input_states, back.bases) == (table.phases, table.input_states, table.bases)
        np.testing.assert_array_equal(back.counts, table.counts)
        # The byte offset of a later encoding fault still counts the mark's three bytes.
        path.write_bytes("\ufeff".encode() + text + b"\xff\n")
        with pytest.raises(DataFormatError, match=f"not UTF-8.*byte {3 + len(text)}$"):
            CountTable.from_csv(path)

    def test_duplicate_across_phase_spellings_names_the_key(self, tmp_path):
        rows = ["1,0,Z,D_p0,D_d0,0,5", "0,0,Z,D_p0,D_d0,0,5", repr(2 * np.pi) + ",0,Z,D_p0,D_d0,0,6"]
        assert self._rejection(tmp_path, rows) == "line 4: duplicate record for (1, '0', 'Z', 'D_p0', 'D_d0', 0)"

    def test_matches_row_by_row_reference(self, tmp_path):
        rng = np.random.default_rng(29)
        junk = ["", "x", "-1", "0", "nan", "inf", "+3", " 4", "1_0", "2.5", "\u0663", "1e400", "q", "D_p1", "Y",
                "6.283185307179586", "007", "5.", ".5", ".", "1.2.3", "2.5e-07", "\t3", "Z ", '"Z"', "\x00"]
        # Counts only: as an interval, each would ask the reference for 10**14 records or more.
        long_counts = ["123456789012345", "1234567.8901234", "1234567890123456", "1234567890123456789"]
        path = tmp_path / "table.csv"
        rejected = 0
        for trial in range(200):
            n_phases, n_states, n_bases = rng.integers(1, 3, size=3)
            plan = ExperimentPlan(phases=(0.0, 1.0)[:n_phases], input_states=("+i", "0")[:n_states],
                                  bases=("Y", "Z")[:n_bases])
            simulate_counts(plan, ideal_noise(n_intervals=int(rng.integers(1, 3)), pair_rate=30.0), trial).to_csv(path)
            header, *rows = path.read_text().splitlines()
            rng.shuffle(rows)
            for _ in range(rng.integers(0, 3)):
                i = int(rng.integers(len(rows)))
                fields = rows[i].split(",")
                kind = rng.integers(4)
                if kind == 0:
                    field = int(rng.integers(len(fields)))
                    fields[field] = str(rng.choice(junk + long_counts if field == 6 else junk))
                elif kind == 1:
                    fields = fields[:-1] if rng.integers(2) else fields + ["1"]
                elif kind == 2:
                    rows.insert(int(rng.integers(len(rows) + 1)), rows[i])
                if kind == 3:
                    del rows[i]
                else:
                    rows[i] = ",".join(fields)
            rows.insert(int(rng.integers(len(rows) + 1)), "")
            path.write_bytes(("\r\n".join([header] + rows) + "\r\n").encode())
            expected = row_by_row(path)
            try:
                got = CountTable.from_csv(path)
            except DataFormatError as exc:
                got = str(exc)
                rejected += 1
            if isinstance(expected, str):
                assert got == expected
            else:
                assert got.phases == expected.phases
                assert (got.input_states, got.bases) == (expected.input_states, expected.bases)
                assert got.counts.tobytes() == expected.counts.tobytes()
        assert 50 < rejected < 150

    def test_interval_far_beyond_the_records_is_missing_coverage(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text(CSV_HEADER + "\n0,0,Z,D_p0,D_d0,1000000000000000000,5\n")
        with pytest.raises(DataFormatError, match="missing 4000000000000000003 records"):
            CountTable.from_csv(path)

    def test_duplicate_beside_a_missing_row_is_named(self, tmp_path):
        # Four records for four keys: the coverage count is exact, yet D_p1,D_d1 is missing.
        rows = ["0,0,Z,D_p0,D_d1,0,5", self.GOOD, "0,0,Z,D_p0,D_d1,0,6", "0,0,Z,D_p1,D_d0,0,5"]
        assert self._rejection(tmp_path, rows) == "line 4: duplicate record for (0, '0', 'Z', 'D_p0', 'D_d1', 0)"

    def test_far_interval_on_a_later_detector_pair_is_missing_coverage(self, tmp_path):
        # Setting 1 times 2**62 + 1 intervals lies beyond int64, so no flat index may be built.
        msg = self._rejection(tmp_path, [self.GOOD, f"0,0,Z,D_p0,D_d1,{2**62},5"])
        assert msg == f"count CSV is missing {4 * (2**62 + 1) - 2} records (index coverage incomplete)"

    @pytest.mark.parametrize("interval, message", [
        (str(2**63 - 1), f"count CSV is missing {4 * 2**63 - 1} records (index coverage incomplete)"),
        (str(2**63), f"line 2: interval {2**63} out of range"),
        ("000" + str(2**63), f"line 2: interval {2**63} out of range"),
        (str(2**64), f"line 2: interval {2**64} out of range"),
        ("9" * 40, f"line 2: interval {'9' * 40} out of range"),
        (str(-2**63 - 1), f"line 2: negative interval {-2**63 - 1}"),
    ], ids=["int64-max", "2**63", "2**63-leading-zeros", "2**64", "40-digits", "below-int64"])
    def test_interval_at_the_edges_of_int64(self, tmp_path, interval, message):
        assert self._rejection(tmp_path, [f"0,0,Z,D_p0,D_d0,{interval},5"]) == message

    def test_staged_fine_table_parses_as_row_by_row(self, tmp_path):
        # 120,960 records in runs of 240 equal prefixes, and 8-byte loads up to the last line of the file.
        noise = calibrated_noise(n_intervals=240, interval_s=0.15)
        table = simulate_counts(ExperimentPlan(), noise, 0)
        path = tmp_path / "counts.csv"
        for written, shuffle in ((table, False), (rescale_efficiencies(table, noise), False), (table, True)):
            written.to_csv(path)
            if shuffle:
                header, *rows = path.read_text().splitlines()
                path.write_text("\n".join([header, *np.random.default_rng(0).permutation(rows)]) + "\n")
            got, expected = CountTable.from_csv(path), row_by_row(path)
            assert got.phases == expected.phases
            assert (got.input_states, got.bases) == (expected.input_states, expected.bases)
            assert got.counts.tobytes() == expected.counts.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fields=st.lists(st.text("0123456789.", min_size=1, max_size=17) | st.text("0123456789./:\x00 ", max_size=4)
                           | st.sampled_from(["9" * 15, "9" * 14 + ".", "." + "9" * 14, "4503599627370497", "0.1",
                                              "1" + "0" * 14, "1.2.3", ".", "..", "5.", ".5", "\x00"]),
                           min_size=1, max_size=40))
    def test_bulk_digits_read_as_python_reads_them(self, fields):
        # Clinger's condition holds for every field of at most 15 bytes; longer ones take Python's own reading.
        def numbers(spellings, parse):
            stop = np.cumsum([1 + len(f) for f in spellings])
            return _numbers(("," + ",".join(spellings)).encode(), stop - [len(f) for f in spellings], stop, parse)

        for parse in (int, float):
            read, refused = [], []
            for f in fields:
                try:
                    read.append((f, parse(f)))
                except ValueError:
                    refused.append(f)
            if read:
                got = numbers([f for f, _ in read], parse)
                assert got.tobytes() == np.array([v for _, v in read], dtype=got.dtype).tobytes()
            for f in refused:
                with pytest.raises(ValueError):
                    numbers([f], parse)

    def test_phase_just_below_two_pi_reads_back_as_written(self, tmp_path):
        # 2*pi - 1e-13 spelled at .12g is 6.28318530718, which is above 2*pi and would read back as 4.1e-13.
        table = CountTable((2 * np.pi - 1e-13,), ("0",), ("Z",), np.ones((1, 1, 1, 2, 2, 1)))
        path = tmp_path / "counts.csv"
        table.to_csv(path)
        assert path.read_text().splitlines()[1] == "-1.00364161426e-13,0,Z,D_p0,D_d0,0,1"
        assert CountTable.from_csv(path).phases == table.phases == (6.283185307179486,)

    def test_interval_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(CSV_HEADER + f"\n0,0,Z,D_p0,D_d0,0,5\n0,0,Z,D_p0,D_d0,{2**63},5\n")
        with pytest.raises(DataFormatError, match=f"line 3: interval {2**63} out of range"):
            CountTable.from_csv(path)

    def test_non_utf8_file_rejected_with_byte_offset(self, tmp_path):
        path = tmp_path / "latin.csv"
        head = (CSV_HEADER + "\n0,0,Z,D_p0,D_d0,0,5").encode()
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(DataFormatError, match=f"not UTF-8.*byte {len(head)}"):
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

    def test_booleans_are_not_numbers(self):
        for field in dataclasses.fields(NoiseConfig):
            for flag in (True, False):
                with pytest.raises(ConfigError, match=field.name):
                    NoiseConfig(**{field.name: flag})

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

    @pytest.mark.parametrize("field, good, other", [("input_states", "0", "Z"), ("bases", "Z", "0")])
    def test_plan_label_lists_name_the_field(self, field, good, other):
        for value in [(), (good, good), (other,), ([good],)]:
            with pytest.raises(ConfigError, match=field):
                ExperimentPlan(**{field: value})

    def test_calibrated_preset_values(self):
        noise = calibrated_noise()
        assert (noise.eta_p0, noise.eta_d0, noise.eta_d1, noise.eta_p1) == (0.55, 0.55, 0.55, 0.5)
        assert (noise.dark_quad, noise.dark_single) == (400.0, 180.0)
        assert noise.phase_sigma == pytest.approx(np.pi / 200)
        assert 0.9 < noise.visibility < 1.0

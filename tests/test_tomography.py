"""Map application and ML reconstruction against closed-loop oracles."""

import dataclasses
import re

import numpy as np
import pytest

from phasegate.errors import DataFormatError
from phasegate.experiment import ExperimentPlan, ideal_noise, simulate_counts
from phasegate.gate import gate_unitary
from phasegate.metrics import ideal_choi, process_fidelity
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS, density, ket, projector
from phasegate.tomography import (
    STOP_REASONS,
    TomographySetting,
    apply_map,
    load_choi,
    load_state,
    ml_reconstruct_process,
    ml_reconstruct_state,
    require_psd,
    save_choi,
    save_state,
    settings_for_phase,
)


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def born_probability(chi, rho_in, pi_out):
    """``Tr[chi E] / (Tr chi / 2)`` for the operator ``E`` of the setting (rho_in, pi_out)."""
    operator = TomographySetting(rho_in, pi_out, 0.0).operator
    return float(np.trace(chi @ operator).real) / (float(np.trace(chi).real) / 2.0)


def exact_process_settings(chi_true, total=1e6):
    """Counts equal to their expected values under the true process."""
    settings = []
    for label in STATE_LABELS:
        rho = density(label)
        for basis in BASIS_LABELS:
            for outcome in BASIS_OUTCOMES[basis]:
                p = born_probability(chi_true, rho, projector(outcome))
                settings.append(TomographySetting(rho, projector(outcome), total * p))
    return settings


def exact_state_counts(rho_true, per_basis=1e6):
    return {
        basis: tuple(
            per_basis * float(np.trace(rho_true @ projector(out)).real)
            for out in BASIS_OUTCOMES[basis]
        )
        for basis in BASIS_LABELS
    }


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


class TestApplyMap:
    def test_identity_process(self):
        rng = np.random.default_rng(30)
        rho = random_density(rng)
        out, weight = apply_map(ideal_choi(0.0), rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)
        assert weight == pytest.approx(1.0, abs=1e-12)

    def test_pi_sends_plus_to_minus(self):
        out, _ = apply_map(ideal_choi(np.pi), density("+"))
        np.testing.assert_allclose(out, density("-"), atol=1e-12)

    def test_zero_ket_fixed_for_all_phases(self):
        for phi in np.linspace(0, 2 * np.pi, 9):
            out, _ = apply_map(ideal_choi(phi), density("0"))
            np.testing.assert_allclose(out, density("0"), atol=1e-12)

    def test_matches_conjugation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_density(rng)
            phi = rng.uniform(0, 2 * np.pi)
            u = gate_unitary(phi)
            out, _ = apply_map(ideal_choi(phi), rho)
            np.testing.assert_allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_annihilating_input_rejected(self):
        chi = 2.0 * np.kron(density("0"), density("0"))  # accepts only |0>
        with pytest.raises(ValueError, match="annihilates"):
            apply_map(chi, density("1"))


@pytest.mark.parametrize(
    "chi, state, outcomes, expected",
    [
        (ideal_choi(0.0), "+", ("+",), 1.0),
        (ideal_choi(np.pi / 2), "+", ("+i",), 1.0),
        (np.eye(4) / 2, "0", ("-i",), 0.5),
        *[(ideal_choi(2.3), "+i", BASIS_OUTCOMES[b], 1.0) for b in BASIS_LABELS],
    ],
    ids=["phi_0_plus_to_plus", "phi_half_pi_plus_to_plus_i", "depolarizing_half",
         *[f"basis_{b}_sums_to_1" for b in BASIS_LABELS]],
)
def test_setting_operator_convention(chi, state, outcomes, expected):
    """``TomographySetting.operator`` is ``rho_in^T (x) pi_out`` in the input-first Choi convention."""
    total = sum(born_probability(chi, density(state), projector(out)) for out in outcomes)
    assert total == pytest.approx(expected, abs=1e-12)


class TestProcessReconstruction:
    def test_recovers_ideal_process_from_exact_counts(self):
        chi_true = ideal_choi(np.pi / 2)
        result = ml_reconstruct_process(exact_process_settings(chi_true))
        assert result.converged
        assert process_fidelity(result.choi, chi_true) >= 0.9999

    def test_recovers_depolarizing_process(self):
        # The scoring formula presumes a rank-1 target, so the fully
        # depolarizing check compares matrices directly instead.
        result = ml_reconstruct_process(exact_process_settings(np.eye(4) / 2))
        assert result.converged
        assert np.max(np.abs(result.choi - np.eye(4) / 2)) < 1e-4

    def test_output_is_valid_choi(self):
        # Generic phase, modest total: the optimum hugs the PSD boundary.
        result = ml_reconstruct_process(exact_process_settings(ideal_choi(2.0), total=2e4))
        chi = require_psd(result.choi, 4, "Choi matrix")
        assert abs(np.trace(chi).real - 2.0) < 1e-8

    def test_likelihood_monotone_and_iterations_bounded(self):
        rng = np.random.default_rng(33)
        settings = exact_process_settings(ideal_choi(0.7), total=2000)
        noisy = [
            TomographySetting(s.rho_in, s.pi_out, float(rng.poisson(max(s.count, 0.0))))
            for s in settings
        ]
        result = ml_reconstruct_process(noisy)
        assert result.converged
        assert result.iterations < 10**5
        steps = np.diff(result.log_likelihood_trace)
        assert np.all(steps >= -1e-12)

    def test_trace_deviation_follows_a_replaced_choi(self):
        fit = ml_reconstruct_process(exact_process_settings(ideal_choi(0.3), total=2e4))
        moved = dataclasses.replace(fit, choi=np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))
        # Tr_out of the new matrix is diag(2, 0), one away from the identity in max norm.
        assert moved.trace_preservation_deviation == 1.0

    @pytest.mark.parametrize("reason", STOP_REASONS)
    def test_converged_follows_the_stop_reason(self, reason):
        fit = ml_reconstruct_process(exact_process_settings(ideal_choi(0.3), total=2e4))
        assert dataclasses.replace(fit, stop_reason=reason).converged == (reason in ("certified", "rounding"))

    def test_single_setting_rank_deficient(self):
        s = TomographySetting(density("0"), projector("0"), 100.0)
        with pytest.raises(DataFormatError, match="rank-deficient"):
            ml_reconstruct_process([s])

    def test_zero_counts_rejected(self):
        settings = [
            TomographySetting(s.rho_in, s.pi_out, 0.0)
            for s in exact_process_settings(ideal_choi(0.0))
        ]
        with pytest.raises(DataFormatError, match="zero"):
            ml_reconstruct_process(settings)

    def test_empty_settings_rejected(self):
        with pytest.raises(DataFormatError, match="no tomography settings"):
            ml_reconstruct_process([])


class TestStateReconstruction:
    def test_recovers_zero_ket(self):
        counts = {"Z": (1000.0, 0.0), "X": (500.0, 500.0), "Y": (500.0, 500.0)}
        result = ml_reconstruct_state(counts)
        assert result.converged
        assert trace_distance(result.rho, density("0")) < 1e-6

    def test_recovers_maximally_mixed(self):
        counts = {b: (500.0, 500.0) for b in BASIS_LABELS}
        result = ml_reconstruct_state(counts)
        assert trace_distance(result.rho, np.eye(2) / 2) < 1e-6

    def test_recovers_plus_i(self):
        result = ml_reconstruct_state(exact_state_counts(density("+i")))
        assert trace_distance(result.rho, density("+i")) < 1e-6

    def test_recovers_random_mixed_states(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            rho = random_density(rng)
            result = ml_reconstruct_state(exact_state_counts(rho))
            assert trace_distance(result.rho, rho) < 1e-6

    def test_missing_basis_rejected(self):
        with pytest.raises(DataFormatError, match="missing basis"):
            ml_reconstruct_state({"Z": (1.0, 2.0), "X": (1.0, 2.0)})

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DataFormatError, match="zero"):
            ml_reconstruct_state({b: (0.0, 0.0) for b in BASIS_LABELS})


class TestSerialization:
    def test_choi_round_trip(self, tmp_path):
        chi = ideal_choi(1.23)
        path = tmp_path / "choi.txt"
        save_choi(path, chi, 1.23, 57, -12345.678, feed_forward=1, success_probability="0.5")
        back, meta = load_choi(path)
        np.testing.assert_allclose(back, chi, atol=1e-14)
        assert float(meta["phase"]) == pytest.approx(1.23, rel=1e-11)
        assert int(meta["iterations"]) == 57
        assert float(meta["log_likelihood"]) == pytest.approx(-12345.678)
        assert meta["feed_forward"] == "1"
        assert float(meta["success_probability"]) == 0.5

    def test_state_round_trip(self, tmp_path):
        rho = density("-i")
        path = tmp_path / "state.txt"
        save_state(path, rho, 0.5, "-i")
        back, meta = load_state(path)
        np.testing.assert_allclose(back, rho, atol=1e-14)
        assert meta["input_state"] == "-i"

    def test_file_layout_is_pinned(self, tmp_path):
        # Named metadata in order, extra keys sorted, then dim and row-major "re im" entries.
        choi_path = tmp_path / "choi.txt"
        save_choi(choi_path, ideal_choi(np.pi / 3), np.pi / 3, 57, -12345.678,
                  success_probability="0.5", feed_forward=1)
        assert choi_path.read_bytes().decode("utf-8") == (
            "phase 1.0471975512\n"
            "iterations 57\n"
            "log_likelihood -12345.678\n"
            "feed_forward 1\n"
            "success_probability 0.5\n"
            "dim 4\n"
            "1 0\n0 0\n0 0\n0.5 -0.866025403784439\n"
            "0 0\n0 0\n0 0\n0 0\n"
            "0 0\n0 0\n0 0\n0 0\n"
            "0.5 0.866025403784439\n0 0\n0 0\n1 1.48741681433375e-17\n"
        )
        state_path = tmp_path / "state.txt"
        save_state(state_path, density("-i"), np.pi / 3, "-i", feed_forward=0)
        assert state_path.read_bytes().decode("utf-8") == (
            "phase 1.0471975512\n"
            "input_state -i\n"
            "feed_forward 0\n"
            "dim 2\n"
            "0.5 0\n0 0.5\n0 -0.5\n0.5 0\n"
        )

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "choi.txt"
        save_choi(path, ideal_choi(0.0), 0.0, 1, 0.0)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(DataFormatError, match="entries"):
            load_choi(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "choi.txt"
        save_choi(path, ideal_choi(0.0), 0.0, 1, 0.0)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("iterations")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="iterations"):
            load_choi(path)

    def test_trailing_lines_rejected(self, tmp_path):
        # Each fault of the file's structure names the file once, not wrapped as a malformed entry.
        path = tmp_path / "state.txt"
        save_state(path, density("0"), 0.0, "0")
        good = path.read_text()
        for text, message in [
            (good + "0 0\n0 0\n", "expected 4 entries after 'dim', found 6"),
            (good.replace("dim 2\n", ""), "missing 'dim' line"),
            (good.replace("dim 2\n", "dim 3\n"), "expected dim 2, got 3"),
            (good.removesuffix("0 0\n") + "1.0 abc\n",
             "malformed matrix file (could not convert string to float: 'abc')"),
        ]:
            path.write_text(text)
            with pytest.raises(DataFormatError) as exc:
                load_state(path)
            assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "chi, fragment",
        [
            (np.diag([1.2, 0.2, -0.2, 0.8]), "negative eigenvalue -2.000e-01"),
            (ideal_choi(0.0) + 1e-6j * np.eye(4)[::-1], "not Hermitian"),
            (np.zeros((4, 4)), "trace must be positive, got 0"),
        ],
    )
    def test_non_physical_choi_file_rejected(self, tmp_path, chi, fragment):
        path = tmp_path / "choi.txt"
        save_choi(path, chi, 0.0, 1, 0.0)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: Choi matrix .*{fragment}"):
            load_choi(path)

    def test_state_file_trace_rejected_as_plain_number(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, 1.99 * density("0"), 0.0, "0")
        with pytest.raises(DataFormatError, match=r"density matrix trace must be 1, got 1\.99$"):
            load_state(path)

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, density("0"), 0.0, "0")
        with pytest.raises(DataFormatError, match="dim"):
            load_choi(path)


class TestValidation:
    def test_psd_check_rejects_negative(self):
        bad = np.diag([1.5, 0.7, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            require_psd(bad, 4, "Choi matrix")

    def test_setting_rejects_non_projector(self):
        with pytest.raises(ValueError, match="idempotent"):
            TomographySetting(density("0"), 0.5 * np.eye(2), 1.0)

    def test_setting_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="trace must be 1, got 2$"):
            TomographySetting(2 * density("0"), projector("0"), 1.0)

    def test_phase_design_shares_validated_operators(self):
        table = simulate_counts(ExperimentPlan(phases=(0.3,)), ideal_noise(pair_rate=500.0, n_intervals=1), 3)
        settings = settings_for_phase(table, 0)
        assert len(settings) == 36
        for s in settings:
            np.testing.assert_array_equal(s.operator, np.kron(s.rho_in.T, s.pi_out))
            # Exactly Hermitian, so the fit's one stack of rows vec(E_k) gives Re Tr[E_k^H m] = Tr[m E_k] bit for bit.
            np.testing.assert_array_equal(s.operator, s.operator.conj().T)
            assert not (s.operator.flags.writeable or s.rho_in.flags.writeable)
        # Only the design's own arrays skip validation; a modified copy does not.
        with pytest.raises(ValueError, match="trace"):
            TomographySetting(2 * settings[0].rho_in, settings[0].pi_out, 1.0)

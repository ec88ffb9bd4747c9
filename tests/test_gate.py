"""Noiseless gate physics against hand-worked and closed-form oracles."""

import numpy as np
import pytest

from phasegate.gate import (
    POSTSELECTION_PROBABILITY,
    ProgramOutcome,
    canonical_phase,
    conditional_joint_state,
    feed_forward_correct,
    gate_unitary,
    ideal_output,
    measure_program,
    prepare_program,
)
from phasegate.states import as_state, ket

S = 1 / np.sqrt(2)


def overlap_magnitude(a, b):
    """``|<a|b>|``; equals 1 iff the two pure states agree up to global phase."""
    return abs(np.vdot(as_state(a), as_state(b)))


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


class TestPreparation:
    def test_phase_zero_gives_plus(self):
        np.testing.assert_allclose(prepare_program(0.0), [S, S], atol=1e-15)

    def test_phase_pi_gives_minus(self):
        np.testing.assert_allclose(prepare_program(np.pi), [S, -S], atol=1e-15)

    def test_phase_half_pi(self):
        np.testing.assert_allclose(prepare_program(np.pi / 2), [S, 1j * S], atol=1e-15)


class TestUnitary:
    def test_identity_and_z(self):
        np.testing.assert_allclose(gate_unitary(0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(gate_unitary(np.pi), np.diag([1, -1]), atol=1e-15)

    def test_phase_third_pi(self):
        np.testing.assert_allclose(
            gate_unitary(np.pi / 3), np.diag([1, 0.5 + 1j * np.sqrt(3) / 2]), atol=1e-15
        )

    def test_unitarity(self):
        for phi in np.linspace(0, 2 * np.pi, 17):
            u = gate_unitary(phi)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_composition_mod_two_pi(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
            np.testing.assert_allclose(
                gate_unitary(p1) @ gate_unitary(p2),
                gate_unitary(canonical_phase(p1 + p2)),
                atol=1e-12,
            )


class TestIdealOutput:
    def test_plus_under_pi_becomes_minus(self):
        np.testing.assert_allclose(ideal_output("+", np.pi), ket("-"), atol=1e-15)

    def test_zero_is_fixed_point(self):
        for phi in (0.0, 1.0, np.pi):
            np.testing.assert_allclose(ideal_output("0", phi), ket("0"), atol=1e-15)

    def test_plus_i_under_half_pi(self):
        # i * e^{i pi/2} = -1.
        np.testing.assert_allclose(ideal_output("+i", np.pi / 2), [S, -S], atol=1e-15)

    def test_matches_matrix_action(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            psi = random_qubit(rng)
            phi = rng.uniform(0, 2 * np.pi)
            np.testing.assert_allclose(ideal_output(psi, phi), gate_unitary(phi) @ psi, atol=1e-12)

    def test_preserves_populations(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            psi = random_qubit(rng)
            out = ideal_output(psi, rng.uniform(0, 2 * np.pi))
            assert abs(out[0]) == pytest.approx(abs(psi[0]), abs=1e-12)


class TestJointState:
    def test_bell_state_from_plus(self):
        np.testing.assert_allclose(conditional_joint_state("+", 0.0), [S, 0, 0, S], atol=1e-15)

    def test_zero_input(self):
        np.testing.assert_allclose(conditional_joint_state("0", 1.3), [1, 0, 0, 0], atol=1e-15)

    def test_direct_substitution(self):
        np.testing.assert_allclose(
            conditional_joint_state([0.6, 0.8], np.pi), [0.6, 0, 0, -0.8], atol=1e-14
        )

    def test_postselection_weight_constant(self):
        assert POSTSELECTION_PROBABILITY == 0.5


class TestMeasurement:
    def test_bell_state_plus_branch(self):
        state, p = measure_program(conditional_joint_state("+", 0.0), ProgramOutcome.PLUS)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert overlap_magnitude(state, "+") == pytest.approx(1.0, abs=1e-12)

    def test_product_state_even_split(self):
        state, p = measure_program(np.array([1, 0, 0, 0], dtype=complex), ProgramOutcome.PLUS)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert overlap_magnitude(state, "0") == pytest.approx(1.0, abs=1e-12)

    def test_minus_branch_by_hand(self):
        joint = np.array([0.6, 0, 0, -0.8], dtype=complex)
        state, p = measure_program(joint, ProgramOutcome.MINUS)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(state, [0.6, 0.8], atol=1e-12)

    def test_probabilities_always_half(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            joint = conditional_joint_state(random_qubit(rng), rng.uniform(0, 2 * np.pi))
            for outcome in ProgramOutcome:
                _, p = measure_program(joint, outcome)
                assert abs(p - 0.5) < 1e-12

    def test_impossible_branch_rejected(self):
        # Program photon definitely |+>: the |-> collapse is undefined.
        joint = np.array([S, S, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="probability"):
            measure_program(joint, ProgramOutcome.MINUS)

    def test_detector_names(self):
        assert ProgramOutcome.PLUS.value == "D_p0"
        assert ProgramOutcome.MINUS.value == "D_p1"


class TestFeedForward:
    def test_z_flip_on_minus(self):
        np.testing.assert_allclose(
            feed_forward_correct([S, -S], ProgramOutcome.MINUS), [S, S], atol=1e-15
        )

    def test_identity_on_plus(self):
        psi = np.array([0.6, 0.8j])
        np.testing.assert_allclose(feed_forward_correct(psi, ProgramOutcome.PLUS), psi, atol=1e-15)

    def test_composed_with_measurement(self):
        joint = np.array([0.6, 0, 0, -0.8], dtype=complex)
        state, _ = measure_program(joint, ProgramOutcome.MINUS)
        np.testing.assert_allclose(
            feed_forward_correct(state, ProgramOutcome.MINUS), [0.6, -0.8], atol=1e-12
        )


def test_end_to_end_equals_ideal_for_both_branches():
    """Corrected collapse output matches U(phi) psi_in up to global phase."""
    rng = np.random.default_rng(12)
    for _ in range(1000):
        psi = random_qubit(rng)
        phi = rng.uniform(0, 2 * np.pi)
        target = ideal_output(psi, phi)
        joint = conditional_joint_state(psi, phi)
        for outcome in ProgramOutcome:
            state, _ = measure_program(joint, outcome)
            corrected = feed_forward_correct(state, outcome)
            assert overlap_magnitude(corrected, target) == pytest.approx(1.0, abs=1e-12)


def test_canonical_phase_wraps():
    assert canonical_phase(2 * np.pi) == 0.0
    assert canonical_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2, abs=1e-12)
    assert canonical_phase(5 * np.pi) == pytest.approx(np.pi, abs=1e-12)
    assert canonical_phase(1.0) == 1.0

"""Figures of merit against closed-form and hand-computed oracles."""

import numpy as np
import pytest

from phasegate.errors import DataFormatError
from phasegate.gate import gate_unitary
from phasegate.metrics import (
    MERIT_CSV_HEADER,
    MeritReport,
    format_merit_table,
    ideal_choi,
    max_feedforward_gap,
    merit_report,
    process_fidelity,
    purity,
    read_merit_csv,
    state_fidelity,
    write_merit_csv,
)
from phasegate.states import STATE_LABELS, density, ket


def ideal_choi_by_hand(phi):
    """Explicit basis sum: sum_ij |i><j| (x) U|i><j|U^dag."""
    u = gate_unitary(phi)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            out += np.kron(e, u @ e @ u.conj().T)
    return out


def overlap_fidelity_by_hand(chi_a, chi_b):
    """Entrywise trace arithmetic, no library matrix products."""
    num = 0.0
    for i in range(4):
        for j in range(4):
            num += (chi_a[i, j] * chi_b[j, i]).real
    tr_a = sum(chi_a[i, i].real for i in range(4))
    tr_b = sum(chi_b[i, i].real for i in range(4))
    return num / (tr_a * tr_b)


class TestIdealChoi:
    def test_phase_zero_is_bell_projector(self):
        phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(ideal_choi(0.0), 2 * np.outer(phi_plus, phi_plus.conj()), atol=1e-14)

    def test_phase_pi_projector(self):
        w = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(ideal_choi(np.pi), 2 * np.outer(w, w.conj()), atol=1e-14)

    def test_matches_basis_sum(self):
        for phi in np.linspace(0, 2 * np.pi, 13):
            np.testing.assert_allclose(ideal_choi(phi), ideal_choi_by_hand(phi), atol=1e-13)

    def test_rank_one_spectrum(self):
        for phi in np.linspace(0, 2 * np.pi, 7):
            np.testing.assert_allclose(np.linalg.eigvalsh(ideal_choi(phi)), [0, 0, 0, 2], atol=1e-12)


class TestProcessFidelity:
    def test_self_fidelity_is_one(self):
        for phi in (0.0, 1.0, np.pi):
            assert process_fidelity(ideal_choi(phi), ideal_choi(phi)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_phases(self):
        assert process_fidelity(ideal_choi(0.0), ideal_choi(np.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn(self):
        assert process_fidelity(ideal_choi(0.0), ideal_choi(np.pi / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_on_grid(self):
        # cos^2((phi - phi')/2), cross-checked by entrywise arithmetic.
        for phi in np.linspace(0, 2 * np.pi, 25):
            for phip in np.linspace(0, 2 * np.pi, 7):
                f = process_fidelity(ideal_choi(phi), ideal_choi(phip))
                assert abs(f - np.cos((phi - phip) / 2) ** 2) < 1e-12
                assert abs(f - overlap_fidelity_by_hand(ideal_choi(phi), ideal_choi(phip))) < 1e-12

    def test_scale_invariant(self):
        chi = ideal_choi(0.3)
        target = ideal_choi(1.1)
        base = process_fidelity(chi, target)
        assert process_fidelity(7.5 * chi, target) == pytest.approx(base, abs=1e-12)
        assert process_fidelity(chi, 0.1 * target) == pytest.approx(base, abs=1e-12)

    def test_symmetric_for_rank_one_pair(self):
        a, b = ideal_choi(0.4), ideal_choi(2.2)
        assert process_fidelity(a, b) == pytest.approx(process_fidelity(b, a), abs=1e-12)

    def test_rejects_zero_trace(self):
        with pytest.raises(ValueError, match="positive traces, got 0.000e"):
            process_fidelity(np.zeros((4, 4)), ideal_choi(0.0))

    def test_rejects_mixed_target(self):
        with pytest.raises(ValueError, match="rank 1"):
            process_fidelity(ideal_choi(0.0), np.eye(4) / 2)


class TestStateMerits:
    def test_state_fidelity_examples(self):
        assert state_fidelity(density("0"), "0") == pytest.approx(1.0, abs=1e-12)
        assert state_fidelity(np.eye(2) / 2, "+i") == pytest.approx(0.5, abs=1e-12)
        assert state_fidelity(density("+"), "+i") == pytest.approx(0.5, abs=1e-12)

    def test_purity_examples(self):
        assert purity(density("-")) == pytest.approx(1.0, abs=1e-12)
        assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
        rho = 0.9 * density("0") + 0.1 * density("1")
        assert purity(rho) == pytest.approx(0.82, abs=1e-12)

    def test_purity_one_iff_pure(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)
            assert state_fidelity(rho, v) == pytest.approx(1.0, abs=1e-10)


class TestMeritReport:
    def _ideal_states(self, phi):
        states = []
        for label in STATE_LABELS:
            out = gate_unitary(phi) @ ket(label)
            states.append(np.outer(out, out.conj()))
        return states

    def test_all_ideal_gives_ones(self):
        phi = np.pi / 3
        r = merit_report(ideal_choi(phi), self._ideal_states(phi), phi, True, 0.5)
        for value in (r.F_chi, r.F_av, r.F_min, r.P_av, r.P_min):
            assert value == pytest.approx(1.0, abs=1e-10)
        assert r.feed_forward_active is True
        assert r.success_probability == 0.5

    def test_one_depolarized_state(self):
        phi = 0.0
        states = self._ideal_states(phi)
        states[3] = np.eye(2) / 2
        r = merit_report(ideal_choi(phi), states, phi, False, 0.25)
        assert r.F_av == pytest.approx((5 + 0.5) / 6, abs=1e-10)
        assert r.F_min == pytest.approx(0.5, abs=1e-10)
        assert r.P_min == pytest.approx(0.5, abs=1e-10)

    def test_aggregates_only_see_the_merit_multiset(self):
        # Damping slot 0 or slot 1 produces the same per-state merit by
        # symmetry, so the aggregates cannot tell the two runs apart.
        phi = 0.0
        a_states = self._ideal_states(phi)
        a_states[0] = 0.9 * a_states[0] + 0.1 * np.eye(2) / 2
        b_states = self._ideal_states(phi)
        b_states[1] = 0.9 * b_states[1] + 0.1 * np.eye(2) / 2
        a = merit_report(ideal_choi(phi), a_states, phi, True, 0.5)
        b = merit_report(ideal_choi(phi), b_states, phi, True, 0.5)
        assert a.F_av == pytest.approx(b.F_av, abs=1e-12)
        assert a.F_min == pytest.approx(b.F_min, abs=1e-12)
        assert a.P_av == pytest.approx(b.P_av, abs=1e-12)

    def test_no_eigendecomposition_per_report(self, monkeypatch):
        # The ideal process is scored through its vector w, so nothing decomposes; the inputs are not checked again.
        calls = []
        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _s=solver, _n=name: calls.append(_n) or _s(*a))
        merit_report(ideal_choi(0.4), self._ideal_states(0.4), 0.4, True, 0.5)
        assert calls == []

    def test_wrong_state_count_rejected(self):
        with pytest.raises(ValueError, match="6"):
            merit_report(ideal_choi(0.0), self._ideal_states(0.0)[:5], 0.0, True, 0.5)

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="F_chi"):
            MeritReport(0.0, 1.2, 1.0, 1.0, 1.0, 1.0, True, 0.5)
        with pytest.raises(ValueError, match="minimum"):
            MeritReport(0.0, 1.0, 0.5, 0.9, 1.0, 1.0, True, 0.5)


class TestMeritSerialization:
    def _rows(self):
        return [
            MeritReport(0.0, 0.98, 0.985, 0.97, 0.96, 0.95, True, 0.5),
            MeritReport(0.0, 0.975, 0.98, 0.965, 0.955, 0.94, False, 0.25),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        write_merit_csv(path, self._rows())
        header = path.read_text().splitlines()[0]
        assert header == MERIT_CSV_HEADER
        back = read_merit_csv(path)
        for a, b in zip(self._rows(), back):
            assert b.phi == pytest.approx(a.phi, rel=1e-11)
            assert b.F_chi == pytest.approx(a.F_chi, rel=1e-8)
            assert b.feed_forward_active == a.feed_forward_active

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("phi,F_chi\n")
        with pytest.raises(DataFormatError, match="header"):
            read_merit_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("0,0.98,0.985,0.97,0.96,0.95,1", "line 2: expected 8 fields, got 7"),
         ("0,0.98,x,0.97,0.96,0.95,1,0.5", "line 2: could not convert string to float: 'x'"),
         ("0,0.98,0.985,0.97,0.96,0.95,7,0.5", "line 2: feed_forward_active must be 0 or 1, got '7'"),
         ("0,0.98,0.985,0.97,0.96,0.95,-1,0.5", "line 2: feed_forward_active must be 0 or 1, got '-1'")],
        ids=["7_fields", "not_a_number", "flag_7", "flag_minus_1"],
    )
    def test_bad_row_named_by_line(self, tmp_path, row, message):
        path = tmp_path / "report.csv"
        path.write_text(f"{MERIT_CSV_HEADER}\n{row}\n")
        with pytest.raises(DataFormatError) as exc:
            read_merit_csv(path)
        assert str(exc.value) == message

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "report.csv"
        write_merit_csv(path, self._rows())
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", rows[0], "", rows[1], ""]) + "\n")
        assert [(r.F_chi, r.feed_forward_active) for r in read_merit_csv(path)] == [(0.98, True), (0.975, False)]
        path.write_text(f"{header}\n\n0,0.98,0.985,0.97,0.96,0.95,1\n")
        with pytest.raises(DataFormatError) as exc:
            read_merit_csv(path)
        assert str(exc.value) == "line 3: expected 8 fields, got 7"

    def test_formatted_table_mentions_both_variants(self):
        text = format_merit_table(self._rows())
        assert "with feed forward" in text
        assert "without feed forward" in text
        assert "max |F_chi" in text


def test_max_feedforward_gap_uses_common_phases():
    rows = [
        MeritReport(0.0, 0.98, 1, 1, 1, 1, True, 0.5),
        MeritReport(0.0, 0.97, 1, 1, 1, 1, False, 0.25),
        MeritReport(1.0, 0.99, 1, 1, 1, 1, True, 0.5),
    ]
    gap = max_feedforward_gap(rows)
    assert gap is not None
    value, phi = gap
    assert value == pytest.approx(0.01, abs=1e-12)
    assert phi == 0.0
    assert max_feedforward_gap(rows[:1]) is None

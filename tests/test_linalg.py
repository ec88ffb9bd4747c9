"""Linear-algebra conventions of phasegate.tomography, against index-by-index oracles.

The Kronecker order of the effective operators ``rho^T (x) pi``, the
partial traces behind ``apply_map`` and ``trace_preservation_deviation``,
and the Hermitian and PSD checks applied to matrices from outside.
"""

import numpy as np
import pytest

from phasegate.experiment import ExperimentPlan, calibrated_noise, simulate_counts
from phasegate.metrics import ideal_choi, process_fidelity
from phasegate.states import density, projector
from phasegate.tomography import (
    TomographySetting,
    apply_map,
    ml_reconstruct_process,
    require_projector,
    require_psd,
    settings_for_phase,
)

I2 = np.eye(2, dtype=complex)


def kron_by_hand(a, b):
    """Index-by-index Kronecker product, the oracle for the operator order."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def reduced_by_hand(m, traced_out):
    """Explicit basis sum for the 2x2 partial trace."""
    out = np.zeros((2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            for i in range(2):
                if traced_out == 0:
                    out[k, l] += m[2 * i + k, 2 * i + l]
                else:
                    out[k, l] += m[2 * k + i, 2 * l + i]
    return out


def random_psd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T


def random_density(rng):
    rho = random_psd(rng, 2)
    return rho / np.trace(rho).real


def random_projector(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestTensor:
    """``TomographySetting.operator`` is ``rho_in^T (x) pi_out``, input index first."""

    def test_identity_case(self):
        # Summed over a complete output basis, the operators give rho^T (x) I.
        rho = random_density(np.random.default_rng(1))
        total = sum(TomographySetting(rho, projector(out), 0.0).operator for out in ("0", "1"))
        np.testing.assert_allclose(total, kron_by_hand(rho.T, I2), atol=1e-14)

    def test_projector_product(self):
        s = TomographySetting(density("0"), projector("0"), 0.0)
        np.testing.assert_allclose(s.operator, np.diag([1.0, 0, 0, 0]))
        s = TomographySetting(density("1"), projector("0"), 0.0)
        np.testing.assert_allclose(s.operator, np.diag([0.0, 0, 1, 0]))

    def test_pauli_x_times_z_entries(self):
        # Input |+> (an X eigenstate), output projector |0><0| (a Z eigenstate).
        t = TomographySetting(density("+"), projector("0"), 0.0).operator
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 2] = expected[2, 0] = expected[2, 2] = 0.5
        np.testing.assert_allclose(t, expected, atol=1e-15)

    def test_matches_hand_kronecker(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho, pi = random_density(rng), random_projector(rng)
            s = TomographySetting(rho, pi, 1.0)
            np.testing.assert_allclose(s.operator, kron_by_hand(rho.T, pi), atol=1e-14)

    @pytest.mark.parametrize("count", [-1.0, float("nan")])
    def test_count_must_be_finite_and_non_negative(self, count):
        with pytest.raises(ValueError, match=f"count must be finite and non-negative, got {count!r}"):
            TomographySetting(density("0"), projector("0"), count)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = TomographySetting(random_density(rng), random_projector(rng), 0.0)
            assert np.trace(s.operator) == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    """``apply_map`` traces out the input; ``trace_preservation_deviation`` the output."""

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(4)
        a, b = random_psd(rng, 2), random_psd(rng, 2)
        rho = random_density(rng)
        out, weight = apply_map(kron_by_hand(a, b), rho)
        np.testing.assert_allclose(out, b / np.trace(b).real, atol=1e-12)
        assert weight == pytest.approx((np.trace(a @ rho.T) * np.trace(b)).real, abs=1e-12)

    def test_identity(self):
        out, weight = apply_map(np.eye(4) / 2, random_density(np.random.default_rng(8)))
        np.testing.assert_allclose(out, I2 / 2, atol=1e-15)
        assert weight == pytest.approx(1.0, abs=1e-15)

    def test_bell_state_reduces_to_mixed(self):
        for phi in np.linspace(0, 2 * np.pi, 5):
            out, weight = apply_map(ideal_choi(phi), I2 / 2)
            np.testing.assert_allclose(out, I2 / 2, atol=1e-14)
            assert weight == pytest.approx(1.0, abs=1e-14)

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            chi, rho = random_psd(rng, 4), random_density(rng)
            out, weight = apply_map(chi, rho)
            np.testing.assert_allclose(out * weight, reduced_by_hand(chi @ kron_by_hand(rho.T, I2), 0), atol=1e-13)
        table = simulate_counts(ExperimentPlan(phases=(0.3, 2.0)), calibrated_noise(pair_rate=500.0, n_intervals=1), 5)
        for pi in range(2):
            fit = ml_reconstruct_process(settings_for_phase(table, pi))
            deviation = np.max(np.abs(reduced_by_hand(fit.choi, 1) - I2))
            assert fit.trace_preservation_deviation == pytest.approx(deviation, abs=1e-13)

    def test_preserves_full_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            chi, rho = random_psd(rng, 4), random_density(rng)
            _, weight = apply_map(chi, rho)
            assert weight == pytest.approx(np.trace(chi @ kron_by_hand(rho.T, I2)).real, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            apply_map(np.eye(3), density("0"))
        with pytest.raises(ValueError, match="2x2"):
            apply_map(ideal_choi(0.0), np.eye(3) / 3)


class TestEigHermitian:
    """The Hermitian and PSD checks behind user-built settings and loaded files."""

    def test_degenerate_spectrum(self):
        for m, dim in ((np.eye(4) / 2, 4), (np.eye(2) / 2, 2)):
            np.testing.assert_array_equal(require_psd(m, dim, "matrix"), m)
        require_psd(np.eye(2) / 2, 2, "density matrix", trace=1.0)

    def test_rejects_non_hermitian(self):
        jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            require_psd(jordan, 2, "density matrix", trace=1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            TomographySetting(jordan, projector("0"), 1.0)
        skewed = np.eye(4)
        skewed[0, 1] = 1.0  # it would send I/2 to [[0.5, 0.25], [0, 0.5]], no density matrix
        with pytest.raises(ValueError, match="Choi matrix is not Hermitian"):
            apply_map(skewed, I2 / 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            process_fidelity(ideal_choi(0.0), np.kron(jordan, projector("0")))

    def test_hermiticity_predicate(self):
        nudge = 1e-8 * np.array([[0, 1j], [0, 0]])
        require_psd(density("+"), 2, "density matrix", trace=1.0)
        require_projector(projector("+"))
        with pytest.raises(ValueError, match="not Hermitian"):
            require_psd(density("+") + nudge, 2, "density matrix", trace=1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            require_projector(projector("+") + nudge)

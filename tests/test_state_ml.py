"""Closed-form state ML against the iterative RrhoR reference and the concavity certificate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasegate.errors import DataFormatError
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, density, projector
from phasegate.tomography import MAX_ITERS, UPDATE_TOL, _ml_fixed_point, ml_reconstruct_state

OPERATORS = np.stack([projector(label) for b in BASIS_LABELS for label in BASIS_OUTCOMES[b]])
#: Certified distance to the likelihood maximum that an exact solve must reach, in nats.
GAP_NATS = 1e-6


def flat_counts(basis_counts):
    return np.array([c for b in BASIS_LABELS for c in basis_counts[b]], dtype=float)


def certified_gap(rho, basis_counts):
    """Upper bound on ``max L - L(rho)`` in nats, from concavity of the log-likelihood.

    With ``R = sum_k (n_k/N) / p_k E_k`` over nonzero counts, every state
    ``sigma`` has ``L(sigma) - L(rho) <= N (Tr[R sigma] - 1) <= N (lambda_max(R) - 1)``
    (Glancy, Knill & Girard, NJP 14, 095017, 2012).
    """
    counts = flat_counts(basis_counts)
    keep = counts > 0
    ops, n = OPERATORS[keep], counts[keep]
    p = np.einsum("kij,ji->k", ops, rho).real
    if np.any(p <= 0.0):
        return float("inf")
    r = np.einsum("k,kij->ij", (n / n.sum()) / p, ops)
    return float(n.sum() * (np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1] - 1.0))


def reference(basis_counts, max_iters=MAX_ITERS):
    """The iterative RrhoR fixed point on the same six projectors."""
    est, _, _, ll, _, _ = _ml_fixed_point(OPERATORS, flat_counts(basis_counts), 2, 1.0, UPDATE_TOL, max_iters)
    return est, ll


def bloch(rho):
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def assert_physical(rho):
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


# Raw counts are integers and efficiency-rescaled counts are integers divided
# by an efficiency, so a nonzero count is at least about 1.  The range is kept
# where double precision can certify 1e-6 nats: an outcome probability p near 0
# is stored with absolute error about 2**-54 (the spacing of numbers near 1/2),
# which moves the certificate by about N * 2**-54 / p, up to N**2 * 2**-54 / n_min
# for an outcome with n_min counts.  With N <= 18,000 and n_min >= 0.5 that is
# below 4e-8 nats, whatever the estimator.
count = st.one_of(
    st.just(0.0),
    st.integers(0, 30).map(float),
    st.integers(0, 3000).map(float),
    st.floats(0.5, 3000.0),
)
basis_counts_st = st.fixed_dictionaries({b: st.tuples(count, count) for b in BASIS_LABELS})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(basis_counts_st)
def test_closed_form_matches_or_beats_reference(basis_counts):
    total = flat_counts(basis_counts).sum()
    assume(total > 0)
    res = ml_reconstruct_state(basis_counts)
    assert_physical(res.rho)
    # Every RrhoR iterate is a state, so the inequality holds at any iteration
    # cap; the cap bounds the run time on fits that converge slowly, and the
    # certificate below checks optimality on its own.
    _, ref_ll = reference(basis_counts, max_iters=2000)
    assert res.log_likelihood >= ref_ll - 1e-9 * total
    assert certified_gap(res.rho, basis_counts) <= GAP_NATS
    assert res.on_boundary == (np.linalg.norm(bloch(res.rho)) > 1.0 - 1e-12)


class TestExplicitCases:
    def test_linear_inversion_exactly_on_sphere(self):
        counts = {"Z": (8.0, 2.0), "X": (9.0, 1.0), "Y": (5.0, 5.0)}  # r = (0.8, 0, 0.6)
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        np.testing.assert_allclose(bloch(res.rho), [0.8, 0.0, 0.6], atol=1e-15)
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_one_zero_count_outcome(self):
        counts = {"Z": (100.0, 0.0), "X": (60.0, 40.0), "Y": (50.0, 50.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        r = bloch(res.rho)
        assert 0.0 < r[2] < 1.0 and r[0] > 0.0
        assert certified_gap(res.rho, counts) <= GAP_NATS
        assert res.log_likelihood >= reference(counts)[1] - 1e-9 * 300

    def test_two_zero_count_outcomes(self):
        counts = {"Z": (100.0, 0.0), "X": (0.0, 50.0), "Y": (40.0, 40.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        r = bloch(res.rho)
        assert r[2] > 0.0 and r[0] < 0.0
        assert certified_gap(res.rho, counts) <= GAP_NATS
        assert res.log_likelihood >= reference(counts)[1] - 1e-9 * 230

    def test_zero_count_outcome_pins_pole(self):
        # Only one basis measured and one outcome empty: the estimate is the pole itself.
        counts = {"Z": (0.0, 7.0), "X": (0.0, 0.0), "Y": (0.0, 0.0)}
        res = ml_reconstruct_state(counts)
        np.testing.assert_allclose(res.rho, density("1"), atol=1e-15)
        assert res.on_boundary
        assert res.log_likelihood == 0.0

    def test_multiplier_many_decades_below_counts(self):
        # X holds one tiny count, so the multiplier sits near 1e-90 while Y's counts are O(1):
        # the sphere point keeps Y's own optimum r_Y = -1/3.
        counts = {"Z": (0.0, 0.0), "X": (0.0, 1e-90), "Y": (1.0, 2.0)}
        res = ml_reconstruct_state(counts)
        np.testing.assert_allclose(bloch(res.rho), [-np.sqrt(8.0) / 3.0, -1.0 / 3.0, 0.0], atol=1e-14)
        assert res.log_likelihood == pytest.approx(np.log(1 / 3) + 2 * np.log(2 / 3), abs=1e-12)
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_subnormal_counts(self):
        # Only ratios matter: two equal subnormal counts give the same state as two equal counts of 1.
        res = ml_reconstruct_state({"Z": (0.0, 0.0), "X": (0.0, 5e-324), "Y": (0.0, 5e-324)})
        np.testing.assert_allclose(bloch(res.rho), [-np.sqrt(0.5), -np.sqrt(0.5), 0.0], atol=1e-15)
        # A count below 1e-100 of the largest is negligible.
        res = ml_reconstruct_state({"Z": (0.0, 0.0), "X": (1.0, 1e-300), "Y": (1.0, 1.0)})
        np.testing.assert_allclose(bloch(res.rho), [1.0, 0.0, 0.0], atol=1e-15)

    def test_unmeasured_basis_stays_at_zero(self):
        counts = {"Z": (0.0, 0.0), "X": (95.0, 5.0), "Y": (90.0, 10.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        assert res.rho[0, 0].real == 0.5
        assert certified_gap(res.rho, counts) <= GAP_NATS

    def test_interior_estimate_is_linear_inversion(self):
        counts = {"Z": (600.0, 400.0), "X": (300.0, 700.0), "Y": (500.0, 500.0)}
        res = ml_reconstruct_state(counts)
        assert not res.on_boundary
        np.testing.assert_allclose(bloch(res.rho), [-0.4, 0.0, 0.2], atol=1e-15)
        assert certified_gap(res.rho, counts) <= 1e-9

    def test_outside_ball_lands_on_sphere(self):
        counts = {"Z": (990.0, 10.0), "X": (600.0, 400.0), "Y": (520.0, 480.0)}
        res = ml_reconstruct_state(counts)
        assert res.on_boundary
        assert np.linalg.norm(bloch(res.rho)) == pytest.approx(1.0, abs=1e-15)
        est, ref_ll = reference(counts)
        np.testing.assert_allclose(res.rho, est, atol=1e-5)
        assert res.log_likelihood >= ref_ll - 1e-9 * 3000

    def test_diagnostics_fields(self):
        res = ml_reconstruct_state({b: (5.0, 5.0) for b in BASIS_LABELS})
        assert (res.iterations, res.converged, res.likelihood_decreases) == (0, True, 0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_counts_rejected(self, bad):
        with pytest.raises(DataFormatError, match="bad count"):
            ml_reconstruct_state({"Z": (bad, 1.0), "X": (1.0, 1.0), "Y": (1.0, 1.0)})

import numpy as np
import pytest

from phasegate.states import (
    BASIS_LABELS,
    BASIS_OUTCOMES,
    STATE_LABELS,
    as_state,
    density,
    ket,
    projector,
    require_normalized,
)


def overlap_magnitude(a, b):
    """``|<a|b>|``; equals 1 iff the two pure states agree up to global phase."""
    return abs(np.vdot(as_state(a), as_state(b)))


def test_all_kets_normalized():
    for label in STATE_LABELS:
        v = ket(label)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-15)


def test_basis_outcomes_are_orthogonal_pairs():
    for basis in BASIS_LABELS:
        a, b = BASIS_OUTCOMES[basis]
        assert overlap_magnitude(a, b) == pytest.approx(0.0, abs=1e-15)


def test_bases_are_mutually_unbiased():
    # Cross-basis overlaps all have modulus 1/sqrt(2).
    for b1 in BASIS_LABELS:
        for b2 in BASIS_LABELS:
            if b1 == b2:
                continue
            for s1 in BASIS_OUTCOMES[b1]:
                for s2 in BASIS_OUTCOMES[b2]:
                    assert overlap_magnitude(s1, s2) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_projectors_sum_to_identity_per_basis():
    for basis in BASIS_LABELS:
        a, b = BASIS_OUTCOMES[basis]
        np.testing.assert_allclose(projector(a) + projector(b), np.eye(2), atol=1e-14)


def test_density_is_rank_one_outer_product():
    v = ket("+i")
    rho = density("+i")
    np.testing.assert_allclose(rho, np.outer(v, v.conj()), atol=1e-15)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)


def test_as_state_accepts_labels_and_vectors():
    np.testing.assert_allclose(as_state("0"), [1, 0])
    np.testing.assert_allclose(as_state([0.6, 0.8]), [0.6, 0.8])


def test_as_state_rejects_garbage():
    with pytest.raises(ValueError, match="unknown state label"):
        as_state("2")
    with pytest.raises(ValueError, match="length-2"):
        as_state([1.0, 0.0, 0.0])


def test_require_normalized():
    require_normalized(np.array([0.6, 0.8j]))
    with pytest.raises(ValueError, match="not normalized"):
        require_normalized(np.array([1.0, 1.0]))


def test_ket_returns_fresh_copies():
    a = ket("+")
    a[0] = 0
    np.testing.assert_allclose(ket("+"), [1 / np.sqrt(2), 1 / np.sqrt(2)])

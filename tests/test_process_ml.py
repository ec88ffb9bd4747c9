"""Process ML: certified stop, monotone trace and PSD output on random count tables; step counts on calibrated data."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasegate.experiment import (
    ExperimentPlan,
    calibrated_noise,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
)
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS, density, projector
from phasegate.tomography import GAP_TOL, TomographySetting, ml_reconstruct_process, settings_for_phase

# The six-input, three-basis design: informationally complete for any counts.
DESIGN = [(density(s), projector(o)) for s in STATE_LABELS for b in BASIS_LABELS for o in BASIS_OUTCOMES[b]]
OPERATORS = np.stack([np.kron(rho.T, pi) for rho, pi in DESIGN])


def log_likelihood(chi, counts):
    keep = counts > 0
    p = np.einsum("kij,ji->k", OPERATORS[keep], chi).real / (np.trace(chi).real / 2.0)
    return float(counts[keep] @ np.log(p))


def certified_gap(chi, counts):
    """Upper bound on ``max L - L(chi)`` in nats: ``N (2 lambda_max(R) - 1)`` (Glancy, Knill & Girard 2012)."""
    keep = counts > 0
    ops, n = OPERATORS[keep], counts[keep]
    p = np.einsum("kij,ji->k", ops, chi).real / (np.trace(chi).real / 2.0)
    if np.any(p <= 0.0):
        return float("inf")
    r = np.einsum("k,kij->ij", (n / n.sum()) / p, ops)
    return float(n.sum() * (2.0 * np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1] - 1.0))


def rrhor_reference(counts, iterations=300):
    """Plain RrhoR from the maximally mixed map; every iterate is feasible, so its L is a lower bound."""
    keep = counts > 0
    flat, f = OPERATORS[keep].reshape(-1, 16), counts[keep] / counts.sum()
    chi = np.eye(4, dtype=complex) / 2.0
    for _ in range(iterations):
        p = (flat.conj() @ chi.reshape(-1)).real  # Tr[chi E_k] for Hermitian E_k
        r = ((f / p) @ flat).reshape(4, 4)
        chi = r @ chi @ r
        chi = 0.5 * (chi + chi.conj().T)
        chi *= 2.0 / np.trace(chi).real
    return log_likelihood(chi, counts)


# Counts stay where double precision can certify 1e-6 nats: an outcome with n_min counts
# and probability p ~ n_min / N moves the certificate by about 2 N^2 2**-54 / n_min through
# the rounding of p, below 3e-8 nats for N <= 36 * 300 and n_min >= 0.5.
count = st.one_of(st.just(0.0), st.integers(0, 30).map(float), st.integers(0, 300).map(float),
                  st.floats(0.5, 300.0))
arbitrary_counts = st.lists(count, min_size=36, max_size=36).map(np.array)


@st.composite
def process_counts(draw):
    """Rounded expected counts of a random map of rank 1 to 4, so the optimum may sit on the boundary."""
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    chi = k @ k.conj().T
    chi *= 2.0 / np.trace(chi).real
    p = np.einsum("kij,ji->k", OPERATORS, chi).real
    scale = draw(st.sampled_from([30.0, 300.0, 3000.0]))
    return np.round(scale * np.clip(p, 0.0, None) / p.max())


@st.composite
def with_nearly_empty_outcome(draw, tables):
    counts = draw(tables).copy()
    counts[draw(st.integers(0, 35))] = draw(st.sampled_from([0.5, 1.0]))
    return counts


tables = st.one_of(arbitrary_counts, process_counts(), with_nearly_empty_outcome(arbitrary_counts),
                   with_nearly_empty_outcome(process_counts()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tables)
def test_process_fit_certified_monotone_and_physical(counts):
    assume(counts.sum() > 0)
    fit = ml_reconstruct_process([TomographySetting(rho, pi, c) for (rho, pi), c in zip(DESIGN, counts)])
    chi = fit.choi
    np.testing.assert_allclose(chi, chi.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(chi)[0] >= -1e-10
    assert abs(np.trace(chi).real - 2.0) <= 1e-12
    assert np.all(np.diff(fit.log_likelihood_trace) >= -1e-12)
    assert fit.converged and fit.stop_reason == "certified"
    assert fit.certified_gap <= GAP_TOL
    assert certified_gap(chi, counts) <= GAP_TOL
    assert fit.log_likelihood >= rrhor_reference(counts) - GAP_TOL


@pytest.fixture(scope="module")
def calibrated_phases():
    """Settings of every phase and analysis of the calibrated seed-1 run, the behaviour-lock dataset."""
    noise = calibrated_noise()
    table = simulate_counts(ExperimentPlan(), noise, 1)
    return [settings_for_phase(rescale_efficiencies(analyzed, noise), pi)
            for analyzed in (table, select_without_feedforward(table)) for pi in range(len(table.phases))]


def test_calibrated_fits_certify_in_tens_of_iterations(calibrated_phases):
    # These optima sit on the PSD boundary (13 of rank 2, one of rank 3), where RrhoR alone
    # converges only linearly; Newton on the low-rank factor finishes in a few steps.
    for phase_settings in calibrated_phases:
        fit = ml_reconstruct_process(phase_settings)
        assert fit.stop_reason == "certified" and fit.certified_gap <= GAP_TOL
        assert fit.iterations <= 64
        assert fit.apg_iterations == 0


def test_update_tol_stops_uncertified_in_rrhor(calibrated_phases):
    fit = ml_reconstruct_process(calibrated_phases[2], tol=3e-9)
    assert fit.stop_reason == "step" and not fit.converged
    assert fit.certified_gap > GAP_TOL
    assert (fit.newton_iterations, fit.apg_iterations) == (0, 0)

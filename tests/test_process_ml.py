"""Process ML: certified stop, monotone trace and PSD output on random count tables; step counts on simulated data."""

import collections
import copy

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from legacy_stream import legacy_counts

from phasegate import tomography
from phasegate.errors import ConvergenceError, DataFormatError
from phasegate.experiment import (
    CountTable,
    ExperimentPlan,
    calibrated_noise,
    ideal_noise,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
)
from phasegate.metrics import ideal_choi
from phasegate.pipeline import reconstruct_table
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


def expected_counts(chi):
    """Rounded expected counts of a map at 300 events for its likeliest outcome."""
    p = np.einsum("kij,ji->k", OPERATORS, chi).real
    return np.round(300.0 * p / p.max())


def two_peaks(i, j):
    """Two outcomes of 300 counts over a floor of 0.5."""
    row = np.full(36, 0.5)
    row[[i, j]] = 300.0
    return row


# Exact counts of the fully depolarizing map, whose optimum is the maximally mixed start.
DEPOLARIZING = np.full(36, 100.0)
# Four outcomes whose RrhoR first lowers L at step 17, midway through the warm-up.
LATE_OVERSHOOT = np.zeros(36)
LATE_OVERSHOOT[[1, 7, 13, 30]] = [231.0, 168.0, 86.0, 282.0]
NOISY_GATES = [expected_counts(0.9 * ideal_choi(phi) + 0.05 * np.eye(4)) for phi in (0.3, 2.0)]


def pipeline_row(noise, seed, feed_forward, phase_index):
    """The count row, in the order of OPERATORS, of one phase of a legacy-stream dataset as the pipeline fits it."""
    table = legacy_counts(ExperimentPlan(), noise, seed)
    analyzed = table if feed_forward else select_without_feedforward(table)
    return np.array([s.count for s in settings_for_phase(rescale_efficiencies(analyzed, noise), phase_index)])


# Newton on these rows: one step at factor rank 1; 13 steps at rank 2, at a linear rate (an optimal eigenvalue
# of 1.1e-5); a rank-2 pass left uncertified and retried at full rank.  The first two lack some outcomes.
ONE_STEP = pipeline_row(ideal_noise(pair_rate=16000.0), 1, True, 0)
LINEAR_RATE = pipeline_row(ideal_noise(pair_rate=16000.0), 1, False, 4)
FULL_RANK_RETRY = pipeline_row(calibrated_noise(), 103, True, 0)


def warmup_steps(fit):
    return fit.iterations - fit.newton_iterations


def fits_alone(rows, tol=0.0):
    return [ml_reconstruct_process([TomographySetting(rho, pi, c) for (rho, pi), c in zip(DESIGN, row)], tol)
            for row in rows]


def assert_same_fit(fit, alone):
    # Bit for bit: the steps, the stop, the certified gap and the bytes of the estimate and the trace.
    assert (fit.iterations, fit.newton_iterations, fit.stop_reason, fit.likelihood_decreases, fit.certified_gap) == (
        alone.iterations, alone.newton_iterations, alone.stop_reason, alone.likelihood_decreases, alone.certified_gap)
    assert fit.choi.tobytes() == alone.choi.tobytes()
    assert fit.log_likelihood_trace.tobytes() == alone.log_likelihood_trace.tobytes()


def test_example_rows_end_their_warmup_where_the_batch_test_needs():
    # A two-peak row overshoots at RrhoR step 2 and the sparse row at step 17, each going on to Newton;
    # the depolarizing row starts at its optimum and certifies at the end of the warm-up with no Newton
    # step, and the noisy gates run all 32 steps before Newton.
    overshoot, late, depolarizing, *gates = fits_alone([two_peaks(0, 10), LATE_OVERSHOOT, DEPOLARIZING, *NOISY_GATES])
    assert warmup_steps(overshoot) == 2 and overshoot.likelihood_decreases >= 1
    assert warmup_steps(late) == 17 and late.likelihood_decreases >= 1
    assert (depolarizing.iterations, depolarizing.newton_iterations) == (tomography._WARMUP_STEPS, 0)
    assert all(warmup_steps(fit) == tomography._WARMUP_STEPS for fit in gates)


def test_newton_stacks_of_the_example_rows(monkeypatch):
    # In one batch each factor rank steps as one stack and the retries as one more; the two-peak row damps a step.
    passes, factor_pass = [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, c, *rest: (
        passes.append((ids, c.shape[1])), factor_pass(fits, ids, c, *rest)))
    fits = tomography._ml_fixed_point(OPERATORS, np.array([ONE_STEP, LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10)]),
                                      4, 2.0)
    assert passes == [([0], 1), ([1, 2], 2), ([3], 4), ([2], 4)]
    assert [fit.newton_iterations for fit in fits[:2]] == [1, 13]
    assert warmup_steps(fits[3]) == 2 and fits[3].likelihood_decreases == 2  # the warm-up overshoot and one damped step
    assert all(fit.stop_reason == "certified" for fit in fits)


@st.composite
def count_batches(draw):
    """One to six rows, maybe with an early overshoot, a row whose start is optimal and an outcome empty in all."""
    rows = draw(st.lists(tables, min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append(two_peaks(*draw(st.lists(st.integers(0, 35), min_size=2, max_size=2, unique=True))))
    if draw(st.booleans()):
        rows.append(DEPOLARIZING)
    batch = np.array(draw(st.permutations(rows)))
    if draw(st.booleans()):
        batch[:, draw(st.integers(0, 35))] = 0.0
    return batch


@settings(max_examples=40, deadline=None, derandomize=True)
@given(count_batches())
@example(np.array([NOISY_GATES[0], two_peaks(0, 10), NOISY_GATES[1]]))
@example(np.array([NOISY_GATES[0], DEPOLARIZING, NOISY_GATES[1]]))
@example(np.array([two_peaks(3, 20), NOISY_GATES[1], DEPOLARIZING, 40.0 * np.eye(36)[7]]))
@example(np.array([NOISY_GATES[0], DEPOLARIZING, LATE_OVERSHOOT, NOISY_GATES[1]]))
@example(np.array([ONE_STEP, LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10)]))
@example(np.array([two_peaks(0, 10), FULL_RANK_RETRY, DEPOLARIZING, LINEAR_RATE, ONE_STEP, NOISY_GATES[1]]))
def test_batched_fits_match_fits_one_at_a_time(batch):
    # Each fit of a batch stops by its own rules: the same steps, stop reason and estimate as alone.
    assume(np.all(batch.sum(axis=1) > 0))
    for fit, alone in zip(tomography._ml_fixed_point(OPERATORS, batch, 4, 2.0), fits_alone(batch)):
        assert_same_fit(fit, alone)


@pytest.fixture(scope="module")
def dataset_phases():
    """Settings of every phase and analysis of legacy-stream datasets, keyed by (noise model, dataset seed).

    Seed 1 of both models is the behaviour-lock data.  On calibrated dataset 103 at phi = 0
    the rank read off the warm-up drops a direction that the optimum keeps, and on ideal16k
    dataset 1 (no feed forward, phase index 4) an optimal eigenvalue of 1.1e-5 takes 13
    Newton steps at a linear rate.
    """
    datasets = {("calibrated", 1): calibrated_noise(), ("calibrated", 103): calibrated_noise(),
                ("ideal16k", 1): ideal_noise(pair_rate=16000.0)}
    phases = {}
    for (model, seed), noise in datasets.items():
        table = legacy_counts(ExperimentPlan(), noise, seed)
        phases[model, seed] = [settings_for_phase(rescale_efficiencies(analyzed, noise), pi)
                               for analyzed in (table, select_without_feedforward(table))
                               for pi in range(len(table.phases))]
    return phases


def test_calibrated_fits_certify_in_tens_of_iterations(dataset_phases):
    # These optima sit on the PSD boundary (on calibrated seed 1, 13 of rank 2 and one of rank 3),
    # where RrhoR alone converges only linearly; Newton on the low-rank factor finishes in a few
    # steps, and a full-rank retry from the warm-up iterate finishes where the rank was too low.
    for (model, seed), phases in dataset_phases.items():
        for phase_settings in phases:
            fit = ml_reconstruct_process(phase_settings)
            assert fit.stop_reason == "certified" and fit.certified_gap <= GAP_TOL
            assert fit.iterations <= tomography._WARMUP_STEPS + 2 * tomography._FACTOR_STEPS
            assert np.all(np.diff(fit.log_likelihood_trace) >= -1e-12)
            if seed == 1:
                assert fit.newton_iterations <= tomography._FACTOR_STEPS
            if (model, seed) == ("calibrated", 1):
                assert fit.iterations <= 64


def test_update_tol_stops_uncertified_in_rrhor(dataset_phases):
    fit = ml_reconstruct_process(dataset_phases["calibrated", 1][2], tol=3e-9)
    assert fit.stop_reason == "step" and not fit.converged
    assert fit.certified_gap > GAP_TOL
    assert fit.newton_iterations == 0


def test_update_tol_stops_each_fit_of_a_batch_as_alone(dataset_phases):
    # Under tol > 0 the stack steps until every fit has stood still or lowered L, and each fit ends at its own
    # first such step: still steps 86, 110 and 82 on three calibrated phases, an overshoot at step 2.
    rows = [[s.count for s in dataset_phases["calibrated", 1][pi]] for pi in (0, 1, 3)] + [two_peaks(0, 10)]
    fits = tomography._ml_fixed_point(OPERATORS, np.array(rows), 4, 2.0, tol=3e-9)
    assert [(fit.iterations, fit.stop_reason) for fit in fits[:3]] == [(86, "step"), (110, "step"), (82, "step")]
    assert (fits[3].iterations, fits[3].stop_reason) == (2, "stalled")
    for fit, alone in zip(fits, fits_alone(rows, tol=3e-9)):
        assert_same_fit(fit, alone)


def test_exhausted_newton_stops_stalled(monkeypatch):
    # With one Newton step per pass the fit ends uncertified well before the iteration cap.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    noise = calibrated_noise()
    table = legacy_counts(ExperimentPlan(phases=(0.0,)), noise, 1)
    fit = ml_reconstruct_process(settings_for_phase(rescale_efficiencies(table, noise), 0))
    assert fit.stop_reason == "stalled" and not fit.converged
    assert fit.certified_gap > GAP_TOL
    with pytest.raises(ConvergenceError, match="stalled"):
        reconstruct_table(table, noise, True)


def test_a_stack_steps_each_fit_bit_for_bit_as_a_stack_of_one(monkeypatch, dataset_phases):
    # Every product and sum of a Newton step is one fit's, so the other fits of a stack cannot move its bits:
    # replayed alone from the same start, over the same outcomes, each fit ends bit for bit as in the stack.
    # Legacy dataset 103 has full-rank retries; on the new stream's calibrated datasets 3 and 103 the fits of a
    # rank-2 stack lack the same outcomes.
    replayed, factor_pass = [], tomography._factor_pass

    def replay(fits, ids, c, est, r, forms, e_build, weights, empty, n_total, trace_target):
        starts = [(copy.deepcopy(fits[j]), c[[i]], est[[j]], r[[j]]) for i, j in enumerate(ids)]
        factor_pass(fits, ids, c, est, r, forms, e_build, weights, empty, n_total, trace_target)
        for j, (fit, c1, est1, r1) in zip(ids, starts):
            factor_pass([fit], [0], c1, est1, r1, forms, e_build, weights[[j]], empty[[j]], n_total[[j]], trace_target)
            assert (fit.newton_iterations, fit.likelihood_decreases, fit.stop_reason) == (
                fits[j].newton_iterations, fits[j].likelihood_decreases, fits[j].stop_reason)
            assert fit.log_likelihood_trace == fits[j].log_likelihood_trace
            assert fit.certified_gap == fits[j].certified_gap
            assert est1.tobytes() == est[[j]].tobytes() and r1.tobytes() == r[[j]].tobytes()
            replayed.append(j)

    monkeypatch.setattr(tomography, "_factor_pass", replay)
    rows = np.array([[s.count for s in phase] for phase in dataset_phases["calibrated", 103]])
    tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
    assert sorted(set(replayed)) == list(range(len(rows))) and len(replayed) > len(rows)  # with full-rank retries
    noise = calibrated_noise()
    for seed in (3, 103):
        table = simulate_counts(ExperimentPlan(), noise, seed)
        rows = np.concatenate([tomography._outcome_counts(rescale_efficiencies(analyzed, noise), slice(None))[1]
                               for analyzed in (table, select_without_feedforward(table))])
        replayed.clear()
        tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
        assert sorted(set(replayed)) == list(range(len(rows)))


def test_stalled_fits_beside_certified_ones(monkeypatch, dataset_phases):
    # With one Newton step per pass the calibrated rows stall, while the depolarizing row certifies in the warm-up.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    rows = [[s.count for s in dataset_phases["calibrated", 1][pi]] for pi in range(4)] + [DEPOLARIZING]
    fits = tomography._ml_fixed_point(OPERATORS, np.array(rows), 4, 2.0)
    assert [fit.stop_reason for fit in fits] == ["stalled"] * 4 + ["certified"]
    for fit, alone in zip(fits, fits_alone(rows)):
        assert_same_fit(fit, alone)


def test_table_batch_matches_fits_per_phase():
    # One batch per table, with the phases' counts in the order of settings_for_phase.
    for noise, seed in ((calibrated_noise(), 103), (ideal_noise(pair_rate=16000.0), 1)):
        table = legacy_counts(ExperimentPlan(), noise, seed)
        for analyzed in (table, select_without_feedforward(table)):
            rescaled = rescale_efficiencies(analyzed, noise)
            fits, = tomography.ml_reconstruct_phases(rescaled)
            for pi, fit in enumerate(fits):
                assert_same_fit(fit, ml_reconstruct_process(settings_for_phase(rescaled, pi)))


def test_tables_of_one_batch_must_list_the_same_states_and_bases():
    # The batch shares one design in canonical label order: a table that stores its bases in another order fits
    # bit for bit as the canonical one, and a table with another set of bases is refused.
    table = simulate_counts(ExperimentPlan(phases=(0.0,)), ideal_noise(pair_rate=2000.0, n_intervals=1), 9)
    stored = CountTable(table.phases, table.input_states, ("X", "Y", "Z"), table.counts[:, :, [1, 2, 0]])
    (fit,), (reordered,) = tomography.ml_reconstruct_phases(table, stored)
    assert_same_fit(reordered, fit)
    fewer = CountTable(table.phases, table.input_states, ("Z", "X"), table.counts[:, :, :2])
    with pytest.raises(DataFormatError, match="same input states and bases"):
        tomography.ml_reconstruct_phases(table, fewer)


def assert_gap_of_the_estimate(fit, row):
    # The fit's gap is the certificate of its choi, up to the certificate's own rounding.
    assert abs(fit.certified_gap - certified_gap(fit.choi, row)) <= tomography._ROUNDING_RTOL * (
        row.sum() + fit.certified_gap)


def test_every_fit_reports_the_gap_of_the_estimate_it_returns(monkeypatch, dataset_phases):
    # Each stop's certified_gap is the certificate of the returned choi: warm-up and Newton stops, stalled fits
    # (one Newton step per pass), still steps under tol, and full-rank retries, which start again from the warm-up
    # iterate and its gap.
    passes, factor_pass = collections.Counter(), tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, c, *rest: (
        passes.update(id(fits[j]) for j in ids), factor_pass(fits, ids, c, *rest)))
    examples = np.array([ONE_STEP, LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10), DEPOLARIZING, LATE_OVERSHOOT,
                         *NOISY_GATES])
    calibrated = np.array([[s.count for s in phase] for phase in dataset_phases["calibrated", 1]])
    runs = [(examples, 0.0), (calibrated, 3e-9)]
    fitted = [(tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0, tol), rows) for rows, tol in runs]
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    fitted.append((tomography._ml_fixed_point(OPERATORS, calibrated, 4, 2.0), calibrated))
    pairs = [(fit, row) for fits, rows in fitted for fit, row in zip(fits, rows)]
    assert {fit.stop_reason for fit, _ in pairs} == {"certified", "stalled", "step"}
    assert {fit.stop_reason for fit, _ in pairs if passes[id(fit)] == 2} == {"certified", "stalled"}  # retried
    for fit, row in pairs:
        assert_gap_of_the_estimate(fit, row)


def test_a_retry_that_takes_no_step_returns_the_warmup_iterate_and_its_gap(monkeypatch, dataset_phases):
    # One Newton step per pass: the rank-2 pass takes a step and ends uncertified, and with the full-rank retry
    # skipped the fit ends stalled on the warm-up iterate, which carries its own gap.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    passes, factor_pass = [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, *rest: (
        passes.append(ids), None if len(passes) > 1 else factor_pass(fits, ids, *rest)))
    row = np.array([s.count for s in dataset_phases["calibrated", 1][0]])
    fit, = tomography._ml_fixed_point(OPERATORS, row[None], 4, 2.0)
    assert len(passes) == 2 and fit.stop_reason == "stalled"
    assert len(fit.log_likelihood_trace) == warmup_steps(fit) + 1  # the step of the rank-2 pass was cut back
    assert_gap_of_the_estimate(fit, row)

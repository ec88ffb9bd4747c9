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


def stream_rows(noise, seed):
    """The count rows, in the order of OPERATORS, of every phase with and then without feed forward of a dataset of
    the pipeline's stream, as ``reconstruct_analyses`` fits them in one batch."""
    table = simulate_counts(ExperimentPlan(), noise, seed)
    return np.concatenate([tomography._outcome_counts(rescale_efficiencies(analyzed, noise), slice(None))[1]
                           for analyzed in (table, select_without_feedforward(table))])


# Newton on these rows, as measured: ONE_STEP takes one step at factor rank 1.  LINEAR_RATE, whose optimum has a
# second eigenvalue of 1.1e-5, gains a column after 2 steps at rank 1, where it is 34 nats short and its Newton model
# gains less than 1e-4 of that, and certifies 3 steps later; started at rank 2, it took 13 steps at a linear rate.
# FULL_RANK_RETRY, which a rank-2 start once left uncertified until the full-rank retry, starts at rank 3, the rank of
# its optimum, and certifies in 10 steps; it reaches the retry only once its steps run out (at _FACTOR_STEPS = 8).
# The first two lack some outcomes.
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
    # In one batch each factor rank steps as one stack: the fits that start there, each at its best warm-up
    # truncation, beside those that gained a column below it (LINEAR_RATE).  The two-peak row damps a step.
    passes, factor_pass = [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, c, *rest: (
        passes.append((ids, c.shape[1])) or factor_pass(fits, ids, c, *rest)))
    fits = tomography._ml_fixed_point(OPERATORS, np.array([ONE_STEP, LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10)]),
                                      4, 2.0)
    assert passes == [([0, 1], 1), ([1], 2), ([2], 3), ([3], 4)]
    assert [fit.newton_iterations for fit in fits[:3]] == [1, 5, 10]
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

    Seed 1 of both models is the behaviour-lock data.  Calibrated dataset 103 at phi = 0 is
    FULL_RANK_RETRY, and ideal16k dataset 1 (no feed forward, phase index 4) is LINEAR_RATE.
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
    # steps, with a column more where a rank-1 start stands still short of the optimum.
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
    # replayed alone from the same start, over the same outcomes, each fit ends bit for bit as in the stack, and
    # a fit that gains a column gains the same one.  Legacy dataset 103 has rank-2, 3 and 4 stacks; on the new
    # stream's calibrated datasets 3 and 103 the fits of a rank-2 stack lack the same outcomes, and on its
    # ideal16k dataset 1 four fits gain a column at rank 1.
    replayed, factor_pass = [], tomography._factor_pass

    def replay(fits, ids, c, left, est, forms, e_build, weights, empty, n_total, trace_target):
        starts = [(copy.deepcopy(fits[j]), c[[i]], left[[j]], est[[j]]) for i, j in enumerate(ids)]
        grown, factors = factor_pass(fits, ids, c, left, est, forms, e_build, weights, empty, n_total, trace_target)
        for j, (fit, c1, left1, est1) in zip(ids, starts):
            grown1, factors1 = factor_pass([fit], [0], c1, left1, est1, forms, e_build, weights[[j]], empty[[j]],
                                           n_total[[j]], trace_target)
            assert (fit.newton_iterations, left1[0], fit.likelihood_decreases, fit.stop_reason) == (
                fits[j].newton_iterations, left[j], fits[j].likelihood_decreases, fits[j].stop_reason)
            assert fit.log_likelihood_trace == fits[j].log_likelihood_trace
            assert fit.certified_gap == fits[j].certified_gap
            assert est1.tobytes() == est[[j]].tobytes()
            assert (grown1 == [0]) == (j in grown)
            assert factors1.tobytes() == factors[[grown.index(j)] if j in grown else []].tobytes()
            replayed.append(j)
        return grown, factors

    monkeypatch.setattr(tomography, "_factor_pass", replay)
    rows = np.array([[s.count for s in phase] for phase in dataset_phases["calibrated", 103]])
    tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
    assert sorted(set(replayed)) == list(range(len(rows)))
    for noise, seed in ((calibrated_noise(), 3), (calibrated_noise(), 103), (ideal_noise(pair_rate=16000.0), 1)):
        rows = stream_rows(noise, seed)
        replayed.clear()
        tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
        assert sorted(set(replayed)) == list(range(len(rows)))
    assert len(replayed) == len(rows) + 4  # the four that gained a column, replayed at ranks 1 and 2


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
    # Each stop's certified_gap is the certificate of the returned choi: warm-up and Newton stops, fits that gained
    # a column, stalled fits (one Newton step before the full-rank retry and one in it), still steps under tol, and
    # full-rank retries, which start again from the warm-up iterate and its gap (FULL_RANK_RETRY with 8 steps).
    passes, factor_pass = collections.Counter(), tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, c, *rest: (
        passes.update(id(fits[j]) for j in ids) or factor_pass(fits, ids, c, *rest)))
    examples = np.array([ONE_STEP, LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10), DEPOLARIZING, LATE_OVERSHOOT,
                         *NOISY_GATES])
    calibrated = np.array([[s.count for s in phase] for phase in dataset_phases["calibrated", 1]])
    runs = [(examples, 0.0), (calibrated, 3e-9)]
    fitted = [(tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0, tol), rows) for rows, tol in runs]
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    fitted.append((tomography._ml_fixed_point(OPERATORS, calibrated, 4, 2.0), calibrated))
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 8)
    fitted.append((tomography._ml_fixed_point(OPERATORS, examples, 4, 2.0), examples))
    pairs = [(fit, row) for fits, rows in fitted for fit, row in zip(fits, rows)]
    assert {fit.stop_reason for fit, _ in pairs} == {"certified", "stalled", "step"}
    assert {fit.stop_reason for fit, _ in pairs if passes[id(fit)] == 2} == {"certified", "stalled"}
    for fit, row in pairs:
        assert_gap_of_the_estimate(fit, row)


def test_a_retry_that_takes_no_step_returns_the_warmup_iterate_and_its_gap(monkeypatch, dataset_phases):
    # One Newton step before the full-rank retry: the rank-2 pass spends it and ends uncertified, and with the retry
    # skipped the fit ends stalled on the warm-up iterate, which carries its own gap.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 1)
    passes, factor_pass = [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, *rest: (
        passes.append(ids) or (None if len(passes) > 1 else factor_pass(fits, ids, *rest))))
    row = np.array([s.count for s in dataset_phases["calibrated", 1][0]])
    fit, = tomography._ml_fixed_point(OPERATORS, row[None], 4, 2.0)
    assert len(passes) == 2 and fit.stop_reason == "stalled"
    assert len(fit.log_likelihood_trace) == warmup_steps(fit) + 1  # the step of the rank-2 pass was cut back
    assert_gap_of_the_estimate(fit, row)


def test_a_fit_that_spends_its_steps_certifies_in_the_full_rank_retry(monkeypatch):
    # No row of the datasets measured reaches the retry with the default budget, so the budget forces it: with 8
    # Newton steps shared by every pass below full rank, FULL_RANK_RETRY spends them at rank 3, 2 short of its
    # certificate, and the retry from the warm-up iterate certifies it in 8 steps of its own.  In a batch it ends
    # bit for bit as alone.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", 8)
    passes, factor_pass = [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda fits, ids, c, *rest: (
        passes.append((ids, c.shape[1])) or factor_pass(fits, ids, c, *rest)))
    fit, = tomography._ml_fixed_point(OPERATORS, FULL_RANK_RETRY[None], 4, 2.0)
    assert passes == [([0], 3), ([0], 4)]
    assert (fit.stop_reason, fit.newton_iterations) == ("certified", 16)
    assert len(fit.log_likelihood_trace) == warmup_steps(fit) + 1 + 8  # the steps at rank 3 were cut back
    assert np.all(np.diff(fit.log_likelihood_trace) >= -1e-12)
    assert_gap_of_the_estimate(fit, FULL_RANK_RETRY)
    batch = np.array([LINEAR_RATE, FULL_RANK_RETRY, two_peaks(0, 10)])
    for fit, alone in zip(tomography._ml_fixed_point(OPERATORS, batch, 4, 2.0), fits_alone(batch)):
        assert_same_fit(fit, alone)


@pytest.mark.parametrize("factor_steps", [1, tomography._FACTOR_STEPS])
def test_no_fit_exceeds_its_documented_iterations(monkeypatch, factor_steps):
    # All passes below full rank share one budget of _FACTOR_STEPS Newton steps and the full-rank retry has one of
    # its own, so no fit of the lock datasets takes more than _WARMUP_STEPS + 2 * _FACTOR_STEPS iterations, and
    # with one step per budget every stack still ends.
    monkeypatch.setattr(tomography, "_FACTOR_STEPS", factor_steps)
    for noise in (ideal_noise(pair_rate=16000.0), calibrated_noise()):
        for rows in (stream_rows(noise, 1), np.array([pipeline_row(noise, 1, ff, pi) for ff in (True, False)
                                                      for pi in range(7)])):
            for fit in tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0):
                assert fit.iterations <= tomography._WARMUP_STEPS + 2 * factor_steps
                assert fit.newton_iterations <= 2 * factor_steps


def gauge_directions(x):
    return (x[:, None] @ tomography._gauge(x.shape[1] // 8, 4)).reshape(len(x), -1, x.shape[1])


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_the_gradient_is_flat_along_every_gauge_direction(monkeypatch, rank):
    # L does not change under B -> c B U, so at any factor and for any counts the gradient is orthogonal to the
    # rank^2 + 1 directions i K C (K Hermitian) and x that the Newton step fixes.
    rng = np.random.default_rng(rank)
    newton, steps, factor_pass = [], [], tomography._factor_pass
    monkeypatch.setattr(tomography, "_factor_pass", lambda *args: newton.append(args) or ([], args[2][:0]))
    tomography._ml_fixed_point(OPERATORS, rng.integers(0, 300, (3, 36)).astype(float), 4, 2.0)
    fits, ids, _, left, est, *design = newton[0]
    left[ids] = 1
    monkeypatch.setattr(tomography, "_newton_step", lambda x, grad, *rest: steps.append((x, grad)) or 0.0 * grad)
    factor_pass(fits, ids, rng.normal(size=(len(ids), rank, 4)) + 1j * rng.normal(size=(len(ids), rank, 4)), left,
                est, *design)
    (x, grad), = steps
    g = gauge_directions(x)
    assert g.shape == (len(ids), rank * rank + 1, 8 * rank)
    np.testing.assert_array_less(np.abs((g @ grad[:, :, None])[..., 0]),
                                 1e-13 * np.linalg.norm(g, axis=2) * np.linalg.norm(grad, axis=1)[:, None])


def fail_cholesky(m):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def test_the_gauge_fixed_step_is_the_eigh_step_at_a_well_conditioned_optimum(monkeypatch):
    # At an optimum of the factor's rank the Hessian is flat exactly along the gauge directions, and on every
    # gradient, which is orthogonal to them, the solve with their Gram term added gives the step that inverts the
    # Hessian on its negative curvature.  Each fit of the stream lock datasets is refitted with no stop, and the two
    # steps are compared where Newton stands still at the rank the fit certified at.  The stream-calibrated fit with
    # feed forward at phase index 0 (Choi eigenvalues 0, 7.7e-5, 0.052, 1.95) certifies at factor rank 3; it used
    # to step at rank 4.  At its certified iterate, one step earlier, a gauge direction still has a curvature of
    # 1.2e-10 times the largest, just above the eigh step's cutoff, and only that step inverts it.
    rng = np.random.default_rng(0)
    newton_step, settled = tomography._newton_step, tomography._settled
    rows = np.concatenate([stream_rows(noise, 1) for noise in (ideal_noise(pair_rate=16000.0), calibrated_noise())])
    ranks = []
    for row in rows:
        fit, = tomography._ml_fixed_point(OPERATORS, row[None], 4, 2.0)
        steps = []
        with monkeypatch.context() as patch:
            patch.setattr(tomography, "_settled", lambda *args: (settled(*args)[0], 0 * settled(*args)[1]))
            patch.setattr(tomography, "_newton_step", lambda *args: steps.append(args) or newton_step(*args))
            tomography._ml_fixed_point(OPERATORS, row[None], 4, 2.0)
        if not fit.newton_iterations:
            continue
        # The refit steps as the fit did up to its certified iterate, steps[newton_iterations], and then on.
        n = steps[fit.newton_iterations][0].shape[1]
        ranks.append(max(x.shape[1] for x, *_ in steps[: fit.newton_iterations + 1]) // 8)
        x, _, hess, gauge = [step for step in steps if step[0].shape[1] == n][-1]
        q = np.linalg.qr(gauge_directions(x)[0].T)[0]
        grad = rng.normal(size=x.shape)
        grad -= grad @ q @ q.T
        new = newton_step(x, grad, hess, gauge)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", fail_cholesky)
            old = newton_step(x, grad, hess, gauge)
        assert np.linalg.norm(new - old) <= 1e-8 * np.linalg.norm(old)
    assert len(ranks) == len(rows) and ranks[14] == 3


def test_a_fit_whose_solve_fails_cholesky_alone_takes_the_eigh_step(monkeypatch):
    # On the stream's calibrated dataset 13 one Newton stack of 13 fits holds a fit whose gauge-fixed matrix is not
    # positive definite beside fits whose matrix is: that stack steps again by halves, the one fit takes the eigh
    # step alone, no LinAlgError leaves the fit, and each fit ends bit for bit as it would alone.
    rows = stream_rows(calibrated_noise(), 13)
    tries, cholesky = [], np.linalg.cholesky

    def spy(m):
        tries.append([len(m), False])
        cholesky(m)
        tries[-1][1] = True

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    fits = tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
    monkeypatch.undo()
    failed = [k for k, ok in tries if not ok]
    assert 1 in failed and max(failed) > failed.count(1)  # the largest failing stack holds fits that solve
    for fit, alone in zip(fits, fits_alone(rows)):
        assert fit.stop_reason == "certified"
        assert_same_fit(fit, alone)


def test_with_every_cholesky_failing_each_fit_takes_the_eigh_step(monkeypatch):
    # The fallback is the step of a Hessian inverted on its negative curvature alone: with every Cholesky failing,
    # the stream-calibrated lock fits at feed forward phase index 0 and without it at 5 take the Newton steps and
    # damped steps (6, 0) and (9, 1) of that step, where the solve takes (6, 0) and (9, 0).
    rows = stream_rows(calibrated_noise(), 1)
    monkeypatch.setattr(np.linalg, "cholesky", fail_cholesky)
    fits = tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0)
    assert [(fits[j].newton_iterations, fits[j].likelihood_decreases) for j in (0, 12)] == [(6, 0), (9, 1)]
    for fit, alone in zip(fits, fits_alone(rows)):
        assert fit.stop_reason == "certified"
        assert_same_fit(fit, alone)


def test_the_lock_fits_solve_every_newton_step(monkeypatch):
    # No eigh of the ideal16k lock dataset's fits has the shape of a Hessian, 8 rank x 8 rank: no Newton step falls
    # back.  The 4 x 4 ones are the truncation read of the warm-up iterates and the top eigenvectors of R for the
    # fits that gain a column.
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    fits = tomography._ml_fixed_point(OPERATORS, stream_rows(ideal_noise(pair_rate=16000.0), 1), 4, 2.0)
    assert sum(fit.newton_iterations for fit in fits) > len(fits)
    assert [shape for shape in calls if shape[-1] != 4] == [] and (len(fits), 4, 4) in calls


def fits_and_factor_ranks(rows):
    """``(fit, rank)`` of each row of one batch: the factor rank of the fit's last Newton pass, 0 if it took none."""
    ranks, factor_pass = [0] * len(rows), tomography._factor_pass

    def spy(fits, ids, c, *rest):
        for j in ids:
            ranks[j] = c.shape[1]
        return factor_pass(fits, ids, c, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "_factor_pass", spy)
        return list(zip(tomography._ml_fixed_point(OPERATORS, rows, 4, 2.0), ranks))


@pytest.fixture(scope="module")
def stream_sweeps():
    """``(fit, rank)`` of every fit of the stream's ideal16k and calibrated datasets 1-40, in seed order, and of the
    seed_sweep benchmark's calibrated datasets 100-119."""
    sweeps = {"ideal16k": (ideal_noise(pair_rate=16000.0), range(1, 41)),
              "calibrated": (calibrated_noise(), range(1, 41)), "seed_sweep": (calibrated_noise(), range(100, 120))}
    return {name: [pair for seed in seeds for pair in fits_and_factor_ranks(stream_rows(noise, seed))]
            for name, (noise, seeds) in sweeps.items()}


def above_optimum_rank(pairs):
    """How many fits certify in a Newton pass of a factor rank above their optimum's, the number of Choi
    eigenvalues above 1e-8."""
    newton = [(fit, rank) for fit, rank in pairs if fit.newton_iterations]
    optimum = (np.linalg.eigvalsh(np.array([fit.choi for fit, _ in newton])) > 1e-8).sum(axis=1)
    return int((np.array([rank for _, rank in newton]) > optimum).sum())


@pytest.mark.parametrize("name", ["ideal16k", "calibrated"])
def test_every_fit_of_forty_datasets_certifies(stream_sweeps, name):
    assert len(stream_sweeps[name]) == 40 * 14
    for fit, _ in stream_sweeps[name]:
        assert fit.stop_reason == "certified" and fit.certified_gap <= GAP_TOL


def test_newton_census_of_the_calibrated_sweep(stream_sweeps):
    # The 280 fits of calibrated datasets 100-119, the seed_sweep benchmark's data, all certify in 775 Newton steps,
    # 816 before each fit started at its best warm-up truncation.  Growing a factor once its Newton model cannot
    # certify it does not touch them.
    fits = [fit for fit, _ in stream_sweeps["seed_sweep"]]
    assert len(fits) == 280 and all(fit.stop_reason == "certified" for fit in fits)
    assert sum(fit.newton_iterations for fit in fits) == 775


def test_newton_census_of_the_ideal_sweep(stream_sweeps):
    # The 560 fits of the stream's ideal16k datasets 1-40 certify in at most 1,378 Newton steps and at most 5 each:
    # a rank-1 factor that its Newton model cannot certify gains a column at once.  Stepping on until it stood still
    # took 1,710 steps, and 7 for the longest fit.
    steps = [fit.newton_iterations for fit, _ in stream_sweeps["ideal16k"]]
    assert sum(steps) <= 1378 and max(steps) <= 5


def test_fits_certify_at_the_rank_of_their_optimum(stream_sweeps):
    # A fit grows only where its rank cannot certify it, so few certify in a pass of a factor rank above their
    # optimum's: none of the stream's ideal16k fits of datasets 1-40, 12 of its calibrated fits of datasets 1-20 (in
    # 712 Newton steps) and 19 of the seed_sweep fits.
    calibrated = stream_sweeps["calibrated"][: 20 * 14]
    assert above_optimum_rank(stream_sweeps["ideal16k"]) == 0
    assert above_optimum_rank(calibrated) <= 12 and sum(fit.newton_iterations for fit, _ in calibrated) == 712
    assert above_optimum_rank(stream_sweeps["seed_sweep"]) <= 19

"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single verdict line
(`[criterion N] <name>: PASS|FAIL ...`) directly to the terminal even
under pytest capture, then asserts.  Later criteria reuse the
reconstructions produced by earlier ones (via a module-level registry)
so the maximum-likelihood property checks in criterion 7 run over every
dataset this gate touches.
"""

import time

import numpy as np
import pytest

from phasegate.config import RunConfig
from phasegate.experiment import (
    DEFAULT_PHASES,
    ExperimentPlan,
    calibrated_noise,
    ideal_noise,
    outcome_probabilities,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
    usable_fraction,
)
from phasegate.gate import gate_unitary
from phasegate.metrics import ideal_choi, process_fidelity
from phasegate.pipeline import run_pipeline
from phasegate.states import BASIS_LABELS, STATE_LABELS, ket
from phasegate.tomography import apply_map, ml_reconstruct_process, settings_for_phase

#: Process reconstructions accumulated by earlier criteria, checked in criterion 7.
RECONSTRUCTIONS = []


@pytest.fixture()
def verdict(capfd):
    def emit(number, name, ok, detail=""):
        line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def process_fidelities(table, noise, feed_forward):
    """Per-phase process ML (no output-state fits), with registry capture."""
    analyzed = table if feed_forward else select_without_feedforward(table)
    analyzed = rescale_efficiencies(analyzed, noise)
    fids = []
    for pi, phi in enumerate(analyzed.phases):
        recon = ml_reconstruct_process(settings_for_phase(analyzed, pi))
        RECONSTRUCTIONS.append(recon)
        fids.append(process_fidelity(recon.choi, ideal_choi(phi)))
    return fids


def test_criterion_1_noiseless_closed_loop(verdict):
    noise = ideal_noise(pair_rate=16000.0)
    expected_events = noise.pair_rate * 0.5 * noise.interval_s * noise.n_intervals * 18
    assert expected_events >= 1e6
    start = time.perf_counter()
    result = run_pipeline(RunConfig(noise=noise, seed=1))
    elapsed = time.perf_counter() - start
    for rs in result.reconstructions:
        RECONSTRUCTIONS.extend(rs.processes)
    worst = min(r.F_chi for r in result.reports)
    ok = worst >= 0.999 and elapsed < 120.0 and len(result.reports) == 14
    verdict(1, "noiseless closed loop", ok, f"min F_chi={worst:.6f}, {elapsed:.1f}s")


def test_criterion_2_success_probability_doubling(verdict):
    noise = ideal_noise()
    table = simulate_counts(ExperimentPlan(), noise, 7)
    with_ff = usable_fraction(rescale_efficiencies(table, noise), noise)
    without = usable_fraction(
        rescale_efficiencies(select_without_feedforward(table), noise), noise
    )
    ok = abs(with_ff - 0.50) <= 0.01 and abs(without - 0.25) <= 0.01
    verdict(2, "success probability doubling", ok,
            f"with={with_ff:.4f}, without={without:.4f}")


def test_criterion_3_feed_forward_neutrality(verdict):
    noise = calibrated_noise()
    plan = ExperimentPlan()
    gaps = np.empty((20, len(plan.phases)))
    for k, seed in enumerate(range(100, 120)):
        table = simulate_counts(plan, noise, seed)
        f_ff = process_fidelities(table, noise, True)
        f_noff = process_fidelities(table, noise, False)
        gaps[k] = np.abs(np.subtract(f_ff, f_noff))
    medians = np.median(gaps, axis=0)
    ok = bool(np.all(medians < 0.01))
    verdict(3, "feed-forward neutrality", ok,
            f"max per-phase median gap={medians.max():.5f}")


def test_criterion_4_calibrated_noise_band(verdict):
    noise = calibrated_noise()
    table = simulate_counts(ExperimentPlan(), noise, 42)
    fids = process_fidelities(table, noise, True)
    ok = all(0.96 <= f <= 0.99 for f in fids)
    verdict(4, "calibrated-noise fidelity band", ok,
            f"F_chi range [{min(fids):.4f}, {max(fids):.4f}]")


def test_criterion_5_closed_form_fidelity(verdict):
    def trace_product(a, b):
        # plain 4x4 trace arithmetic, no library calls
        s = 0.0 + 0.0j
        for i in range(4):
            for j in range(4):
                s += a[i, j] * b[j, i]
        return s.real

    worst = 0.0
    for a in np.linspace(0.0, 2 * np.pi, 100):
        chi_a = ideal_choi(a)
        for b in DEFAULT_PHASES:
            chi_b = ideal_choi(b)
            via_library = process_fidelity(chi_a, chi_b)
            closed_form = np.cos((a - b) / 2) ** 2
            by_hand = trace_product(chi_a, chi_b) / (
                trace_product(chi_a, np.eye(4)) * trace_product(chi_b, np.eye(4))
            )
            worst = max(worst, abs(via_library - closed_form), abs(via_library - by_hand))
    ok = worst <= 1e-12
    verdict(5, "closed-form fidelity oracle", ok, f"max |error|={worst:.2e}")


def test_criterion_6_map_application(verdict):
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for phi in DEFAULT_PHASES:
            u = gate_unitary(phi)
            mapped, weight = apply_map(ideal_choi(phi), rho)
            worst = max(worst, np.abs(mapped - u @ rho @ u.conj().T).max(),
                        abs(weight - 1.0))
    ok = worst <= 1e-12
    verdict(6, "map-application oracle", ok, f"max |error|={worst:.2e}")


def test_criterion_7_ml_properties(verdict):
    # N sweep at phi = pi/2: expected usable events per phase is
    # pair_rate * 0.5 * 3 s * 18 settings = 27 * pair_rate.
    plan = ExperimentPlan(phases=(np.pi / 2,))
    medians = []
    for n_events in (1e3, 1e4, 1e5, 1e6):
        noise = ideal_noise(pair_rate=n_events / 27.0, n_intervals=1)
        errors = []
        for seed in range(200, 220):
            table = simulate_counts(plan, noise, seed)
            fid = process_fidelities(table, noise, True)[0]
            errors.append(1.0 - fid)
        medians.append(float(np.median(errors)))
    monotone = all(a > b for a, b in zip(medians, medians[1:]))

    assert RECONSTRUCTIONS, "no reconstructions registered"
    min_step = min(float(np.diff(r.log_likelihood_trace).min()) for r in RECONSTRUCTIONS)
    min_eig = min(float(np.linalg.eigvalsh(r.choi).min()) for r in RECONSTRUCTIONS)
    max_iters = max(r.iterations for r in RECONSTRUCTIONS)
    all_converged = all(r.converged for r in RECONSTRUCTIONS)

    ok = (monotone and min_step >= -1e-12 and min_eig >= -1e-10
          and max_iters < 10**5 and all_converged)
    verdict(7, "ML monotonicity, positivity, convergence", ok,
            f"{len(RECONSTRUCTIONS)} fits, min step={min_step:.1e}, "
            f"min eig={min_eig:.1e}, max iters={max_iters}, "
            f"1-F medians={['%.1e' % m for m in medians]}")


def test_criterion_8_branch_equivalence(verdict):
    noise = ideal_noise()
    worst_prob = 0.0
    for phi in DEFAULT_PHASES:
        for state in STATE_LABELS:
            for basis in BASIS_LABELS:
                probs, _ = outcome_probabilities(ket(state), phi, basis, noise)
                worst_prob = max(worst_prob, np.abs(probs[0] - probs[1]).max())

    table = simulate_counts(ExperimentPlan(), noise, 11)
    worst_sigma = 0.0
    for pi in range(len(table.phases)):
        for si in range(len(table.input_states)):
            for bi in range(len(table.bases)):
                sc = table.counts[pi, si, bi].sum(axis=2)
                n0, n1 = sc[0].sum(), sc[1].sum()
                worst_sigma = max(worst_sigma, abs(n0 - n1) / np.sqrt(n0 + n1))

    ok = worst_prob <= 1e-12 and worst_sigma <= 5.0
    verdict(8, "corrected-branch equivalence", ok,
            f"max |dp|={worst_prob:.2e}, max |dn|/sigma={worst_sigma:.2f}")

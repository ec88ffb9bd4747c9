"""The simulation stream that count tables had before a dataset was drawn from one generator, kept as a test reference.

Tests whose data was chosen for a property (a fit that takes one Newton step, a rank the warm-up reads too low, a
still step at a pinned iteration) and the behaviour lock build their tables here, so the estimators they check keep
seeing the same counts.
"""

import zlib

import numpy as np

from phasegate.experiment import CountTable, outcome_probabilities


def legacy_counts(plan, noise, seed) -> CountTable:
    """Rebuild a dataset setting by setting from the earlier stream contract.

    Setting (phase pi, state si, basis bi) draws from
    ``default_rng((seed, crc32(b"simulate"), pi, si, bi))``: the phase
    jitter of every interval, then the Poisson totals, then the
    multinomial split of each total, with one probability call per setting.
    """
    counts = np.zeros((len(plan.phases), len(plan.input_states), len(plan.bases), 2, 2, noise.n_intervals))
    for pi, phi in enumerate(plan.phases):
        for si, label in enumerate(plan.input_states):
            for bi, basis in enumerate(plan.bases):
                rng = np.random.default_rng((seed, zlib.crc32(b"simulate"), pi, si, bi))
                phi_t = phi + rng.normal(0.0, noise.phase_sigma, noise.n_intervals)
                probs, total_rate = outcome_probabilities(label, phi_t, basis, noise)
                n = rng.poisson(total_rate * noise.interval_s)
                counts[pi, si, bi] = rng.multinomial(n, probs.reshape(-1, 4)).T.reshape(2, 2, -1)
    return CountTable(plan.phases, plan.input_states, plan.bases, counts)

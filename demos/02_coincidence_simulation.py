"""Generate synthetic coincidence counts and inspect the noise model.

Every experimental setting (phase, input state, measurement basis) yields a
2x2 table of coincidence rates between the two program detectors and the
two data detectors.  With the feed forward both program branches carry
the gate output, so the rates have a closed form in the input state, the
phase, detector efficiencies, dark coincidences and interference
visibility.  The simulator draws Poisson counts per acquisition interval
from those rates, at a phase jittered afresh in every interval.
"""

import tempfile
from pathlib import Path

import numpy as np

from phasegate.experiment import (
    ExperimentPlan,
    calibrated_noise,
    ideal_noise,
    outcome_probabilities,
    simulate_counts,
    usable_fraction,
)
from phasegate.states import ket

np.set_printoptions(precision=4, suppress=True)

phi = np.pi / 2

# 1. ideal probabilities: rows = program detector, cols = data detector.
#    |+> measured in X after U(pi/2) gives a 50/50 split and no dark floor.
probs, rate = outcome_probabilities(ket("+"), phi, "X", ideal_noise())
print("ideal probabilities (input +, basis X):")
print(probs)
print(f"total detected rate: {rate:.1f} / s")

# 2. input |0> in Z never reaches D_d1: the zero column is the sanity check
probs, _ = outcome_probabilities(ket("0"), phi, "Z", ideal_noise())
print("\nideal probabilities (input 0, basis Z):")
print(probs)

# 3. the calibrated preset adds loss, darks and partial visibility;
#    the zero column picks up accidentals and the rate drops by ~eta^2
noise = calibrated_noise()
probs, rate = outcome_probabilities(ket("0"), phi, "Z", noise)
print("\ncalibrated probabilities (input 0, basis Z):")
print(probs)
print(f"total detected rate: {rate:.1f} / s  (pair rate {noise.pair_rate:.0f} / s)")

# 4. a full simulated run writes one CSV row per
#    (phase, state, basis, detector pair, interval)
plan = ExperimentPlan(phases=(0.0, np.pi / 2, np.pi))
table = simulate_counts(plan, noise, seed=5)
out = Path(tempfile.mkdtemp(prefix="phasegate_demo_")) / "counts.csv"
table.to_csv(out)
lines = out.read_text().splitlines()
print(f"\nwrote {out} ({len(lines) - 1} rows)")
print("\n".join(lines[:5]))

# 5. identical (plan, noise, seed) reproduces the file byte for byte
again = Path(str(out) + ".rerun")
simulate_counts(plan, noise, seed=5).to_csv(again)
print(f"\nbyte-identical rerun: {out.read_bytes() == again.read_bytes()}")

# 6. the usable fraction under ideal conditions is the 1/2 post-selection;
#    darker, lossier benches sit below it
ideal_table = simulate_counts(plan, ideal_noise(), seed=5)
print(f"\nusable fraction, ideal      : {usable_fraction(ideal_table, ideal_noise()):.4f}")
print(f"usable fraction, calibrated : {usable_fraction(table, noise):.4f} (raw, before rescaling)")

"""Walk through the gate core: program encoding, branch measurement, correction.

The device applies U(phi) = diag(1, e^{i phi}) to a data qubit.  The phase
is not set by hardware but carried by a second "program" photon prepared in
(|0> + e^{i phi} |1>)/sqrt(2).  After the photons interfere, keeping the
events with one photon per output port (probability 1/2) leaves the
conditional state alpha|00> + beta e^{i phi}|11>.  Measuring the program
photon in the |+>/|-> basis then either applies the gate outright (|+>) or
applies it with an extra Z error (|->) that a feed-forward phase shifter
removes in real time.
"""

import numpy as np

from phasegate.gate import (
    POSTSELECTION_PROBABILITY,
    ProgramOutcome,
    conditional_joint_state,
    feed_forward_correct,
    gate_unitary,
    ideal_output,
    measure_program,
    prepare_program,
)
from phasegate.states import ket

np.set_printoptions(precision=4, suppress=True)

phi = np.pi / 2

# 1. the program qubit carries the phase
print(f"program state for phi = pi/2: {prepare_program(phi)}")
print(f"target unitary:\n{gate_unitary(phi)}\n")

# 2. post-selected joint state for a generic data input
psi_in = np.array([0.6, 0.8])
joint = conditional_joint_state(psi_in, phi)
print(f"data input      : {psi_in}")
print(f"joint state     : {joint}   (kept with probability {POSTSELECTION_PROBABILITY})")

# 3. each program outcome occurs with probability 1/2
for outcome in ProgramOutcome:
    branch, prob = measure_program(joint, outcome)
    corrected = feed_forward_correct(branch, outcome)
    print(f"{outcome.value}: p = {prob:.4f}, branch = {branch}, corrected = {corrected}")

# 4. both corrected branches reproduce U(phi)|psi_in> exactly
target = ideal_output(psi_in, phi)
print(f"\nideal output    : {target}")
for outcome in ProgramOutcome:
    branch, _ = measure_program(joint, outcome)
    corrected = feed_forward_correct(branch, outcome)
    overlap = abs(np.vdot(target, corrected))
    print(f"|<ideal|{outcome.value}_corrected>| = {overlap:.12f}")

# 5. the success accounting: keeping only D_p0 wastes half the kept events
print(f"\nsuccess with feed forward    : {POSTSELECTION_PROBABILITY * 1.0:.2f}")
print(f"success discarding D_p1      : {POSTSELECTION_PROBABILITY * 0.5:.2f}")

# 6. same story for every input on the Bloch sphere
rng = np.random.default_rng(0)
worst = 1.0
for _ in range(500):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    joint = conditional_joint_state(a, phi)
    for outcome in ProgramOutcome:
        branch, _ = measure_program(joint, outcome)
        corrected = feed_forward_correct(branch, outcome)
        worst = min(worst, abs(np.vdot(ideal_output(a, phi), corrected)))
print(f"minimum overlap over 500 random inputs x both branches: {worst:.12f}")

# orthogonal program outcomes never mix amplitudes: |+> and |-> cover the
# whole kept subspace, so nothing else needs to be measured
plus = ket("+")
minus = ket("-")
print(f"\n<+|-> = {np.vdot(plus, minus):.1f} (program outcomes are orthogonal)")

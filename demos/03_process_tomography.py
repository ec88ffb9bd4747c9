"""Reconstruct the process matrix from counts by maximum likelihood.

Six input states times three measurement bases give 36 weighted projector
equations, enough to pin down the 4x4 Choi matrix chi of the gate.  The
fit climbs the likelihood with a few dozen steps of the fixed point
chi <- N[R chi R], reads off the rank of the optimum, and finishes with
Newton steps on a factor chi ~ B B^dagger of that rank, retried once at
full rank if that rank proves too low.  It stops once the
concavity certificate proves the estimate within 1e-6 nats of the
maximum; the result is positive semidefinite by construction.
"""

import numpy as np

from phasegate.experiment import ExperimentPlan, ideal_noise, simulate_counts
from phasegate.gate import gate_unitary
from phasegate.metrics import ideal_choi, process_fidelity, purity, state_fidelity
from phasegate.states import ket
from phasegate.tomography import (
    apply_map,
    ml_reconstruct_process,
    ml_reconstruct_states,
    settings_for_phase,
    state_counts,
)

np.set_printoptions(precision=4, suppress=True)

phi = np.pi / 3

# 1. simulate one phase with a clean, bright source
plan = ExperimentPlan(phases=(phi,))
noise = ideal_noise(pair_rate=4000.0)
table = simulate_counts(plan, noise, seed=21)
print(f"simulated {table.total():.0f} coincidences at phi = pi/3")

# 2. run the certified fit
recon = ml_reconstruct_process(settings_for_phase(table, 0))
rrhor = recon.iterations - recon.newton_iterations
print(f"stopped: {recon.stop_reason} after {recon.iterations} iterations "
      f"({rrhor} RrhoR, {recon.newton_iterations} Newton)")
print(f"certified gap to the maximum: {recon.certified_gap:.2e} nats")
print(f"log-likelihood: {recon.log_likelihood:.6f}")
print(f"steps that would have lowered the likelihood: {recon.likelihood_decreases}")

# 3. the reconstruction is essentially rank 1, like the ideal process
eigs = np.linalg.eigvalsh(recon.choi)[::-1]
print(f"\nchi eigenvalues: {eigs}")
print(f"reconstructed chi:\n{recon.choi}")
print(f"ideal chi:\n{ideal_choi(phi)}")
print(f"process fidelity F_chi = {process_fidelity(recon.choi, ideal_choi(phi)):.6f}")

# 4. the reconstructed map acts on states like U(phi)
u = gate_unitary(phi)
rho_in = np.outer(ket("+"), ket("+").conj())
rho_out, weight = apply_map(recon.choi, rho_in)
print(f"\nmapped |+> (weight {weight:.4f}):\n{rho_out}")
print(f"ideal U|+>:\n{u @ rho_in @ u.conj().T}")

# 5. per-input-state density matrices come from the same counts: one call
#    fits the output state of every input at phase 0; input index 2 is |+>,
#    whose output should stay pure
sres = ml_reconstruct_states(state_counts(table, 0))[2]
target = u @ ket("+")
print(f"\noutput state for input |+>:\n{sres.rho}")
print(f"purity = {purity(sres.rho):.6f}")
print(f"fidelity to U|+> = {state_fidelity(sres.rho, target):.6f}")

# 6. fidelity tracks statistics: more light, tighter reconstruction
print("\npair_rate ->  1 - F_chi")
for pair_rate in (100.0, 1000.0, 10000.0):
    t = simulate_counts(plan, ideal_noise(pair_rate=pair_rate), seed=8)
    r = ml_reconstruct_process(settings_for_phase(t, 0))
    print(f"{pair_rate:9.0f} -> {1 - process_fidelity(r.choi, ideal_choi(phi)):.2e}")

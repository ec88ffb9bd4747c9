"""Noiseless physics of the programmable phase gate.

The gate rotates a data qubit about the z-axis of the Bloch sphere by an
angle ``phi`` that is carried entirely by a *program* qubit prepared as
``(|0> + e^{i phi} |1>)/sqrt(2)``.  Implemented with linear optics the
operation is probabilistic: conditioned on one photon leaving each output
port (probability 1/2), the two-photon state is

    alpha |0>_D |0>_P  +  beta e^{i phi} |1>_D |1>_P .

Measuring the program qubit in the ``|+->`` basis collapses the data qubit
into ``alpha |0> +- beta e^{i phi} |1>``.  The ``+`` outcome (detector
D_p0) leaves the data qubit in the desired state; the ``-`` outcome
(detector D_p1) leaves an extra pi phase that a fast feed-forward phase
shift removes.  With the correction both branches are usable, doubling the
success probability from 1/4 to the 1/2 post-selection limit.

All functions here are pure and operate on plain complex amplitude
vectors; see :mod:`phasegate.states` for the conventions.
"""

from __future__ import annotations

import enum

import numpy as np

from .states import as_state, require_normalized

#: Probability that one photon exits each output port (taken as given for
#: this interferometer; not derived from a photon-number model).
POSTSELECTION_PROBABILITY = 0.5

#: Period of the programmed phase; :func:`canonical_phase` wraps into ``[0, 2*pi)``.
_TWO_PI = 2.0 * np.pi


class ProgramOutcome(enum.Enum):
    """Result of the program-qubit measurement in the ``|+->`` basis; the value is its detector label."""

    PLUS = "D_p0"
    MINUS = "D_p1"

    @property
    def sign(self) -> int:
        return 1 if self is ProgramOutcome.PLUS else -1


def canonical_phase(phi: float) -> float:
    """Wrap a phase into ``[0, 2*pi)`` so it can serve as a table key."""
    p = float(phi) % _TWO_PI
    # Guard against phi % 2pi == 2pi from rounding of tiny negatives.
    return 0.0 if p >= _TWO_PI else p


def prepare_program(phi: float) -> np.ndarray:
    """Program-qubit state ``(|0> + e^{i phi} |1>)/sqrt(2)`` encoding the angle."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([s, s * np.exp(1j * phi)], dtype=complex)


def gate_unitary(phi: float) -> np.ndarray:
    """The z-rotation ``diag(1, e^{i phi})`` the gate applies to the data qubit."""
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def ideal_output(psi_in, phi: float) -> np.ndarray:
    """Data-qubit state after a perfect gate: ``(alpha, e^{i phi} beta)``."""
    v = require_normalized(as_state(psi_in))
    return np.array([v[0], np.exp(1j * phi) * v[1]], dtype=complex)


def conditional_joint_state(psi_in, phi: float) -> np.ndarray:
    """Two-photon state conditioned on one photon per output port.

    Returns the normalized amplitudes over ``|data, program>`` ordered
    ``|00>, |01>, |10>, |11>``, i.e. ``alpha |00> + beta e^{i phi} |11>``.
    The discarded weight is the post-selection probability
    :data:`POSTSELECTION_PROBABILITY`, kept out of the state norm on
    purpose so success bookkeeping stays explicit.
    """
    v = require_normalized(as_state(psi_in))
    joint = np.zeros(4, dtype=complex)
    joint[0] = v[0]
    joint[3] = v[1] * np.exp(1j * phi)
    return joint


def measure_program(joint, outcome: ProgramOutcome) -> tuple[np.ndarray, float]:
    """Project the program qubit of a joint state onto ``|+>`` or ``|->``.

    Returns the renormalized data-qubit state and the outcome probability.
    For states produced by :func:`conditional_joint_state` the probability
    is exactly 1/2 for either outcome.  Raises if the requested branch has
    (numerically) zero probability, since the collapse is then undefined.
    """
    psi = np.asarray(joint, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"joint state must be a length-4 amplitude vector, got shape {psi.shape}")
    require_normalized(psi)
    s = outcome.sign
    # Amplitude ordering |data, program>: program index is the fast one.
    branch = np.array(
        [(psi[0] + s * psi[1]) / np.sqrt(2.0), (psi[2] + s * psi[3]) / np.sqrt(2.0)],
        dtype=complex,
    )
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-15:
        raise ValueError(f"program outcome {outcome.name} has probability {prob:.3e}; collapse undefined")
    return branch / np.sqrt(prob), prob


def feed_forward_correct(state, outcome: ProgramOutcome) -> np.ndarray:
    """Conditional pi phase shift that repairs the ``-`` measurement branch.

    The PLUS branch passes through unchanged; the MINUS branch gets its
    ``|1>`` amplitude multiplied by ``e^{i pi} = -1``, after which both
    branches agree with :func:`ideal_output` up to global phase.
    """
    v = require_normalized(as_state(state))
    if outcome is ProgramOutcome.PLUS:
        return v.copy()
    return np.array([v[0], -v[1]], dtype=complex)

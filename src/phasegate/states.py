"""Single-qubit states and measurement bases for the dual-rail encoding.

``|0>`` and ``|1>`` are the two spatial rails.  The six cardinal states
and the three measurement bases used throughout the package are fixed
here, in the canonical order everything else relies on.
"""

from __future__ import annotations

import numpy as np

#: Canonical ordering of the six preparation states.
STATE_LABELS = ("0", "1", "+", "-", "+i", "-i")

#: Canonical ordering of the three measurement bases.
BASIS_LABELS = ("Z", "X", "Y")

#: Which state label lands on data detector D_d0 / D_d1 in each basis.
BASIS_OUTCOMES = {"Z": ("0", "1"), "X": ("+", "-"), "Y": ("+i", "-i")}

_S = 1.0 / np.sqrt(2.0)
_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_S, _S], dtype=complex),
    "-": np.array([_S, -_S], dtype=complex),
    "+i": np.array([_S, 1j * _S], dtype=complex),
    "-i": np.array([_S, -1j * _S], dtype=complex),
}
for _k in _KETS.values():
    _k.flags.writeable = False

NORM_ATOL = 1e-12


def ket(label: str) -> np.ndarray:
    """Unit-norm amplitude pair for one of the six cardinal states."""
    try:
        return _KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown state label {label!r}; expected one of {STATE_LABELS}") from None


def as_state(state) -> np.ndarray:
    """Coerce a label or amplitude pair to a complex 2-vector."""
    if isinstance(state, str):
        return ket(state)
    v = np.asarray(state, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected a label or a length-2 amplitude vector, got shape {v.shape}")
    return v


def require_normalized(v: np.ndarray) -> np.ndarray:
    n = float(np.vdot(v, v).real)
    if abs(n - 1.0) > NORM_ATOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {n!r}")
    return v


def density(state) -> np.ndarray:
    """Rank-1 density matrix ``|s><s|`` of a pure state (label or vector)."""
    v = as_state(state)
    return np.outer(v, v.conj())


def projector(label: str) -> np.ndarray:
    """Measurement projector onto one of the six cardinal states."""
    return density(label)


"""Dense complex linear algebra on one- and two-qubit operators.

Everything downstream lives on 2x2 or 4x4 complex matrices, so this module
deliberately stays small: Kronecker products, partial traces, Hermitian
eigendecompositions and adjoints, all backed by NumPy with explicit
validation.  Matrices are plain ``np.ndarray`` values in row-major order;
the Kronecker index convention is ``(i_a, i_b)`` row-major, i.e. whatever
``np.kron`` produces.
"""

from __future__ import annotations

import numpy as np

# Inputs farther from Hermitian than this are treated as errors, not
# silently symmetrized.
HERMITIAN_ATOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def dag(m) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return as_matrix(m).conj().T


def is_hermitian(m, atol: float = HERMITIAN_ATOL) -> bool:
    a = as_matrix(m)
    return a.shape[0] == a.shape[1] and bool(np.max(np.abs(a - a.conj().T)) <= atol)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices.

    Row/column indices of the result are the row-major composite
    ``(i_a, i_b)``, so ``tensor(A, B)[2*i+k, 2*j+l] = A[i, j] * B[k, l]``
    for qubit factors.
    """
    a, b = as_matrix(a), as_matrix(b)
    # np.kron's general n-d path costs several times this on 2x2 factors.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def partial_trace(m, traced_out: int, dims: tuple[int, int] = (2, 2)) -> np.ndarray:
    """Trace out one tensor factor of an operator on ``H_A (x) H_B``.

    ``traced_out=0`` removes the first factor (dimension ``dims[0]``) and
    returns the reduced operator on the second; ``traced_out=1`` does the
    opposite.  The full trace is preserved.
    """
    a = as_matrix(m)
    d_a, d_b = dims
    n = d_a * d_b
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {dims}, got shape {a.shape}")
    if traced_out not in (0, 1):
        raise ValueError("traced_out must be 0 (first factor) or 1 (second factor)")
    t = a.reshape(d_a, d_b, d_a, d_b)
    if traced_out == 0:
        return np.einsum("ikil->kl", t)
    return np.einsum("ikjk->ij", t)


def eig_hermitian(m, atol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and ascending and
    eigenvectors in the columns of ``v``, so ``m = v @ diag(w) @ v.conj().T``.
    Rejects inputs that are not Hermitian within ``atol``.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: shape {a.shape}")
    if not is_hermitian(a, atol):
        dev = float(np.max(np.abs(a - a.conj().T)))
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {atol:.0e})")
    w, v = np.linalg.eigh(a)
    return w, v

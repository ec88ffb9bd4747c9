"""Choi-matrix machinery and maximum-likelihood reconstruction.

A completely positive map on one qubit is represented by its Choi matrix
``chi``: a positive-semidefinite operator on H_in (x) H_out (index order
input first) that acts on states via

    rho_out = Tr_in[ chi (rho_in^T (x) I_out) ] .

Process reconstruction from measured coincidence counts maximizes the
multinomial log-likelihood ``sum_jk n_jk log p_jk(chi)`` over PSD
matrices with Tr[chi] = 2, using the standard iterative fixed point

    chi <- N[ R chi R ],    R = sum_jk (n_jk / p_jk) E_jk ,

with effective operators ``E_jk = rho_j^T (x) pi_k`` and ``N`` the
trace renormalization.  The plain iteration is monotone in practice; if
a step ever lowers the likelihood it is replaced by a diluted update
``R_w = (1-w) I + w R`` with ``w`` halved until the step is accepted.

Output states need no iteration.  With one two-outcome measurement per
Pauli basis the likelihood depends only on the Bloch vector ``r`` and
splits into one term per basis, so its maximum over the Bloch ball is
the linear-inversion point when that lies inside the ball, and
otherwise a point on the sphere fixed by one Lagrange multiplier
(:func:`ml_reconstruct_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataFormatError
from .linalg import eig_hermitian, is_hermitian, partial_trace, tensor
from .states import BASIS_LABELS, BASIS_OUTCOMES, density, projector

CHOI_DIM = 4
#: Model probabilities are clipped here before entering the R operator.
PROB_FLOOR = 1e-12
#: Fixed-point stop: max-norm change of the iterate.
UPDATE_TOL = 1e-10
MAX_ITERS = 10**5
# A step is treated as a likelihood decrease only beyond this slack;
# per-event log-likelihoods are O(1), so this sits well above rounding.
_DECREASE_TOL = 1e-14

_PSD_ATOL = 1e-10


def require_choi(m, atol: float = _PSD_ATOL) -> np.ndarray:
    """Validate a 4x4 Choi matrix: Hermitian, PSD within ``-atol``, positive trace."""
    chi = np.asarray(m, dtype=complex)
    if chi.shape != (CHOI_DIM, CHOI_DIM):
        raise ValueError(f"Choi matrix must be 4x4, got shape {chi.shape}")
    if not is_hermitian(chi, atol):
        raise ValueError("Choi matrix is not Hermitian within tolerance")
    w, _ = eig_hermitian(chi, atol)
    if w[0] < -atol:
        raise ValueError(f"Choi matrix has negative eigenvalue {w[0]:.3e}")
    tr = float(np.trace(chi).real)
    if tr <= 0.0:
        raise ValueError(f"Choi matrix trace must be positive, got {tr:.3e}")
    return chi


def require_density_matrix(m, atol: float = _PSD_ATOL) -> np.ndarray:
    """Validate a qubit density matrix: Hermitian, PSD, unit trace."""
    rho = np.asarray(m, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not is_hermitian(rho, atol):
        raise ValueError("density matrix is not Hermitian within tolerance")
    w, _ = eig_hermitian(rho, atol)
    if w[0] < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace must be 1, got {np.trace(rho).real!r}")
    return rho


def require_projector(m, atol: float = _PSD_ATOL) -> np.ndarray:
    """Validate a 2x2 Hermitian projector (idempotent within tolerance)."""
    pi = np.asarray(m, dtype=complex)
    if pi.shape != (2, 2):
        raise ValueError(f"projector must be 2x2, got shape {pi.shape}")
    if not is_hermitian(pi, atol):
        raise ValueError("projector is not Hermitian within tolerance")
    if np.max(np.abs(pi @ pi - pi)) > atol:
        raise ValueError("projector is not idempotent within tolerance")
    return pi


@dataclass(frozen=True)
class TomographySetting:
    """One effective measurement: prepare ``rho_in``, project output on ``pi_out``."""

    rho_in: np.ndarray
    pi_out: np.ndarray
    count: float

    def __post_init__(self):
        object.__setattr__(self, "rho_in", require_density_matrix(self.rho_in))
        object.__setattr__(self, "pi_out", require_projector(self.pi_out))
        if not (np.isfinite(self.count) and self.count >= 0.0):
            raise ValueError(f"count must be finite and non-negative, got {self.count!r}")

    @property
    def operator(self) -> np.ndarray:
        """Effective operator ``rho_in^T (x) pi_out`` on H_in (x) H_out."""
        return tensor(self.rho_in.T, self.pi_out)


def apply_map(chi, rho_in) -> tuple[np.ndarray, float]:
    """Push a state through the map; returns (normalized rho_out, weight).

    ``weight`` is the pre-normalization trace, the map's acceptance
    probability for this input when ``chi`` is trace-normalized to 2.
    """
    chi = np.asarray(chi, dtype=complex)
    rho = require_density_matrix(rho_in)
    raw = partial_trace(chi @ tensor(rho.T, np.eye(2, dtype=complex)), traced_out=0)
    weight = float(np.trace(raw).real)
    if weight <= 1e-14:
        raise ValueError(f"map annihilates this input (pre-normalization trace {weight:.3e})")
    return raw / weight, weight


def setting_probability(chi, s: TomographySetting) -> float:
    """Born probability of one setting under the map, Tr[chi]-invariant.

    ``p = Tr[chi (rho_in^T (x) pi_out)] / (Tr[chi]/2)``: dividing by the
    trace (in units of the trace-2 convention) makes the result stable
    under positive rescaling of ``chi``.  Over a complete output basis
    the probabilities sum to the input's acceptance weight.
    """
    chi = np.asarray(chi, dtype=complex)
    tr = float(np.trace(chi).real)
    if tr <= 0.0:
        raise ValueError(f"Choi matrix trace must be positive, got {tr:.3e}")
    p = float(np.trace(chi @ s.operator).real) / (tr / 2.0)
    return p


@dataclass
class ProcessReconstruction:
    """ML-estimated Choi matrix plus convergence diagnostics."""

    choi: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float
    #: Per-event normalized log-likelihood after each accepted iteration.
    log_likelihood_trace: np.ndarray
    #: Raw fixed-point steps that lowered the likelihood (before dilution).
    likelihood_decreases: int
    #: max |Tr_out[chi] - I|: how far the estimate is from trace preserving.
    trace_preservation_deviation: float


@dataclass
class StateReconstruction:
    """ML-estimated density matrix of one output state."""

    rho: np.ndarray
    log_likelihood: float
    #: The estimate is pure (|r| = 1): it sits on the PSD boundary.
    on_boundary: bool
    # The solve is exact; these mirror ProcessReconstruction's diagnostics.
    iterations: int = 0
    converged: bool = True
    likelihood_decreases: int = 0


def _design_rank(operators: np.ndarray) -> int:
    flat = operators.reshape(operators.shape[0], -1)
    return int(np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])))


def _ml_fixed_point(operators: np.ndarray, counts: np.ndarray, dim: int, trace_target: float,
                    tol: float, max_iters: int):
    """Shared RhoR iteration over Hermitian ``operators`` with given trace.

    The inner loop runs for thousands of iterations when the optimum
    sits on the PSD boundary, so the per-iteration work is phrased as
    flat matrix-vector products instead of general einsum contractions.
    """
    n_total = counts.sum()
    if n_total <= 0.0:
        raise DataFormatError("total count is zero; nothing to reconstruct")
    weights = counts / n_total

    # Tr[m E_n] = vec(E_n^T) . vec(m); both stacks stay fixed.
    e_probe = operators.transpose(0, 2, 1).reshape(len(operators), dim * dim)
    e_build = operators.reshape(len(operators), dim * dim)

    def probs(m):
        p = (e_probe @ m.reshape(-1)).real / (np.trace(m).real / trace_target)
        return np.maximum(p, PROB_FLOOR)

    def loglik(m):
        return float(weights @ np.log(probs(m)))

    def renormalize(m):
        m = 0.5 * (m + m.conj().T)
        return m * (trace_target / np.trace(m).real)

    est = np.eye(dim, dtype=complex) * (trace_target / dim)
    ll = loglik(est)
    trace = [ll]
    decreases = 0
    iterations = 0
    converged = False
    eye = np.eye(dim, dtype=complex)
    for iterations in range(1, max_iters + 1):
        r = ((weights / probs(est)) @ e_build).reshape(dim, dim)
        candidate = renormalize(r @ est @ r)
        ll_new = loglik(candidate)
        if ll_new < ll - _DECREASE_TOL:
            decreases += 1
            # Dilute the step until it stops hurting the likelihood.
            r_bar = r * (dim / np.trace(r).real)
            w = 0.5
            while w > 1e-6:
                r_w = (1.0 - w) * eye + w * r_bar
                candidate = renormalize(r_w @ est @ r_w)
                ll_new = loglik(candidate)
                if ll_new >= ll - _DECREASE_TOL:
                    break
                w *= 0.5
            else:
                # No step length helps; treat the current point as converged.
                break
        delta = float(np.max(np.abs(candidate - est)))
        est = candidate
        ll = ll_new
        trace.append(ll)
        if delta < tol:
            converged = True
            break
    total_ll = float(n_total * ll)
    return est, iterations, converged, total_ll, np.asarray(trace), decreases


def ml_reconstruct_process(settings, tol: float = UPDATE_TOL, max_iters: int = MAX_ITERS) -> ProcessReconstruction:
    """Maximum-likelihood Choi matrix from a list of :class:`TomographySetting`.

    Requires an informationally complete design (the operators must span
    the full 16-dimensional Hermitian space); the six-input, three-basis
    plan qualifies.  Counts may be non-integer (efficiency rescaled).
    """
    settings = list(settings)
    if not settings:
        raise DataFormatError("no tomography settings supplied")
    operators = np.stack([s.operator for s in settings])
    counts = np.asarray([s.count for s in settings], dtype=float)
    rank = _design_rank(operators)
    if rank < CHOI_DIM * CHOI_DIM:
        raise DataFormatError(
            f"measurement design is rank-deficient: spans {rank} of {CHOI_DIM * CHOI_DIM} dimensions"
        )
    est, iters, converged, ll, trace, decreases = _ml_fixed_point(
        operators, counts, CHOI_DIM, 2.0, tol, max_iters
    )
    tp_dev = float(np.max(np.abs(partial_trace(est, traced_out=1) - np.eye(2))))
    return ProcessReconstruction(est, iters, converged, ll, trace, decreases, tp_dev)


#: Newton steps stop once they move the unknown by less than this, relative to it.
_NEWTON_RTOL = 1e-15
_NEWTON_MAX_STEPS = 500


def _increasing_root(f, lo: float, hi: float, x: float) -> float:
    """Root of an increasing function with ``f(lo) <= 0 <= f(hi)``, ``0 <= lo <= x < hi``.

    ``f(x)`` returns ``(value, slope)``.  Safeguarded Newton: a step that
    leaves the bracket is replaced by bisection in ``log x``, so a root
    many decades below ``hi`` takes few steps.  Returns the last point
    evaluated, once a step is below rounding or the bracket has closed.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = f(x)
        if value < 0.0:
            lo = x
        elif value > 0.0:
            hi = x
        else:
            return x
        nxt = x - value / slope if slope > 0.0 else math.inf
        if abs(nxt - x) <= _NEWTON_RTOL * x:
            return x
        if not lo < nxt < hi:
            nxt = max(math.sqrt(lo) * math.sqrt(hi), 1e-3 * hi)
            if not lo < nxt < hi:
                return x  # the bracket has closed to neighbouring floats
        x = nxt
    raise ConvergenceError(f"root not bracketed to {_NEWTON_RTOL:g} in {_NEWTON_MAX_STEPS} Newton steps")


def _basis_component(a: float, c: float, mu: float) -> tuple[float, float, float]:
    """One basis's Bloch component at multiplier ``mu > 0``.

    With outcome counts ``(a, c)`` and ``p = (1 +- r)/2`` the component is
    the root in [-1, 1] of ``h(r) = a/(1+r) - c/(1-r) - 2 mu r``, which is
    strictly decreasing, so ``r`` has the sign of ``a - c``.  It is solved
    for ``s = 1 - |r|``, which keeps its precision as ``r`` nears a pole.
    Returns ``(r, s, dr/dmu)``.
    """
    n = a + c
    if n == 0.0:
        return 0.0, 1.0, 0.0
    sign = 1.0 if a >= c else -1.0
    big, small = max(a, c), min(a, c)
    if small == 0.0:
        # No pole on the empty side: s solves 2 mu s^2 - 6 mu s + 4 mu - n = 0,
        # and sits at the pole while n >= 4 mu (the slope at n = 4 mu is the one from above).
        x = n / mu
        if x > 4.0:
            return sign, 0.0, 0.0
        s = (4.0 - x) / (3.0 + math.sqrt(1.0 + 2.0 * x))
    else:
        # s (2 - s) h(sign (1 - s)) * sign: a cubic with h's single root in (0, 1], negative at s = 0.
        def cubic(s):
            value = big * s - small * (2.0 - s) - 2.0 * mu * s * (2.0 - s) * (1.0 - s)
            return value, n - 2.0 * mu * (3.0 * s * s - 6.0 * s + 2.0)

        s = _increasing_root(cubic, 0.0, 1.0, 2.0 * (small + mu) / (n + 2.0 * mu))
    r = sign * (1.0 - s)
    h_r = -big / (2.0 - s) ** 2 - (small / s / s if small else 0.0) - 2.0 * mu
    return r, s, 2.0 * r / h_r


def _sphere_components(pairs) -> list[tuple[float, float, float]]:
    """Maximum of the likelihood on the Bloch sphere, as ``_basis_component`` triples.

    Finds the multiplier ``mu > 0`` with ``|r(mu)| = 1`` as the root of
    ``psi(mu) = 1/|r(mu)| - 1``, which increases with ``mu`` and is close
    to linear in it.  ``psi`` is negative as ``mu -> 0`` (the
    linear-inversion point lies outside the ball) and positive at
    ``mu = max count``, where every ``|r_b| <= 1/2``.  A basis with an
    empty outcome sits at its pole for ``mu <= n_b/4``, so the root lies
    above every such kink and the search starts there, where ``psi`` is
    smooth.
    """
    comps = []

    def psi(mu):
        comps[:] = [_basis_component(a, c, mu) for a, c in pairs]
        norm = math.hypot(*(r for r, _, _ in comps))
        return 1.0 / norm - 1.0, -sum(r * dr for r, _, dr in comps) / norm**3

    hi = max(max(pair) for pair in pairs)
    lo = max([0.25 * (a + c) for a, c in pairs if min(a, c) == 0.0], default=0.0)
    # Start where |r| = 1 if every basis had the mean total.
    mu = 0.5 * (math.hypot(*(a - c for a, c in pairs)) - sum(a + c for a, c in pairs) / len(pairs))
    _increasing_root(psi, lo, hi, max(mu, lo) if 0.0 < max(mu, lo) < hi else 0.5 * hi)
    return comps


def ml_reconstruct_state(basis_counts) -> StateReconstruction:
    """Maximum-likelihood qubit state from counts in the three Pauli bases.

    ``basis_counts`` maps each basis label in {Z, X, Y} to a pair of
    counts for its (first, second) outcome as listed in
    :data:`phasegate.states.BASIS_OUTCOMES`.  With ``(a_b, c_b)`` the
    counts of basis ``b`` the first outcome has probability
    ``(1 + r_b)/2``, so the likelihood is maximized per basis at
    ``r_b = (a_b - c_b)/(a_b + c_b)`` (0 for an unmeasured basis).  If
    that point lies in the Bloch ball it is the estimate; otherwise the
    estimate is the constrained maximum on the sphere.  The solve is
    exact up to rounding, so no iteration cap or tolerance applies.
    """
    missing = [b for b in BASIS_LABELS if b not in basis_counts]
    if missing:
        raise DataFormatError(f"missing basis counts for {missing}")
    pairs = []
    for b in BASIS_LABELS:
        pair = basis_counts[b]
        if len(pair) != 2:
            raise DataFormatError(f"basis {b} needs exactly two outcome counts, got {len(pair)}")
        for c in pair:
            if not (np.isfinite(c) and c >= 0.0):
                raise DataFormatError(f"bad count {c!r} for basis {b}")
        pairs.append((float(pair[0]), float(pair[1])))
    top = max(max(pair) for pair in pairs)
    if top <= 0.0:
        raise DataFormatError("total count is zero; nothing to reconstruct")
    # The estimate depends only on count ratios: scale exactly, by a power of two, to at most 1,
    # and drop counts below 1e-100 of the largest, which move the likelihood by less than its
    # rounding error and would underflow in the sphere solve.
    exponent = math.frexp(top)[1]
    scaled = [tuple(math.ldexp(c, -exponent) if c >= 1e-100 * top else 0.0 for c in pair) for pair in pairs]
    # (r_b, s_b = 1 - |r_b|) per basis, Z X Y.
    comps = [((a - c) / (a + c), 2.0 * min(a, c) / (a + c)) if a + c > 0.0 else (0.0, 1.0) for a, c in scaled]
    norm2 = sum(r * r for r, _ in comps)
    if norm2 > 1.0:
        comps = [(r, s) for r, s, _ in _sphere_components(scaled)]
    probs = [(1.0 - 0.5 * s, 0.5 * s) if r >= 0.0 else (0.5 * s, 1.0 - 0.5 * s) for r, s in comps]
    # Z's outcome probabilities are the diagonal; X and Y set the coherence.
    (_, _), (r_x, _), (r_y, _) = comps
    coherence = 0.5 * complex(r_x, -r_y)
    rho = np.array([[probs[0][0], coherence], [coherence.conjugate(), probs[0][1]]], dtype=complex)
    log_likelihood = sum(
        a * math.log(max(p, PROB_FLOOR)) + c * math.log(max(q, PROB_FLOOR)) for (a, c), (p, q) in zip(pairs, probs)
    )
    return StateReconstruction(rho, log_likelihood, norm2 >= 1.0)


def settings_for_phase(counts_table, phase_index: int):
    """Flatten one phase of a count table into tomography settings.

    Intervals and program branches are summed: after feed-forward
    correction both branches estimate the same output state, and the
    no-feed-forward analysis arrives here with the D_p1 branch already
    zeroed.  Data detector D_d0 maps to the first outcome of the basis,
    D_d1 to the second.
    """
    settings = []
    for si, state_label in enumerate(counts_table.input_states):
        rho_in = density(state_label)
        for bi, basis in enumerate(counts_table.bases):
            block = counts_table.setting_counts(phase_index, si, bi)  # (program, data)
            per_detector = block.sum(axis=0)
            for dj, outcome_label in enumerate(BASIS_OUTCOMES[basis]):
                settings.append(TomographySetting(rho_in, projector(outcome_label), float(per_detector[dj])))
    return settings


def state_basis_counts(counts_table, phase_index: int, state_index: int):
    """Per-basis outcome counts for one (phase, input state), branches summed."""
    out = {}
    for bi, basis in enumerate(counts_table.bases):
        block = counts_table.setting_counts(phase_index, state_index, bi)
        per_detector = block.sum(axis=0)
        out[basis] = (float(per_detector[0]), float(per_detector[1]))
    return out


def save_choi(path, chi, phase: float, iterations: int, log_likelihood: float, **extra) -> None:
    """Write a Choi matrix with its metadata to a line-oriented text file.

    Layout: ``phase``, ``iterations``, ``log_likelihood`` (plus any
    extra key-value metadata) lines, then ``dim 4`` and 16 row-major
    ``re im`` entry lines at 15 significant digits.
    """
    chi = np.asarray(chi, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"phase {phase:.12g}\n")
        f.write(f"iterations {int(iterations)}\n")
        f.write(f"log_likelihood {log_likelihood:.15g}\n")
        for key in sorted(extra):
            f.write(f"{key} {extra[key]}\n")
        f.write(f"dim {CHOI_DIM}\n")
        for i in range(CHOI_DIM):
            for j in range(CHOI_DIM):
                f.write(f"{chi[i, j].real:.15g} {chi[i, j].imag:.15g}\n")


def load_choi(path):
    """Read a file written by :func:`save_choi`.

    Returns ``(chi, meta)``; ``meta`` maps metadata keys to their raw
    string values and always contains phase, iterations and
    log_likelihood.
    """
    meta, m = _load_matrix_file(path, CHOI_DIM, ("phase", "iterations", "log_likelihood"))
    return m, meta


def save_state(path, rho, phase: float, input_state: str, **extra) -> None:
    """Write a reconstructed output density matrix, tagged by its setting."""
    rho = np.asarray(rho, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"phase {phase:.12g}\n")
        f.write(f"input_state {input_state}\n")
        for key in sorted(extra):
            f.write(f"{key} {extra[key]}\n")
        f.write("dim 2\n")
        for i in range(2):
            for j in range(2):
                f.write(f"{rho[i, j].real:.15g} {rho[i, j].imag:.15g}\n")


def load_state(path):
    """Read a file written by :func:`save_state`; returns ``(rho, meta)``."""
    meta, m = _load_matrix_file(path, 2, ("phase", "input_state"))
    return m, meta


def _load_matrix_file(path, dim: int, keys):
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    meta = {}
    i = 0
    try:
        while i < len(lines) and not lines[i].startswith("dim "):
            key, _, value = lines[i].partition(" ")
            meta[key] = value
            i += 1
        if i == len(lines):
            raise DataFormatError(f"{path}: missing 'dim' line")
        declared = int(lines[i].split()[1])
        if declared != dim:
            raise DataFormatError(f"{path}: expected dim {dim}, got {declared}")
        entries = lines[i + 1 : i + 1 + dim * dim]
        if len(entries) != dim * dim:
            raise DataFormatError(f"{path}: expected {dim * dim} entries, found {len(entries)}")
        values = [complex(float(a), float(b)) for a, b in (e.split() for e in entries)]
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: malformed matrix file ({exc})") from exc
    for k in keys:
        if k not in meta:
            raise DataFormatError(f"{path}: missing metadata key {k!r}")
    return meta, np.asarray(values, dtype=complex).reshape(dim, dim)

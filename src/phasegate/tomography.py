"""Choi-matrix machinery and maximum-likelihood reconstruction.

A completely positive map on one qubit is represented by its Choi matrix
``chi``: a positive-semidefinite operator on H_in (x) H_out (index order
input first) that acts on states via

    rho_out = Tr_in[ chi (rho_in^T (x) I_out) ] .

Process reconstruction from measured coincidence counts maximizes the
multinomial log-likelihood ``L = sum_k n_k log p_k(chi)`` over PSD
matrices with Tr[chi] = 2, where ``p_k = Tr[chi E_k]`` for the effective
operators ``E_k = rho_j^T (x) pi_l``.  ``L`` is concave, so its gradient
``R = sum_k (n_k / N p_k) E_k`` certifies every iterate: no feasible
point beats ``chi`` by more than ``gap = N (2 lambda_max(R) - 1)`` nats
(Glancy, Knill & Girard, NJP 14, 095017, 2012).  The fit stops once the
gap is at most :data:`GAP_TOL`.  Two monotone stages climb ``L``
(see :func:`_ml_fixed_point`): a short warm-up with the fixed point
``chi <- N[R chi R]`` (RrhoR, ``N`` the trace renormalization), which
finds the support of the optimum fast but then converges only linearly,
and damped Newton on a factor ``chi = 2 B B^H / |B|^2`` of the warm-up
iterate's likeliest truncation, a column more as soon as that rank cannot
certify the fit (after Burer & Monteiro, Math. Program. 95, 329, 2003),
which converges quadratically; each step is a gauge-fixed Cholesky solve.
Fits of one design run as a batch, as :func:`ml_reconstruct_phases` fits
the phases of a dataset's count tables: the warm-up steps one ``(k, 4, 4)`` stack, each
fit with weight 0 on the outcomes it lacks, and judges each fit once, at the
iterate it goes on from; Newton steps the fits of one factor rank as one stack, in real arithmetic.

Output states need no likelihood iteration.  With one two-outcome measurement
per Pauli basis the likelihood depends only on the Bloch vector ``r`` and
splits into one term per basis, so its maximum over the Bloch ball is
the linear-inversion point when that lies inside the ball, and
otherwise a point on the sphere fixed by one Lagrange multiplier: each
basis's component is a closed-form cubic root in the multiplier, and one
safeguarded Newton, started at the first-order root of ``|r|^2 = 1``, finds
the multiplier of every row of a stack at once (:func:`ml_reconstruct_state`;
:func:`ml_reconstruct_states` for a stack).

Matrices are plain ``np.ndarray`` values.  A two-qubit index is the
row-major composite ``(i_in, i_out)`` that ``np.kron`` produces, so
``np.kron(A, B)[2*i+k, 2*j+l] = A[i, j] * B[k, l]``.  Matrices from outside
(user-built settings, files) are checked once, where they enter; the
reconstructions are PSD by construction and are not checked again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError, DataFormatError
from .gate import format_phase
from .states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS, density

CHOI_DIM = 4
#: Output-state likelihoods clip model probabilities here before the logarithm.
PROB_FLOOR = 1e-12
#: A fit stops once its certificate proves it within this many nats of the maximum likelihood.
GAP_TOL = 1e-6
#: Cap on the RrhoR steps of a fit with ``tol > 0``; with ``tol = 0`` a fit takes at most
#: ``_WARMUP_STEPS + 2 * _FACTOR_STEPS`` steps.
MAX_ITERS = 10**5
# A step is treated as a likelihood decrease only beyond this slack;
# per-event log-likelihoods are O(1), so this sits well above rounding.
_DECREASE_TOL = 1e-14
# RrhoR steps of the warm-up, after which each fit is judged once; Newton steps before the full-rank retry, and in it.
_WARMUP_STEPS = 32
_FACTOR_STEPS = 24
# Where the gauge-fixed solve fails, Hessian eigenvalues above this fraction of the largest |negative one| are flat.
_CURVATURE_RTOL = 1e-10
# Newton halves a step that lowers L down to this fraction of it.
_MIN_DAMPING = 2.0**-30
# The certificate's own rounding error, relative to N + gap: 64 ulps.
_ROUNDING_RTOL = 64.0 * float(np.finfo(float).eps)

_PSD_ATOL = 1e-10


def require_hermitian(m, dim: int, what: str) -> np.ndarray:
    """Coerce to a complex ``dim x dim`` matrix; reject one farther than ``_PSD_ATOL`` from Hermitian."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if not dev <= _PSD_ATOL:  # NaN entries fail too
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e} > {_PSD_ATOL:.0e})")
    return a


def require_psd(m, dim: int, what: str, trace: float | None = None) -> np.ndarray:
    """Validate a Hermitian PSD ``dim x dim`` matrix with the given trace (any positive one if None)."""
    a = require_hermitian(m, dim, what)
    low = float(np.linalg.eigvalsh(a)[0])
    if low < -_PSD_ATOL:
        raise ValueError(f"{what} has negative eigenvalue {low:.3e}")
    tr = float(np.trace(a).real)
    if trace is None and tr <= 0.0:
        raise ValueError(f"{what} trace must be positive, got {tr:.9g}")
    if trace is not None and abs(tr - trace) > 1e-8:
        raise ValueError(f"{what} trace must be {trace:g}, got {tr:.9g}")
    return a


def require_projector(m) -> np.ndarray:
    """Validate a 2x2 Hermitian projector (idempotent within tolerance)."""
    pi = require_hermitian(m, 2, "projector")
    if np.max(np.abs(pi @ pi - pi)) > _PSD_ATOL:
        raise ValueError("projector is not idempotent within tolerance")
    return pi


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@functools.cache
def _cardinal_design():
    """The six cardinal states and the 36 operators ``rho^T (x) pi`` they form.

    Built once, on first use rather than at import, and read-only.  Each
    state serves as input state and as output projector; settings built
    from these arrays share the operators and skip validation.
    """
    states = {label: _read_only(density(label)) for label in STATE_LABELS}
    operators = {(id(a), id(b)): _read_only(np.kron(a.T, b)) for a in states.values() for b in states.values()}
    return states, operators


@dataclass(frozen=True)
class TomographySetting:
    """One effective measurement: prepare ``rho_in``, project output on ``pi_out``."""

    rho_in: np.ndarray
    pi_out: np.ndarray
    count: float
    #: Effective operator ``rho_in^T (x) pi_out`` on H_in (x) H_out.
    operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        operator = _cardinal_design()[1].get((id(self.rho_in), id(self.pi_out)))
        if operator is None:
            object.__setattr__(self, "rho_in", require_psd(self.rho_in, 2, "density matrix", trace=1.0))
            object.__setattr__(self, "pi_out", require_projector(self.pi_out))
            operator = np.kron(self.rho_in.T, self.pi_out)
        if not (math.isfinite(self.count) and self.count >= 0.0):
            raise ValueError(f"count must be finite and non-negative, got {self.count!r}")
        object.__setattr__(self, "operator", operator)


def apply_map(chi, rho_in) -> tuple[np.ndarray, float]:
    """Push a state through the map; returns (normalized rho_out, weight).

    ``weight`` is the pre-normalization trace, the map's acceptance
    probability for this input when ``chi`` is trace-normalized to 2.
    """
    chi = require_psd(chi, CHOI_DIM, "Choi matrix")
    rho = require_psd(rho_in, 2, "density matrix", trace=1.0)
    # Tr_in[chi (rho^T (x) I)]_{kl} = sum_ij chi_{(i,k),(j,l)} rho_{ij}
    raw = np.einsum("ikjl,ij->kl", chi.reshape(2, 2, 2, 2), rho)
    weight = float(np.trace(raw).real)
    if weight <= 1e-14:
        raise ValueError(f"map annihilates this input (pre-normalization trace {weight:.3e})")
    return raw / weight, weight


@dataclass
class ProcessReconstruction:
    """ML-estimated Choi matrix plus convergence diagnostics."""

    choi: np.ndarray
    #: RrhoR and Newton steps taken, those of a discarded Newton pass included.
    iterations: int
    #: Total log-likelihood of the counts at ``choi``, in nats.
    log_likelihood: float
    #: Per-event normalized log-likelihood after each accepted iteration.
    log_likelihood_trace: np.ndarray
    #: Steps that would have lowered the likelihood: an RrhoR overshoot that ends the warm-up,
    #: or a Newton step that was damped.
    likelihood_decreases: int
    #: Proven upper bound on ``max L - L(choi)``, in nats.
    certified_gap: float
    #: Why the fit stopped: one of :data:`STOP_REASONS`.
    stop_reason: str
    #: Of ``iterations``, the Newton steps on the factor that followed the RrhoR warm-up.
    newton_iterations: int

    @property
    def converged(self) -> bool:
        """The fit is certified, or as close as rounding allows (see ``stop_reason``)."""
        return self.stop_reason in ("certified", "rounding")

    @property
    def trace_preservation_deviation(self) -> float:
        """max |Tr_out[chi] - I|: how far the estimate is from trace preserving."""
        tr_out = np.einsum("ikjk->ij", self.choi.reshape(2, 2, 2, 2))
        return float(np.max(np.abs(tr_out - np.eye(2))))


@dataclass
class StateReconstruction:
    """ML-estimated density matrix of one output state."""

    rho: np.ndarray
    log_likelihood: float
    #: The estimate is pure (|r| = 1): it sits on the PSD boundary.
    on_boundary: bool
    # The solve ends at rounding or raises; these constants mirror ProcessReconstruction's diagnostics.
    iterations: ClassVar[int] = 0
    converged: ClassVar[bool] = True
    likelihood_decreases: ClassVar[int] = 0


@functools.lru_cache(maxsize=64)
def _design(flat_operators: bytes, dim: int, trace_target: float):
    """The maximally mixed start and float stacks of the operators, for :func:`_ml_fixed_point`.

    Row k of ``grad`` dotted with vec(m) as floats is Re Tr[m E_k] for Hermitian m, and a row of 0 ends it;
    ``probe`` holds the same as columns, but vec(I) / trace_target last, which gives Tr[m] / trace_target.
    ``forms[k]`` is the real symmetric form of E_k on the float view b of a vector, b . forms[k] b = b^H E_k b,
    and the identity last, the form of I.
    A design whose operators do not span the Hermitian ``dim x dim`` matrices raises :class:`DataFormatError`.
    """
    flat = np.frombuffer(flat_operators, dtype=complex).reshape(-1, dim * dim)
    trace_row = np.eye(dim, dtype=complex).reshape(1, -1) / trace_target
    probe, grad = (np.vstack([flat, row]).view(float) for row in (trace_row, 0.0 * trace_row))
    if (rank := int(np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])))) < dim * dim:
        raise DataFormatError(f"measurement design is rank-deficient: spans {rank} of {dim * dim} dimensions")
    ext = np.vstack([flat, np.eye(dim).reshape(1, -1)])
    forms = np.array([[ext.real, -ext.imag], [ext.imag, ext.real]]).reshape(2, 2, -1, dim, dim)
    forms = forms.transpose(2, 3, 0, 4, 1).reshape(-1, 2 * dim, 2 * dim)
    start = np.eye(dim, dtype=complex)[None] * (trace_target / dim)
    return _read_only(start), _read_only(probe.T.copy()), _read_only(grad), _read_only(forms)


#: Values of ``ProcessReconstruction.stop_reason``, each of the estimate a fit returns, which stops at any iterate
#: that certifies, in the warm-up too; the first two set ``converged``.  ``certified``: the gap is at most GAP_TOL.
#: ``rounding``: the gap is within the rounding error of the certificate itself, which exceeds GAP_TOL once N is
#: above about 7e7 events.  ``stalled``: Newton found no step that raises L, stood still or ran out of steps, or,
#: under ``tol > 0``, an RrhoR step would lower L.  No pipeline fit sets ``tol``; only under it, ``max_iters``:
#: RrhoR took :data:`MAX_ITERS` steps, and ``step``: the change of the iterate fell below ``tol`` first.
STOP_REASONS = ("certified", "rounding", "stalled", "max_iters", "step")
_SETTLED = (None, "certified", "rounding")  # the stop reason of each code of _settled: None goes on


def _settled(lam: np.ndarray, n_total: np.ndarray, trace_target: float) -> tuple[np.ndarray, np.ndarray]:
    """The certificates ``gap = N (trace_target lam - 1)`` of fits to ``n_total`` events whose gradients have the
    largest eigenvalues ``lam``, and the code in :data:`_SETTLED` of the stop reason each gives."""
    gap = n_total * (trace_target * lam - 1.0)
    # Rounding in lambda_max(R) moves the gap by about N Tr lambda_max(R) eps = (N + gap) eps.
    floor = _ROUNDING_RTOL * (n_total + gap)
    return gap, (gap <= np.maximum(floor, GAP_TOL)) << (floor > GAP_TOL)  # 1, or 2 where the floor is above GAP_TOL


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _ml_fixed_point(operators: np.ndarray, counts, dim: int, trace_target: float,
                    tol: float = 0.0) -> list[ProcessReconstruction]:
    """Certified maximum likelihood over PSD ``dim x dim`` matrices with trace ``trace_target``.

    ``counts`` has one row per fit, shape ``(k, n_ops)``, all against
    ``operators``.  Returns one :class:`ProcessReconstruction` per row,
    whose ``choi`` is the ``dim x dim`` estimate.  Two stages, each
    stopped by the certificate ``gap``:

    1. ``_WARMUP_STEPS`` steps of RrhoR from the maximally mixed point.
       Once at the support of the optimum it crawls: an optimal eigenvalue
       ``0`` whose direction ``v`` has the multiplier ``mu = 1 -
       trace_target * v^H R v`` shrinks only by ``(1 - mu)^2`` per step
       (``mu`` is about 0.11 on calibrated data).  The fits step as one
       ``(k, dim, dim)`` stack that keeps every iterate, and each fit is
       judged once, at the end, by the gap at the iterate it goes on from:
       the one before its first step that would lower ``L``, or else the
       last.  The fit stops there if the gap certifies, and otherwise goes
       on to Newton.  Every fit sums over all of the design's outcomes: one
       that a fit lacks has weight 0 there and ``q_0`` (1 in Newton) added to
       its ``q_k``, so that it adds exactly 0 to ``L`` and ``R`` (not ``0 log 0``).
    2. Damped Newton on a factor ``m = trace_target B B^H / |B|^2``, from the
       truncation of the iterate to its top eigenvectors with the greatest
       ``L``, converges quadratically to the rank-limited maximum.  ``L`` is
       flat along ``B -> c B U`` for unitary ``U``, so each step is a
       gauge-fixed Cholesky solve, ``eigh`` only where that fails.  A fit
       below full rank gains a column along the top eigenvector of ``R`` as
       soon as that rank cannot certify it: it stands still short of the
       certificate, or it is more than 1 nat short and the Newton model of
       its undamped step gains at most 1e-4 of that gap (Journée, Bach,
       Absil & Sepulchre, SIAM J. Optim. 20, 2327, 2010).  It all shares
       ``_FACTOR_STEPS`` steps; a fit from below full rank that spends them,
       or stands still at full rank, gets as many more from the warm-up
       iterate and its gap, with every eigenvector kept.  The fits of one
       rank step as one stack, the retries as one more, each with its own
       damping and stop.

    Every accepted iterate lowers the per-event log-likelihood by at most
    ``_DECREASE_TOL``, so the trace is monotone; Newton backtracks until
    it does, from the truncated start too, and the trace of a discarded
    pass is cut back to the warm-up.  Each ``L`` is a sum along its fit's
    own row, and every product is one fit's, so no fit's arithmetic
    touches another's, and each fit ends bit for bit as it would alone.
    A fit's gap is that of the iterate it stands on, so its
    ``certified_gap`` and ``stop_reason`` describe the estimate it returns.
    ``tol > 0`` keeps the fits in RrhoR until each has lowered ``L`` or
    taken a step that changes the iterate by less than ``tol`` in max
    norm, its first such step ending it; a still stop is not certified.
    """
    counts = np.asarray(counts, dtype=float)
    start, e_probe, e_grad, forms = _design(np.asarray(operators, dtype=complex).tobytes(), dim, trace_target)
    n_total = counts.sum(axis=1)
    if not n_total.min() > 0.0:
        raise DataFormatError("total count is zero; nothing to reconstruct")
    # RrhoR steps unnormalized m.  With q_k = Tr[m E_k] and q_0 = Tr[m] / trace_target, p_k = q_k / q_0, and
    # the weight -1 on q_0 gives L = sum_k f_k log q_k - log q_0 and the gradient R / q_0.  The weights of
    # each fit are a (1, n) matrix of their own, so that its products do not depend on the other fits, and an
    # outcome it lacks has weight 0 and q_0 added to q_k by a probe matrix of its own.
    weights = np.concatenate([counts, -n_total[:, None]], axis=1)[:, None] / n_total[:, None, None]
    empty = (weights == 0.0) * 1.0
    fit_probe = e_probe + e_probe[:, -1:] * empty

    def probe(m):
        return m.reshape(len(m), 1, -1).view(float) @ fit_probe

    def likelihood(q):
        return (weights * np.log(q)).sum(axis=-1)

    def gradient(q):
        return ((weights / q) @ e_grad).view(complex).reshape(len(q), dim, dim)

    est = start.repeat(len(counts), axis=0)
    q = probe(est)
    iterates, still, ll = [(est, q, gradient(q))], [], likelihood(q)
    warmup, ended = _WARMUP_STEPS if tol <= 0.0 else MAX_ITERS, np.zeros(len(counts), dtype=bool)
    while len(iterates) <= warmup and not (tol > 0.0 and ended.all()):  # only tol > 0 ends fits in the loop
        previous, _, r = iterates[-1]
        est = r @ previous @ r
        q = probe(est)
        if tol > 0.0:  # iterates at trace_target, and the step between them
            est, q = est / q[:, :, -1:], q / q[:, :, -1:]
            still.append(np.abs(est - previous).max(axis=(1, 2)) < tol)
            ll, before = likelihood(q), ll
            ended |= still[-1] | ~(ll[:, 0] >= before[:, 0] - _DECREASE_TOL)
        iterates.append((est, q, gradient(q)))
    # Each fit goes on from one iterate: the one before its first step that lowered L (or made it NaN), the one
    # after its first still step, or else the last.  The iterates past a fit's end are ignored.
    lls = likelihood(np.concatenate([q for _, q, _ in iterates], axis=1))
    fell = ~(lls[:, 1:] >= lls[:, :-1] - _DECREASE_TOL)
    stops = fell | np.array(still).T if tol > 0.0 else fell
    first, ended = stops.argmax(axis=1).tolist(), stops.any(axis=1).tolist()
    down = [int(e and fell[j, i]) for j, (i, e) in enumerate(zip(first, ended))]
    at = [i + 1 - d if e else len(iterates) - 1 for i, e, d in zip(first, ended, down)]
    m, q, g = (np.array([iterates[i][n][j] for j, i in enumerate(at)]) for n in range(3))
    # lambda_max of the gradient at the iterate scaled to trace_target, which is q_0 times that of g.
    gap, code = _settled(q[:, 0, -1] * np.linalg.eigvalsh(g)[:, -1], n_total, trace_target)
    est = m / q[:, :, -1:]
    # A fit's trace is a list and its stop None until it is settled, or until it ends as Newton or RrhoR left it.
    fits = [ProcessReconstruction(None, i + d, 0.0, lls[j, : i + 1].tolist(), d, gj, _SETTLED[k], 0)
            for j, (i, d, gj, k) in enumerate(zip(at, down, gap.tolist(), code.tolist()))]
    if tol <= 0.0 and (go := [j for j, fit in enumerate(fits) if fit.stop_reason is None]):
        _newton(fits, go, est, forms, fit_probe, e_grad[:-1], weights, empty, n_total, trace_target)
    for fit, m, n, d, e in zip(fits, est, n_total, down, ended):
        fit.choi, fit.iterations = 0.5 * (m + m.conj().T), fit.iterations + fit.newton_iterations
        fit.log_likelihood_trace = np.asarray(fit.log_likelihood_trace)
        fit.log_likelihood = float(n * fit.log_likelihood_trace[-1])
        fit.stop_reason = fit.stop_reason or ("stalled" if d or tol <= 0.0 else "step" if e else "max_iters")
    return fits


def _newton(fits, go, est, forms, fit_probe, e_build, weights, empty, n_total, trace_target):
    """Stage 2 of :func:`_ml_fixed_point` for the fits ``go``, updating ``est`` and ``fits`` in place: each
    factor rank steps as one stack, with the fits that gained a column below it, and the full-rank retries as one."""
    warm = est[go], [(len(fits[j].log_likelihood_trace), fits[j].certified_gap) for j in go]
    (w, v), dim = np.linalg.eigh(warm[0]), est.shape[-1]
    # Row i: column i of B, the largest first; then L of each truncation to the top columns, from one probe of the
    # outcomes of each column.  A NaN L (some p_k <= 0) loses, and ties go to the lower rank.
    columns = np.ascontiguousarray((v * np.sqrt(np.maximum(w, 0.0))[:, None, :]).mT[:, ::-1])
    q = (columns[..., None] * columns[:, :, None].conj()).reshape(len(go), dim, 1, -1).view(float) @ fit_probe[go, None]
    ll = (np.log(q.cumsum(axis=1)) @ weights[go].mT[:, None])[..., 0, 0]
    ranks, left, grown = (np.fmax(ll, -np.inf).argmax(axis=1) + 1).tolist(), np.full(len(fits), _FACTOR_STEPS), []
    for rank in range(min(ranks), dim + 1):
        start = [i for i, k in enumerate(ranks) if k == rank]
        if ids := [go[i] for i in start] + grown:
            c = np.concatenate([columns[start, :rank], c]) if grown else columns[start, :rank]
            grown, c = _factor_pass(fits, ids, c, left, est, forms, e_build, weights, empty, n_total, trace_target)
    # A fit from below full rank that spends its steps, or stands still at full rank, is retried once at full
    # rank with steps of its own, from the warm-up iterate and its gap.
    if retry := [i for i, (j, k) in enumerate(zip(go, ranks)) if k < dim and fits[j].stop_reason is None]:
        ids = [go[i] for i in retry]
        est[ids], left[ids] = warm[0][retry], _FACTOR_STEPS
        for i, j in zip(retry, ids):
            steps, fits[j].certified_gap = warm[1][i]
            del fits[j].log_likelihood_trace[steps:]
        _factor_pass(fits, ids, columns[retry], left, est, forms, e_build, weights, empty, n_total, trace_target)


@functools.cache
def _gauge(rank: int, dim: int) -> np.ndarray:
    """The real ``(n, (rank^2 + 1) n)`` stack, n = 2 rank dim, that takes the float view x of C = B^T to L's flat
    directions: the float views of i K C for the rank^2 Hermitian E_jm + E_mj (j <= m) and i (E_jm - E_mj), and x."""
    e, upper = np.eye(rank * rank).reshape(-1, rank, rank), np.triu(np.ones((rank, rank), bool)).reshape(-1, 1, 1)
    a = np.concatenate([1j * np.where(upper, e + e.mT, 1j * (e - e.mT)), np.eye(rank)[None]])
    real = np.array([[a.real, -a.imag], [a.imag, a.real]])  # [re/im out, re/im in, generator, row, column]
    return _read_only(np.einsum("stajm,kl->mktajls", real, np.eye(dim)).reshape(2 * rank * dim, -1))


def _newton_step(x, grad, hess, gauge):
    """Newton steps ``m^-1 grad`` of a stack of factors x, ``m`` being ``-hess`` plus the Gram matrix of the flat
    directions of :func:`_gauge` at the mean curvature, once Cholesky proves it positive definite; else by halves."""
    g = (x[:, None] @ gauge).reshape(len(x), -1, x.shape[1])
    m = g.mT @ g * (np.diagonal(hess, 0, 1, 2).sum(axis=1) / x.shape[1] / -(x * x).sum(axis=1))[:, None, None] - hess
    try:
        np.linalg.cholesky(m)
        return np.linalg.solve(m, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if mid := len(x) // 2:  # halve the stack until each fit whose m fails stands alone
            return np.concatenate([_newton_step(x[s], grad[s], hess[s], gauge) for s in (slice(mid), slice(mid, None))])
    curv, basis = np.linalg.eigh(hess)  # m fails: the Hessian inverted only on its negative-curvature eigenspace
    neg = curv < -_CURVATURE_RTOL * abs(curv).max(axis=1, keepdims=True)
    return (np.where(neg, (grad[:, None] @ basis)[:, 0] / -curv, 0.0)[:, None] @ basis.mT)[:, 0]


def _factor_pass(fits, ids, c, left, est, forms, e_build, weights, empty, n_total, trace_target):
    """Damped Newton steps of the fits ``ids`` as one stack, from the factors ``c``, within the steps ``left``.  A
    fit leaves once it certifies, spends its steps or stands still: its step within rounding of its factor, no damped
    step raising L or, below full rank, an undamped step whose Newton model gain N grad . step is at most 1e-4 of a
    gap above 1 nat.  Returns the ids of the last below full rank, and their factors with a column more.
    Over the float view x of C = B^T (row j: column j of B), L(x) = sum_k f_k log q_k with q_k = Tr[B^H E_k B]
    = sum_j b_j . forms[k] b_j; the last form, of I, gives q = |x|^2 and weight -1.  Every product and sum is one
    fit's, so a fit steps bit for bit as it would alone."""
    count, rank, dim = c.shape
    n, row, ids = 2 * rank * dim, 2 * dim, np.array(ids)
    x, f, z, nt, budget = c.view(float).reshape(count, n), weights[ids], empty[ids], n_total[ids], left[ids]
    ll, block_diagonal = np.array([fits[j].log_likelihood_trace[-1] for j in ids]), np.eye(rank)[:, None, :, None]
    jac_forms, flat_forms, probe, grown = forms.reshape(-1, row).mT, forms.reshape(len(forms), -1), e_build.T, []
    gauge, still_tol = _gauge(rank, dim), _ROUNDING_RTOL**2 * trace_target  # |x|^2 <= trace_target

    def grow(out, x, p, f):  # stores the steps left; the fits out, with steps left, below full rank gain a column
        left[ids] = budget
        if rank < dim and (out := out & (budget > 0)).any():
            grown.append((ids[out], x[out].view(complex).reshape(-1, rank, dim), p[out], f[out, ..., :-1]))
    while True:
        blocks = x.reshape(-1, rank, row)
        jac = (blocks @ jac_forms).reshape(len(ids), rank, -1, row).transpose(0, 2, 1, 3).reshape(len(ids), -1, n)
        q = x[:, None] @ jac.mT + z  # row k of jac: half the gradient of q_k
        fq = f / q
        a = 2.0 * (fq @ flat_forms).reshape(-1, row, row)  # the real form of 2 sum_k (f_k / q_k) E_k
        grad = (blocks @ a.mT).reshape(-1, n)
        # The Hessian: 2 sum_k (f_k / q_k) M_k - 4 sum_k (f_k / q_k^2) (M_k x)(M_k x)^T, where M_k applies
        # forms[k] to each column of B, so that its first term is block diagonal.
        hess = (block_diagonal * a[:, None, :, None, :]).reshape(-1, n, n) - (jac.mT * (4.0 * fq / q)) @ jac
        # L is flat along B -> c B U: a gauge-fixed Cholesky solve, eigh only where that fails.
        step = _newton_step(x, grad, hess, gauge)
        # Each fit halves its own step until L does not fall; the others repeat theirs, which changes nothing.
        x_new, alpha, budget = x + step, None, budget - 1
        for j in ids.tolist():
            fits[j].newton_iterations += 1
        while True:
            c_new = x_new.view(complex).reshape(-1, rank, dim)
            scale = trace_target / (x_new[:, None] @ x_new[:, :, None])
            candidate = c_new.mT @ c_new.conj() * scale
            p = candidate.reshape(-1, 1, dim * dim).view(float) @ probe + z[..., :-1]
            ll_new = (f[..., :-1] * np.log(p)).sum(axis=-1)[:, 0]
            if (all_ok := (ok := ll_new >= ll - _DECREASE_TOL).all()):  # a NaN L (some p_k <= 0) fails
                break
            alpha = np.ones((len(ids), 1)) if alpha is None else alpha
            if not (search := ~ok & (alpha[:, 0] > _MIN_DAMPING)).any():
                break
            alpha[search] *= 0.5
            x_new = x + alpha * step
        if not all_ok:
            grow(~ok, x, trace_target * q[..., :-1] / q[..., -1:], f)
            if not ok.any():
                break
            ids, x_new, scale, candidate, p, f, z, nt, ll_new, grad, step, budget, alpha = (
                v[ok] for v in (ids, x_new, scale, candidate, p, f, z, nt, ll_new, grad, step, budget, alpha))
        x, ll = x_new * np.sqrt(scale[:, 0]), ll_new
        r_new = ((f[..., :-1] / p) @ e_build).view(complex).reshape(-1, dim, dim)
        est[ids] = candidate
        gap, code = _settled(np.linalg.eigvalsh(r_new)[:, -1], nt, trace_target)
        damped = [False] * len(ids) if alpha is None else (alpha[:, 0] < 1.0).tolist()
        for j, fit_ll, d, g, k in zip(ids.tolist(), ll.tolist(), damped, gaps := gap.tolist(), code.tolist()):
            fit = fits[j]
            fit.log_likelihood_trace.append(fit_ll)
            fit.likelihood_decreases += d
            fit.certified_gap, fit.stop_reason = g, _SETTLED[k]
        still = (step * step).sum(axis=1) <= still_tol
        # Below full rank, a fit more than 1 nat short whose undamped step gains at most 1e-4 of that gap by the
        # Newton model, N grad . step, cannot certify at this rank and grows as if it stood still.  Only a stack that
        # holds such a gap pays for the test.
        if rank < dim and max(gaps) > 1.0:
            stuck = gap > np.maximum(1.0, 1e4 * nt * (grad * step).sum(axis=1))
            still |= stuck if alpha is None else stuck & (alpha[:, 0] == 1.0)
        if (out := (code > 0) | still | (budget == 0)).any():
            grow(still & (code == 0), x, p, f)
            if out.all():
                break
            ids, x, f, z, nt, ll, budget = (v[~out] for v in (ids, x, f, z, nt, ll, budget))
    if not grown:
        return [], c[:0]
    # A column more for each fit that stands still: the top eigenvector v of R there, made orthogonal to its columns,
    # at the weight s that maximises the concave L((1 - s) m + s trace_target v v^H), where L'(0) > 0 if uncertified.
    ids, c, p, f = (np.concatenate(v) for v in zip(*grown))  # p is any value where f_k = 0
    v = np.linalg.eigh(((f / p) @ e_build).view(complex).reshape(-1, dim, dim))[1][..., -1]
    v -= ((basis := np.linalg.qr(c.mT)[0]) @ (basis.conj().mT @ v[..., None]))[..., 0]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d = trace_target * ((v[:, :, None] * v[:, None].conj()).reshape(len(v), 1, -1).view(float) @ probe) - p
    (s, lo, done), hi = np.zeros((3, len(v), 1, 1)), np.ones((len(v), 1, 1))
    for _ in range(64):  # safeguarded Newton in s on [0, 1), each fit stopped by its own step
        slope = (f * d / (den := p + s * d)).sum(axis=-1, keepdims=True)
        lo, hi = np.where(slope > 0.0, s, lo), np.where(slope > 0.0, hi, s)
        new = s + slope / (f * d * d / (den * den)).sum(axis=-1, keepdims=True)
        new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
        s = np.where(done := (done > 0.0) | (abs(new - s) <= 1e-12 * new), s, new)
        if done.all():
            break
    scale = (1.0 - s) * trace_target / (abs(c) ** 2).sum(axis=(1, 2), keepdims=True)
    return ids.tolist(), np.concatenate([c * np.sqrt(scale), np.sqrt(s * trace_target) * v[:, None]], axis=1)


def ml_reconstruct_process(settings, tol: float = 0.0) -> ProcessReconstruction:
    """Maximum-likelihood Choi matrix from a list of :class:`TomographySetting`.

    Requires an informationally complete design (the operators must span
    the full 16-dimensional Hermitian space); the six-input, three-basis
    plan qualifies.  Counts may be non-integer (efficiency rescaled).
    The fit stops when it is certified within :data:`GAP_TOL` nats of the
    maximum, or as ``stop_reason`` records, after at most
    ``_WARMUP_STEPS + 2 * _FACTOR_STEPS`` steps.  ``tol > 0`` instead keeps
    the fit in RrhoR, up to :data:`MAX_ITERS` steps, with an uncertified
    early exit on the change of the iterate.
    """
    settings = list(settings)
    if not settings:
        raise DataFormatError("no tomography settings supplied")
    operators = np.array([s.operator for s in settings])
    return _ml_fixed_point(operators, np.array([s.count for s in settings])[None], CHOI_DIM, 2.0, tol)[0]


def ml_reconstruct_phases(*counts_tables) -> list[list[ProcessReconstruction]]:
    """Each phase's :func:`ml_reconstruct_process` fit, one list per table; all tables, which must list the same
    states and bases, fit as one batch that builds no :class:`TomographySetting`."""
    states, operators = _cardinal_design()
    (labels, _), *others = rows = [_outcome_counts(table, slice(None)) for table in counts_tables]
    if any(other != labels for other, _ in others):
        raise DataFormatError("count tables fitted as one batch must list the same input states and bases")
    ops = np.array([operators[id(states[s]), id(states[o])] for s, o in labels])
    fits = iter(_ml_fixed_point(ops, np.concatenate([counts for _, counts in rows]), CHOI_DIM, 2.0))
    return [[next(fits) for _ in counts] for _, counts in rows]


#: The sphere solve's Newton steps stop once they move the multiplier by less than this, relative to it.
_NEWTON_RTOL = 1e-15
_NEWTON_MAX_STEPS = 500
# psi is taken as 0 once |1 - |r|^2| is below its rounding error, this many ulps of the smallest s.
_PSI_ULPS = 16.0 * float(np.finfo(float).eps)


@np.errstate(divide="ignore", invalid="ignore")
def _bloch(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(r, s = 1 - |r|)`` per basis of the ML state of each row of a ``(k, 3, 2)`` count stack, and ``|r|^2`` of
    its linear-inversion point ``r_b = (a_b - c_b)/(a_b + c_b)`` (0 if unmeasured).

    A row outside the ball goes to the sphere.  At multiplier ``mu > 0`` a basis's ``r`` is the root in [-1, 1] of
    ``a/(1+r) - c/(1-r) - 2 mu r``, with the sign of ``a - c``.  With ``big``, ``small`` the larger and smaller
    count, ``s`` is the root in (0, 1] of ``big s - small (2-s) - 2 mu s (2-s) (1-s)``: in ``t = s - 1`` the middle
    root of ``t^3 - P t + Q``, ``P = 1 + n/(2 mu)``, ``Q = (small - big)/(2 mu)``.  The largest root ``t0`` comes
    from the trigonometric form and one Newton polish of the cubic in ``t0 - 2``, which is near 0 where the basis
    nears its pole.  The quotient by ``t - t0`` then gives ``|r|`` far from the pole and ``s`` near it, each
    without cancellation; an empty outcome gives ``s = max(0, 2 - t0)``, the pole for ``mu <= n/4``.

    ``mu`` is the root of ``psi(mu) = 1/|r(mu)| - 1``, which increases and is close to linear: ``psi < 0`` as
    ``mu -> 0``, ``psi > 0`` at ``mu = max count``, and the root lies above ``n_b/4`` for every basis with an empty
    outcome.  ``1 - |r|^2`` takes ``s (2 - s)`` for the basis nearest its pole, so ``psi`` keeps the precision of
    its ``s``.  One safeguarded Newton runs over every row outside the ball, bisecting in ``log mu`` for a step
    that leaves the row's bracket.  A row starts at the Newton step from ``mu = 0`` on ``|r(mu)|^2``,
    ``(|r0|^2 - 1) / sum_b 4 r_b^2 (1 - r_b^2) / n_b``, where that lies above its bracket's lower end and below the
    start that puts ``|r|`` at 1 for equal basis totals, and at the latter otherwise.  A row stops once its step
    is below :data:`_NEWTON_RTOL`, ``psi`` is below its rounding error or its bracket has closed, and takes the
    first-order change of its last step.  Every operation is row-local, so a row ends bit for bit as it would
    alone.
    """
    top = counts.max(axis=(1, 2))[:, None, None]
    # The estimate depends only on count ratios: scale exactly, by a power of two, to at most 1,
    # and drop counts below 1e-100 of the largest, which move the likelihood by less than its
    # rounding error and would underflow in the sphere solve.
    exponent = np.frexp(top)[1]
    scaled = np.where(counts >= 1e-100 * top, np.ldexp(counts, -exponent), 0.0)
    a, c = scaled[..., 0], scaled[..., 1]
    n, big, small, d = a + c, np.maximum(a, c), np.minimum(a, c), a - c
    measured = n > 0.0
    r = np.where(measured, d / n, 0.0)
    s = np.where(measured, 2.0 * small / n, 1.0)
    rr = r * r
    norm2 = rr[:, 0] + rr[:, 1] + rr[:, 2]
    live = out = norm2 > 1.0
    if not out.any():
        return r, s, norm2
    lo, hi = np.where((small == 0.0) & measured, 0.25 * n, 0.0).max(axis=1), big.max(axis=1)
    # Start where |r| = 1 if every basis had the mean total, or below that at the Newton step from mu = 0 on
    # |r(mu)|^2, whose slope there is -4 times the sum of slope = r_b^2 (1 - r_b^2) / n_b over the bases measured.
    dd = d * d
    mu = np.maximum(0.5 * (np.sqrt(dd[:, 0] + dd[:, 1] + dd[:, 2]) - (n[:, 0] + n[:, 1] + n[:, 2]) / 3.0), lo)
    mu = np.where((0.0 < mu) & (mu < hi), mu, 0.5 * hi)
    slope = rr * (1.0 - rr) / np.where(measured, n, 1.0)
    first = 0.25 * (norm2 - 1.0) / (slope[:, 0] + slope[:, 1] + slope[:, 2])
    mu = np.where((lo < first) & (first < mu), first, mu)
    sign, diff, half_n, columns = np.where(a >= c, 1.0, -1.0), big - small, 0.5 * n, np.arange(3)
    diff_15, minus_big, has_small = 1.5 * diff, -big, small > 0.0  # the same in every pass
    for steps in range(_NEWTON_MAX_STEPS + 1):
        if not live.any():
            return np.where(out[:, None], sign * one, r), np.where(out[:, None], at, s), norm2
        if steps == _NEWTON_MAX_STEPS:
            j = int(np.argmax(live))
            bracket = np.ldexp([lo[j], hi[j]], exponent[j, 0, 0])
            raise ConvergenceError(f"state row {j}: the sphere solve did not settle in {steps} Newton steps; counts "
                                   f"{dict(zip(BASIS_LABELS, map(tuple, counts[j].tolist())))}, "
                                   f"multiplier bracket [{bracket[0]:.17g}, {bracket[1]:.17g}]")
        m = mu[:, None]
        m2 = 2.0 * m
        w = n + m2
        y = np.sqrt(w / (1.5 * m)) * np.cos(np.arccos(np.minimum(diff_15 / w * np.sqrt(6 * m / w), 1.0)) / 3) - 2.0
        p = 11.0 - half_n / m
        y -= (y * (y * (y + 6.0) + p) + (3.0 * (4.0 * m - big) - small) / m2) / (y * (3.0 * y + 12.0) + p)
        t0 = y + 2.0
        q = small / (m * t0 + m)
        root = np.sqrt(y * y + 4.0 * q)
        # |r| = -t1 from t^2 + t0 t - Q/t0, s from s^2 + y s - small/(mu (1 + t0)).
        k = diff / (m * t0)
        far, near = k / (t0 + np.sqrt(t0 * t0 - 2.0 * k)), np.where(y > 0.0, 2.0 * q / (root + y), 0.5 * (root - y))
        at, one = np.where(is_far := far < 0.5, 1.0 - far, near), np.where(is_far, far, 1.0 - near)
        oo = one * one
        # d|r|/dmu = 2 |r| / h', with h' = -big/(2-s)^2 - small/s^2 - 2 mu < 0 the slope of the basis equation.
        inv_h = 1.0 / (minus_big / (2.0 - at) ** 2 - np.where(has_small, small / at / at, 0.0) - m2)
        slopes = oo * inv_h
        terms = np.where(columns == at.argmin(axis=1)[:, None], at * (1.0 + one), -oo)
        gap = terms[:, 0] + terms[:, 1] + terms[:, 2]
        norm = np.sqrt(1.0 - gap)
        value = gap / (norm * (1.0 + norm))
        step = value / (-2.0 * (slopes[:, 0] + slopes[:, 1] + slopes[:, 2]) / (norm * norm * norm))
        # A change as large as s itself is past the linear range (the root lies between two floats): s stays.
        change = 2.0 * one * inv_h * step[:, None]
        change = np.where(np.abs(change) < at, change, 0.0)
        at, one = at + change, one - change
        lo, hi = np.where(value < 0.0, mu, lo), np.where(value > 0.0, mu, hi)
        nxt = mu - step
        done = (np.abs(step) <= _NEWTON_RTOL * mu) | (np.abs(gap) <= _PSI_ULPS * at.min(axis=1))
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, np.maximum(np.sqrt(lo) * np.sqrt(hi), 1e-3 * hi))
        live = live & ~done & (lo < nxt) & (nxt < hi)  # a bracket closed to neighbouring floats also stops a row
        mu = np.where(live, nxt, mu)


def ml_reconstruct_state(basis_counts) -> StateReconstruction:
    """Maximum-likelihood qubit state from counts in the three Pauli bases.

    ``basis_counts`` maps each basis label in {Z, X, Y} to a pair of
    counts for its (first, second) outcome as listed in
    :data:`phasegate.states.BASIS_OUTCOMES`.  With ``(a_b, c_b)`` the
    counts of basis ``b`` the first outcome has probability
    ``(1 + r_b)/2``, so the likelihood is maximized per basis at
    ``r_b = (a_b - c_b)/(a_b + c_b)`` (0 for an unmeasured basis).  If
    that point lies in the Bloch ball it is the estimate; otherwise the
    estimate is the constrained maximum on the sphere, solved to
    rounding; a multiplier that does not settle within the Newton step
    cap raises :class:`ConvergenceError` naming its row.
    This is the stack of one of :func:`ml_reconstruct_states`.
    """
    missing = [b for b in BASIS_LABELS if b not in basis_counts]
    if missing:
        raise DataFormatError(f"missing basis counts for {missing}")
    if bad := [b for b in BASIS_LABELS if len(basis_counts[b]) != 2]:
        raise DataFormatError(f"basis {bad[0]} needs exactly two outcome counts, got {len(basis_counts[bad[0]])}")
    return ml_reconstruct_states([[basis_counts[b] for b in BASIS_LABELS]])[0]


def ml_reconstruct_states(counts) -> list[StateReconstruction]:
    """:func:`ml_reconstruct_state` of each row of a ``(k, 3, 2)`` array of per-basis counts, bases Z X Y.

    Every step runs as arrays over the stack, the sphere solve of the rows outside the ball included (:func:`_bloch`),
    and each row ends bit for bit as it would alone.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 3 or counts.shape[1:] != (len(BASIS_LABELS), 2):
        raise DataFormatError(f"state counts must have shape (k, {len(BASIS_LABELS)}, 2), got {counts.shape}")
    if (bad := ~(np.isfinite(counts) & (counts >= 0.0))).any():
        j, b, o = np.argwhere(bad)[0]
        raise DataFormatError(f"bad count {counts[j, b, o].item()!r} for basis {BASIS_LABELS[b]}")
    if not (counts.max(axis=(1, 2)) > 0.0).all():
        raise DataFormatError("total count is zero; nothing to reconstruct")
    r, s, norm2 = _bloch(counts)
    probs = np.stack([1.0 - 0.5 * s, 0.5 * s], axis=-1)
    probs[r < 0.0] = probs[r < 0.0, ::-1]
    # Z's outcome probabilities are the diagonal; X and Y set the coherence, (r_x - i r_y) / 2.
    rho = np.zeros((len(counts), 2, 2), dtype=complex)
    rho[:, 0, 0], rho[:, 1, 1] = probs[:, 0, 0], probs[:, 0, 1]
    rho[:, 0, 1].real, rho[:, 0, 1].imag = r[:, 1], -r[:, 2]
    rho[:, 0, 1] *= 0.5
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    per_basis = (counts * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=2)
    log_likelihood = per_basis[:, 0] + per_basis[:, 1] + per_basis[:, 2]
    return [StateReconstruction(*fit) for fit in zip(rho, log_likelihood.tolist(), (norm2 >= 1.0).tolist())]


def settings_for_phase(counts_table, phase_index: int):
    """Flatten one phase of a count table into tomography settings.

    Intervals and program branches are summed: after feed-forward
    correction both branches estimate the same output state, and the
    no-feed-forward analysis arrives here with the D_p1 branch already
    zeroed.  Data detector D_d0 maps to the first outcome of the basis,
    D_d1 to the second.
    """
    cardinal, _ = _cardinal_design()
    labels, counts = _outcome_counts(counts_table, phase_index)
    return [TomographySetting(cardinal[s], cardinal[o], c) for (s, o), c in zip(labels, counts[0].tolist())]


def _outcome_counts(counts_table, phases):
    """(state, outcome) labels in (state, basis, data detector) order, states and bases in canonical order, and a
    count row in that order per phase: the order in which a table lists its labels does not change a fit."""
    t = counts_table
    states, bases = sorted(t.input_states, key=STATE_LABELS.index), sorted(t.bases, key=BASIS_LABELS.index)
    labels = [(s, o) for s in states for b in bases for o in BASIS_OUTCOMES[b]]
    summed = np.take(t.counts[phases].sum(axis=(-3, -1)), list(map(t.input_states.index, states)), axis=-3)
    return labels, np.take(summed, list(map(t.bases.index, bases)), axis=-2).reshape(-1, len(labels))


def state_basis_counts(counts_table, phase_index: int, state_index: int):
    """Per-basis outcome counts for one (phase, input state), as a dict of :func:`state_counts`."""
    return dict(zip(BASIS_LABELS, map(tuple, state_counts(counts_table, (phase_index, state_index)).tolist())))


def state_counts(counts_table, index=()) -> np.ndarray:
    """Counts per basis (Z X Y) and data detector of the (phase, state) rows that ``counts[index]`` picks."""
    bases = [counts_table.bases.index(b) for b in BASIS_LABELS]
    return counts_table.counts[index].sum(axis=(-3, -1))[..., bases, :]


def save_choi(path, chi, phase: float, iterations: int, log_likelihood: float, **extra) -> None:
    """Write a Choi matrix with its metadata to a line-oriented text file.

    Layout: ``phase`` (as :func:`format_phase` spells it), ``iterations``,
    ``log_likelihood`` (plus any extra key-value metadata) lines, then
    ``dim 4`` and 16 row-major ``re im`` entry lines at 15 significant
    digits.  ``iterations`` is :attr:`ProcessReconstruction.iterations`:
    RrhoR and Newton steps together.
    """
    _save_matrix_file(path, chi, CHOI_DIM, extra, phase=format_phase(phase), iterations=int(iterations),
                      log_likelihood=f"{log_likelihood:.15g}")


def load_choi(path):
    """Read a file written by :func:`save_choi`.

    Returns ``(chi, meta)``; ``meta`` maps metadata keys to their raw
    string values and always contains phase, iterations and
    log_likelihood.  ``chi`` must be Hermitian and PSD with positive trace.
    """
    meta, m = _load_matrix_file(path, CHOI_DIM, ("phase", "iterations", "log_likelihood"), "Choi matrix", None)
    return m, meta


def save_state(path, rho, phase: float, input_state: str, **extra) -> None:
    """Write a reconstructed output density matrix, tagged by its setting."""
    _save_matrix_file(path, rho, 2, extra, phase=format_phase(phase), input_state=input_state)


def load_state(path):
    """Read a file written by :func:`save_state`; returns ``(rho, meta)`` for a density matrix ``rho``."""
    meta, m = _load_matrix_file(path, 2, ("phase", "input_state"), "density matrix", 1.0)
    return m, meta


def _save_matrix_file(path, m, dim: int, extra: dict, **head) -> None:
    """Write the ``head`` metadata in order, ``extra`` sorted by key, then ``dim`` and the row-major entries."""
    entries = np.asarray(m, dtype=complex).reshape(dim * dim)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(f"{key} {value}\n" for key, value in [*head.items(), *sorted(extra.items())])
        f.write(f"dim {dim}\n")
        f.writelines(f"{z.real:.15g} {z.imag:.15g}\n" for z in entries)


def _load_matrix_file(path, dim: int, keys, what: str, trace: float | None):
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    i = next((i for i, line in enumerate(lines) if line.startswith("dim ")), len(lines))
    meta = dict(line.partition(" ")[::2] for line in lines[:i])
    if i == len(lines):
        raise DataFormatError(f"{path}: missing 'dim' line")
    entries = lines[i + 1 :]
    try:
        declared = int(lines[i].split()[1])
        values = [complex(float(a), float(b)) for a, b in (e.split() for e in entries)]
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: malformed matrix file ({exc})") from exc
    if declared != dim:
        raise DataFormatError(f"{path}: expected dim {dim}, got {declared}")
    if len(entries) != dim * dim:
        raise DataFormatError(f"{path}: expected {dim * dim} entries after 'dim', found {len(entries)}")
    for k in keys:
        if k not in meta:
            raise DataFormatError(f"{path}: missing metadata key {k!r}")
    try:
        return meta, require_psd(np.reshape(values, (dim, dim)), dim, what, trace)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

"""Ideal-process construction and figures of merit.

The ideal programmable phase gate with programmed angle ``phi`` has the
rank-1 Choi matrix ``chi_id = |w><w|`` with ``|w> = |00> + e^{i phi}
|11>`` (trace 2).  Reconstructed processes are scored against it with

    F_chi = Tr[chi chi_id] / (Tr[chi] Tr[chi_id]) ,

and reconstructed output states with the usual pure-target fidelity
``<psi| rho |psi>`` and purity ``Tr[rho^2]``.  A merit report aggregates
these over the six cardinal input states for one phase setting.  The
inputs are taken as valid: reconstructions are PSD by construction, and
matrix files are checked where they load (:func:`phasegate.tomography.load_choi`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .gate import canonical_phase, format_phase
from .states import STATE_LABELS, as_state, ket
from .tomography import CHOI_DIM, require_hermitian

#: chi_id must be rank 1; the second eigenvalue may be at most this
#: fraction of the trace.
RANK1_RTOL = 1e-8

MERIT_CSV_HEADER = "phi,F_chi,F_av,F_min,P_av,P_min,feed_forward_active,success_probability"


def ideal_choi(phi: float) -> np.ndarray:
    """Rank-1 Choi matrix of the perfect gate: ``|w><w|``, ``|w> = |00> + e^{i phi}|11>``."""
    w = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)], dtype=complex)
    return np.outer(w, w.conj())


def process_fidelity(chi, chi_id) -> float:
    """Overlap fidelity against a rank-1 ideal process, scale-invariant.

    Rejects a ``chi_id`` that is not rank 1 (the formula presumes a
    one-dimensional projector up to scale).
    """
    chi = np.asarray(chi, dtype=complex)
    chi_id = np.asarray(chi_id, dtype=complex)
    tr = float(np.trace(chi).real)
    tr_id = float(np.trace(chi_id).real)
    if tr <= 0.0 or tr_id <= 0.0:
        raise ValueError(f"process fidelity needs positive traces, got {tr:.3e} and {tr_id:.3e}")
    w = np.linalg.eigvalsh(require_hermitian(chi_id, CHOI_DIM, "chi_id"))
    if w[-2] > RANK1_RTOL * tr_id:
        raise ValueError(f"chi_id is not rank 1 (second eigenvalue {w[-2]:.3e} vs trace {tr_id:.3e})")
    return float(np.trace(chi @ chi_id).real) / (tr * tr_id)


def state_fidelity(rho, psi_target) -> float:
    """``<psi|rho|psi>`` for a pure target given as label or amplitude pair."""
    psi = as_state(psi_target)
    return float(np.real(np.vdot(psi, np.asarray(rho) @ psi)))


def purity(rho) -> float:
    """``Tr[rho^2]``; 1 for pure states, 1/2 for the maximally mixed qubit."""
    rho = np.asarray(rho)
    return float(np.trace(rho @ rho).real)


@dataclass(frozen=True)
class MeritReport:
    """One row of the results table: all merits for one (phase, analysis) pair."""

    phi: float
    F_chi: float
    F_av: float
    F_min: float
    P_av: float
    P_min: float
    feed_forward_active: bool
    success_probability: float

    def __post_init__(self):
        object.__setattr__(self, "phi", canonical_phase(self.phi))
        slack = 1e-10
        for name in ("F_chi", "F_av", "F_min", "P_av", "P_min", "success_probability"):
            v = getattr(self, name)
            if not (-slack <= v <= 1.0 + slack):
                raise ValueError(f"{name} = {v!r} outside [0, 1]")
        if self.F_min > self.F_av + slack or self.P_min > self.P_av + slack:
            raise ValueError("minimum merit exceeds its average")


def merit_report(chi, output_states, phi: float, feed_forward_active: bool,
                 success_probability: float) -> MeritReport:
    """Score one process and its six output states, in the input order {0, 1, +, -, +i, -i}, each against
    ``U(phi)|psi_in>`` at the commanded phase, not any jittered one: the one-row case of :func:`merit_reports`."""
    return merit_reports([chi], [output_states], [phi], feed_forward_active, success_probability)[0]


def merit_reports(chis, output_states, phis, feed_forward_active: bool,
                  success_probability: float) -> list[MeritReport]:
    """:func:`merit_report` of each phase in ``phis``, one Choi matrix and six states each, in one array pass.

    With ``|w> = |00> + e^{i phi} |11>``, ``F_chi = <w| chi |w> / (2 Tr chi)``.
    """
    if any(len(states) != len(STATE_LABELS) for states in output_states):
        raise ValueError(f"expected {len(STATE_LABELS)} output states per phase")
    rhos = np.asarray(output_states, dtype=complex)
    phases = np.exp(1j * np.asarray(phis, dtype=float))
    kets = np.array([ket(label) for label in STATE_LABELS])
    targets = np.stack(np.broadcast_arrays(kets[:, 0], phases[:, None] * kets[:, 1]), axis=-1)  # U(phi)|psi_in>
    fidelities = np.einsum("psi,psij,psj->ps", targets.conj(), rhos, targets).real
    purities = np.einsum("psij,psji->ps", rhos, rhos).real
    w = np.zeros((len(phases), CHOI_DIM), dtype=complex)
    w[:, 0], w[:, 3] = 1.0, phases
    chis = np.asarray(chis, dtype=complex)
    f_chi = np.einsum("pi,pij,pj->p", w.conj(), chis, w).real / (2.0 * np.trace(chis, axis1=1, axis2=2).real)
    rows = zip(f_chi.tolist(), fidelities.mean(axis=1).tolist(), fidelities.min(axis=1).tolist(),
               purities.mean(axis=1).tolist(), purities.min(axis=1).tolist())
    return [MeritReport(phi, *row, feed_forward_active, success_probability) for phi, row in zip(phis, rows)]


def write_merit_csv(path, reports) -> None:
    """Serialize report rows; flag column is 1/0, numbers at 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(MERIT_CSV_HEADER + "\n")
        for r in reports:
            f.write(
                f"{format_phase(r.phi)},{r.F_chi:.9g},{r.F_av:.9g},{r.F_min:.9g},"
                f"{r.P_av:.9g},{r.P_min:.9g},{int(r.feed_forward_active)},{r.success_probability:.9g}\n"
            )


def read_merit_csv(path):
    """Load rows written by :func:`write_merit_csv`."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != MERIT_CSV_HEADER:
            raise DataFormatError(f"bad merit CSV header: expected {MERIT_CSV_HEADER!r}, got {header!r}")
        reports = []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise DataFormatError(f"line {lineno}: expected 8 fields, got {len(parts)}")
            if parts[6] not in ("0", "1"):
                raise DataFormatError(f"line {lineno}: feed_forward_active must be 0 or 1, got {parts[6]!r}")
            try:  # phi, F_chi, F_av, F_min, P_av, P_min, feed_forward_active, success_probability
                reports.append(MeritReport(*(float(x) for x in parts[:6]), parts[6] == "1", float(parts[7])))
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
    return reports


def format_merit_table(reports) -> str:
    """Human-readable table, one block per feed-forward variant."""
    lines = []
    for active in (True, False):
        rows = [r for r in reports if r.feed_forward_active == active]
        if not rows:
            continue
        label = "with feed forward" if active else "without feed forward"
        lines.append(f"{label} (success probability {rows[0].success_probability:.3f})")
        lines.append(f"{'phi':>10}  {'F_chi':>7}  {'F_av':>7}  {'F_min':>7}  {'P_av':>7}  {'P_min':>7}")
        for r in sorted(rows, key=lambda r: r.phi):
            lines.append(
                f"{r.phi:10.6f}  {r.F_chi:7.4f}  {r.F_av:7.4f}  {r.F_min:7.4f}  {r.P_av:7.4f}  {r.P_min:7.4f}"
            )
        lines.append("")
    gap = max_feedforward_gap(reports)
    if gap is not None:
        value, phi = gap
        lines.append(f"max |F_chi(with FF) - F_chi(without FF)| = {value:.6f} at phi = {phi:.6f}")
    return "\n".join(lines) + "\n"


def max_feedforward_gap(reports):
    """Largest per-phase |Delta F_chi| between the two analyses, or None.

    Only phases present in both variants enter the comparison.
    """
    with_ff = {r.phi: r.F_chi for r in reports if r.feed_forward_active}
    without_ff = {r.phi: r.F_chi for r in reports if not r.feed_forward_active}
    common = sorted(set(with_ff) & set(without_ff))
    if not common:
        return None
    gaps = [(abs(with_ff[p] - without_ff[p]), p) for p in common]
    return max(gaps)

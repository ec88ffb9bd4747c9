"""Output checks that do not depend on the random stream.

Nothing here pins a per-seed value: every check is a property any
correct run has (physical matrices, converged fits, a certified
likelihood optimum, fidelity bands from the acceptance criteria, exact
file round trips).
"""

from __future__ import annotations

import numpy as np

from phasegate.experiment import rescale_efficiencies, select_without_feedforward
from phasegate.metrics import read_merit_csv
from phasegate.pipeline import reports_from_reconstruction
from phasegate.states import BASIS_LABELS, BASIS_OUTCOMES, projector
from phasegate.tomography import settings_for_phase, state_basis_counts

#: Certified log-likelihood gaps, in nats.  Over 32,200 calibrated process
#: fits the seed's RrhoR stop leaves a median gap of 7e-6 and a 99.9th
#: percentile of 4e-4, but single slow fits reach 5.7e-2 (seed 1816, ff,
#: phase pi, 12,144 iterations).  Stopping RrhoR at a 0.1-nat gap costs
#: 1-F_chi ~ 4.8e-5 against 2.4e-7.  So one fit may reach GAP_BOUND_NATS,
#: which only a fit far off its optimum exceeds, and the median fit of a
#: round must stay under GAP_MEDIAN_BOUND_NATS, the stop that ROADMAP item 3
#: proposes: a looser stop moves the median first.
GAP_BOUND_NATS = 1.0
GAP_MEDIAN_BOUND_NATS = 1e-3
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-8
#: Merit values read back from files carry 15 (matrices) or 9 (report.csv) digits.
FILE_RTOL = 1e-9
REPORT_CSV_RTOL = 1e-8


def certified_gap(m, operators, counts, trace: float) -> float:
    """Upper bound on ``max L - L(m)`` in nats, from concavity of the log-likelihood.

    With ``f_k = n_k / N`` and ``p_k = Tr[m E_k] / (Tr[m] / trace)``, the
    gradient operator is ``R = sum f_k / p_k E_k`` over nonzero counts
    and ``Tr[R m] = 1``.  For every feasible ``m*`` (PSD, ``Tr = trace``)
    concavity gives ``L(m*) - L(m) <= N (Tr[R m*] - 1) <= N (trace *
    lambda_max(R) - 1)`` (Glancy, Knill & Girard, NJP 14, 095017, 2012).
    """
    counts = np.asarray(counts, dtype=float)
    keep = counts > 0
    ops = np.asarray(operators)[keep]
    n = counts[keep]
    total = n.sum()
    m = np.asarray(m, dtype=complex)
    p = np.einsum("kij,ji->k", ops, m).real / (np.trace(m).real / trace)
    if np.any(p <= 0.0):
        return float("inf")
    r = np.einsum("k,kij->ij", (n / total) / p, ops)
    lam = float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1])
    return float(total * (trace * lam - 1.0))


def process_gap(chi, settings) -> float:
    ops = np.stack([s.operator for s in settings])
    counts = [s.count for s in settings]
    return certified_gap(chi, ops, counts, 2.0)


def state_gap(rho, basis_counts) -> float:
    ops = np.stack([projector(label) for b in BASIS_LABELS for label in BASIS_OUTCOMES[b]])
    counts = [c for b in BASIS_LABELS for c in basis_counts[b]]
    return certified_gap(rho, ops, counts, 1.0)


class Audit:
    """Exact counts and problems found in one op's outputs."""

    def __init__(self):
        self.counts = {
            "events": 0, "process_fits": 0, "process_iters": 0, "process_iters_max": 0,
            "state_fits": 0, "state_iters": 0, "state_iters_max": 0, "diluted_steps": 0,
            "converged": 0, "csv_rows": 0, "csv_bytes": 0, "files_written": 0, "bytes_written": 0,
        }
        self.gaps: list[float] = []
        self.problems: list[str] = []
        #: seed_sweep only: per-phase F_chi keyed by feed forward on/off.
        self.fidelities: dict[bool, list[float]] | None = None

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def _fit(self, kind: str, rec, matrix, trace: float, gap: float, where: str) -> None:
        c = self.counts
        c[f"{kind}_fits"] += 1
        c[f"{kind}_iters"] += rec.iterations
        c[f"{kind}_iters_max"] = max(c[f"{kind}_iters_max"], rec.iterations)
        c["diluted_steps"] += rec.likelihood_decreases
        c["converged"] += int(rec.converged)
        self.require(rec.converged, f"{where}: fit did not converge")
        w = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
        self.require(w[0] >= -PSD_ATOL, f"{where}: negative eigenvalue {w[0]:.3e}")
        tr = float(np.trace(matrix).real)
        self.require(abs(tr - trace) <= TRACE_ATOL, f"{where}: trace {tr!r}, expected {trace}")
        self.gaps.append(gap)
        self.require(gap <= GAP_BOUND_NATS, f"{where}: certified gap {gap:.3e} nats > {GAP_BOUND_NATS:g}")

    def process_fit(self, rec, settings, where: str) -> None:
        self._fit("process", rec, rec.choi, 2.0, process_gap(rec.choi, settings), where)

    def state_fit(self, rec, basis_counts, where: str) -> None:
        self._fit("state", rec, rec.rho, 1.0, state_gap(rec.rho, basis_counts), where)

    def reconstruction_set(self, rs, table, noise) -> None:
        """Check every fit of a :class:`ReconstructionSet` made from ``table``."""
        analyzed = table if rs.feed_forward else select_without_feedforward(table)
        rescaled = rescale_efficiencies(analyzed, noise)
        tag = "ff" if rs.feed_forward else "noff"
        for pi, proc in enumerate(rs.processes):
            self.process_fit(proc, settings_for_phase(rescaled, pi), f"{tag} process p{pi}")
            for si, sres in enumerate(rs.output_states[pi]):
                self.state_fit(sres, state_basis_counts(rescaled, pi, si), f"{tag} state p{pi} s{si}")


def gap_median_problems(gaps) -> list[str]:
    """Round-level guard: the median certified gap over all fits of a round."""
    if not gaps:
        return []
    m = float(np.median(gaps))
    return [] if m <= GAP_MEDIAN_BOUND_NATS else [
        f"median certified gap {m:.3e} nats over {len(gaps)} fits > {GAP_MEDIAN_BOUND_NATS:g}"]


def same_reports(a, b, rtol: float) -> bool:
    """Reports agree row by row to relative precision ``rtol``."""
    if len(a) != len(b):
        return False
    key = lambda r: (r.feed_forward_active, r.phi)
    for x, y in zip(sorted(a, key=key), sorted(b, key=key)):
        if x.feed_forward_active != y.feed_forward_active:
            return False
        for name in ("phi", "F_chi", "F_av", "F_min", "P_av", "P_min", "success_probability"):
            u, v = getattr(x, name), getattr(y, name)
            if abs(u - v) > rtol * max(1.0, abs(u), abs(v)):
                return False
    return True


def check_staged_files(audit: Audit, simulated, loaded, recon_sets, collected, report_csv) -> None:
    """Round trips of the staged file path.

    The parsed count table equals the simulated one (counts exactly,
    phases to the 12 significant digits of the CSV); the reports that
    ``collect_reports`` rebuilds from the written matrices equal the
    in-memory reports to file precision; ``report.csv`` reads back to
    the same rows.
    """
    audit.require(loaded.input_states == simulated.input_states and loaded.bases == simulated.bases,
                  "counts CSV round trip changed the state or basis labels")
    audit.require(len(loaded.phases) == len(simulated.phases)
                  and all(float(f"{p:.12g}") == q for p, q in zip(simulated.phases, loaded.phases)),
                  "counts CSV round trip changed the phases")
    audit.require(loaded.counts.shape == simulated.counts.shape
                  and np.array_equal(loaded.counts, simulated.counts),
                  "counts CSV round trip changed the counts")
    in_memory = [row for rs in recon_sets for row in reports_from_reconstruction(rs)]
    audit.require(same_reports(collected, in_memory, FILE_RTOL),
                  "collect_reports differs from the in-memory reports")
    audit.require(same_reports(read_merit_csv(report_csv), in_memory, REPORT_CSV_RTOL),
                  "report.csv does not read back to the in-memory reports")

"""Synthetic coincidence-count generation under a configurable noise model.

This module turns the noiseless gate physics into the numbers an actual
two-photon experiment records: coincidence counts between one program
detector (D_p0 for the ``+`` outcome, D_p1 for ``-``) and one data
detector (D_d0/D_d1 for the two outcomes of the chosen analysis basis),
accumulated over repeated fixed-length intervals.

The simulated apparatus is the corrected one.  The feed forward leaves
both program branches in the gate output ``U(phi)|psi_in>``, each with
probability 1/2, so :func:`outcome_probabilities` writes the detector
rates in closed form rather than replaying collapse and correction (the
step-by-step physics is in :mod:`phasegate.gate`).  Noise model:

* interference visibility scales the coherence of the data qubit's
  output density matrix once;
* phase jitter perturbs the programmed phase by a fresh zero-mean
  Gaussian draw per setting and interval (one stabilization cycle);
* detector efficiencies multiply each branch's pair rate;
* accidental dark coincidences add rate ``dark_i * dark_j * window``
  per detector pair.

The analysis without feed forward is obtained afterwards by discarding
the D_p1 records (:func:`select_without_feedforward`), exactly as one
would post-select on the lab dataset.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import pathlib
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .gate import POSTSELECTION_PROBABILITY, canonical_phase
from .states import BASIS_LABELS, STATE_LABELS, as_state, require_normalized

PROGRAM_DETECTORS = ("D_p0", "D_p1")
DATA_DETECTORS = ("D_d0", "D_d1")

#: Default experiment grid: the seven programmed phases used throughout.
DEFAULT_PHASES = tuple(
    float(p) for p in (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi)
)

CSV_HEADER = "phase,input_state,basis,program_detector,data_detector,interval,count"
_STRING = np.dtypes.StringDType()
_COMMA = np.array(",", dtype=_STRING)
#: The label columns of a count CSV after the phase, with their allowed values.
_LABELS = (("input_state", STATE_LABELS), ("basis", BASIS_LABELS),
           ("program_detector", PROGRAM_DETECTORS), ("data_detector", DATA_DETECTORS))

# Sub-seed tag so different pipeline stages never share a random stream.
_STAGE_SIMULATE = zlib.crc32(b"simulate")


@dataclass(frozen=True)
class NoiseConfig:
    """Detector, source and interferometer imperfections.

    All rates are per second; efficiencies and visibility are
    dimensionless in [0, 1]; ``phase_sigma`` is radians.  ``dark_quad``
    is the dark rate shared by the three quadrant-style detectors
    (D_p0, D_d0, D_d1); D_p1 has its own ``dark_single`` rate.
    """

    eta_p0: float = 1.0
    eta_d0: float = 1.0
    eta_d1: float = 1.0
    eta_p1: float = 1.0
    dark_quad: float = 0.0
    dark_single: float = 0.0
    visibility: float = 1.0
    phase_sigma: float = 0.0
    pair_rate: float = 1000.0
    interval_s: float = 3.0
    n_intervals: int = 12
    coincidence_window: float = 10e-9

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):  # JSON true/false would pass the checks below as 1/0
                raise ConfigError(f"{f.name} must be a number, got {v!r}")
        for name in ("eta_p0", "eta_d0", "eta_d1", "eta_p1", "visibility"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("dark_quad", "dark_single", "phase_sigma", "pair_rate", "interval_s", "coincidence_window"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= sys.float_info.max):
                raise ConfigError(f"{name} must be a finite non-negative number, got {v!r}")
        if not (isinstance(self.n_intervals, int) and self.n_intervals >= 1):
            raise ConfigError(f"n_intervals must be an integer >= 1, got {self.n_intervals!r}")


def ideal_noise(**overrides) -> NoiseConfig:
    """Loss-free, dark-free, perfectly stable configuration."""
    return NoiseConfig(**overrides)


def calibrated_noise(**overrides) -> NoiseConfig:
    """Preset tuned to a realistic bench.

    Efficiencies 0.55 (quad-coupled detectors) and 0.50 (D_p1), dark
    rates 400 and 180 counts/s, phase settling bound pi/200.  The
    visibility is the one free knob, set to 0.95 so the reconstructed
    process fidelity lands near 0.975, inside the 0.96-0.99 target band.
    """
    cfg = NoiseConfig(
        eta_p0=0.55,
        eta_d0=0.55,
        eta_d1=0.55,
        eta_p1=0.50,
        dark_quad=400.0,
        dark_single=180.0,
        visibility=0.95,
        phase_sigma=np.pi / 200,
    )
    return dataclasses.replace(cfg, **overrides)


def _validate_axes(obj, error) -> None:
    """Store the phases (canonical), input states and bases of ``obj`` as tuples; a faulty axis raises ``error``."""
    for name in ("phases", "input_states", "bases"):
        value = getattr(obj, name)
        if not isinstance(value, (list, tuple)):
            raise error(f"{name} must be a list, got {value!r}")
        object.__setattr__(obj, name, tuple(value))
    if len(obj.phases) == 0:
        raise error("phases must be non-empty")
    for p in obj.phases:
        # JSON true/false would pass as 1/0; NaN, infinities and ints beyond float range fail the bound.
        if isinstance(p, bool) or not (isinstance(p, (int, float)) and abs(p) <= sys.float_info.max):
            raise error(f"phases entries must be finite numbers, got {p!r}")
    object.__setattr__(obj, "phases", tuple(canonical_phase(p) for p in obj.phases))
    if len(set(obj.phases)) != len(obj.phases):
        raise error("phases contains duplicates after canonicalization")
    for name, allowed in (("input_states", STATE_LABELS), ("bases", BASIS_LABELS)):
        values = getattr(obj, name)
        if not values or not all(v in allowed for v in values) or len(set(values)) != len(values):
            raise error(f"{name} must be distinct entries of {allowed}, got {values!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Which settings to measure: programmed phases, inputs and bases."""

    phases: tuple[float, ...] = DEFAULT_PHASES
    input_states: tuple[str, ...] = STATE_LABELS
    bases: tuple[str, ...] = BASIS_LABELS

    def __post_init__(self):
        _validate_axes(self, ConfigError)


@dataclass
class CountTable:
    """Coincidence counts on a dense (phase, state, basis, D_p, D_d, interval) grid.

    ``counts`` has shape (n_phases, n_states, n_bases, 2, 2, n_intervals)
    with the program-detector axis ordered (D_p0, D_p1) and the data
    axis (D_d0, D_d1).  Entries are floats so that efficiency-rescaled
    tables fit the same container; raw simulated tables hold integers.
    Every index combination exists by construction, zeros included.
    Its axes obey :class:`ExperimentPlan`'s rules, phases canonical, or raise :class:`DataFormatError`.
    """

    phases: tuple[float, ...]
    input_states: tuple[str, ...]
    bases: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        _validate_axes(self, DataFormatError)
        expected = (len(self.phases), len(self.input_states), len(self.bases), 2, 2)
        c = np.asarray(self.counts, dtype=float)
        if c.ndim != 6 or c.shape[:5] != expected:
            raise DataFormatError(f"counts shape {c.shape} does not match index space {expected} + intervals")
        if c.shape[5] < 1:
            raise DataFormatError("count table needs at least one interval")
        if np.any(~np.isfinite(c)) or np.any(c < 0):
            raise DataFormatError("counts must be finite and non-negative")
        self.counts = c

    @property
    def n_intervals(self) -> int:
        return self.counts.shape[5]

    def total(self) -> float:
        return float(self.counts.sum())

    def to_csv(self, path) -> None:
        """Write the table as a count CSV: UTF-8 with no byte-order mark, LF line endings.

        Records follow the C order of the ``(phase, state, basis, D_p, D_d, interval)`` grid, with phases at
        ``.12g``, whole counts as integers and other counts at ``.12g``.  Two phases that do not differ in their
        first 12 significant digits would read back as one: they raise :class:`DataFormatError` before any record.
        """
        spellings = [f"{phi:.12g}" for phi in self.phases]
        first: dict[float, int] = {}  # phase read back -> index of the first phase that writes it
        for i, s in enumerate(spellings):
            if (j := first.setdefault(phi := _phase(s), i)) != i:
                raise DataFormatError(f"phases {self.phases[j]!r} and {self.phases[i]!r} both read back as {phi!r}")
        n, tails = self.n_intervals, [f",{t}," for t in range(self.n_intervals)]
        values, index = np.unique(self.counts.ravel(), return_inverse=True)  # each distinct count is formatted once
        formatted = [_format_count(c) for c in values.tolist()]
        fields = list(map(formatted.__getitem__, index.tolist()))
        keys = itertools.product(spellings, self.input_states, self.bases, PROGRAM_DETECTORS, DATA_DETECTORS)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(CSV_HEADER + "\n")
            for k, prefix in enumerate(map(",".join, keys)):
                f.write(prefix + ("\n" + prefix).join(map(operator.add, tails, fields[k * n:(k + 1) * n])) + "\n")

    @classmethod
    def from_csv(cls, path) -> "CountTable":
        """Read a UTF-8 count CSV with the :data:`CSV_HEADER` columns.

        Rows may come in any order.  Blank lines and a leading byte-order
        mark are skipped, and CRLF or CR line endings read as LF.
        Spellings of one phase modulo 2*pi (``0``, ``0.0``,
        ``6.283185307179586``) merge into one phase.
        Phases, input states and bases keep the order in which they first
        appear.  Intervals and counts are read as Python's ``int`` and
        ``float`` read them.  Each (phase, state, basis, detector pair)
        needs exactly one record for every interval ``0 .. n-1``.

        Raises :class:`DataFormatError` on a file that is not UTF-8, a
        bad header, no records or missing records.  A faulty row is
        reported as the first faulty line, by its number;
        :func:`_first_fault` runs the checks of one line, in order.
        """
        try:
            text = pathlib.Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"count CSV is not UTF-8: {exc.reason} at byte {exc.start}") from None
        text = text.removeprefix("\ufeff")  # the byte-order mark that Excel writes
        if "\r" in text:  # universal newlines, as text-mode reading applies them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.rstrip("\n").split("\n")
        del text
        if lines[0] != CSV_HEADER:
            raise DataFormatError(f"bad count CSV header: expected {CSV_HEADER!r}, got {lines[0]!r}")
        body = np.array(lines[1:], dtype=_STRING)  # blank lines included, so that line numbers hold
        del lines

        def rejection(missing=None):  # a faulty line is named before any missing records are counted
            return DataFormatError(_first_fault(body) or f"count CSV is missing {missing} records"
                                   " (index coverage incomplete)")

        rows = body[body != ""] if (body == "").any() else body
        if len(rows) == 0:
            raise DataFormatError("count CSV contains no records")
        head, _, count_s = np.strings.rpartition(rows, _COMMA)
        prefix, _, interval_s = np.strings.rpartition(head, _COMMA)
        del rows, head

        # Code each row by its first five fields; runs of equal prefixes are looked up once.
        runs = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1])))
        codes: dict[str, int] = {}
        run_code = [codes.setdefault(p, len(codes)) for p in prefix[runs].tolist()]
        code = np.repeat(run_code, np.diff(runs, append=len(prefix)))
        del prefix, runs, run_code

        # Index each distinct prefix once; phases, states and bases keep their order of first appearance.
        canonical, states, bases = {}, {}, {}  # canonical phase, state, basis -> index
        index = []  # (phase, state, basis, det_p, det_d) indices of each prefix
        for p in codes:
            phase_s, *labels = p.split(",")
            if len(labels) != 4 or any(v not in ok for v, (_, ok) in zip(labels, _LABELS)):
                raise rejection()
            if (phi := _phase(phase_s)) is None:
                raise rejection()
            state, basis, det_p, det_d = labels
            index.append((canonical.setdefault(phi, len(canonical)), states.setdefault(state, len(states)),
                          bases.setdefault(basis, len(bases)), PROGRAM_DETECTORS.index(det_p),
                          DATA_DETECTORS.index(det_d)))
        try:
            interval = interval_s.astype(np.int64)
            count = count_s.astype(np.float64)
        except (ValueError, OverflowError):
            raise rejection() from None
        if not ((interval >= 0) & np.isfinite(count) & (count >= 0)).all():
            raise rejection()

        shape = (len(canonical), len(states), len(bases), 2, 2)
        n_intervals = int(interval.max()) + 1
        missing = math.prod(shape) * n_intervals - len(count)
        if missing:
            raise rejection(missing)
        # Coverage is exact, so every flat index lies below len(count), and a duplicate leaves a hole.
        setting = np.ravel_multi_index(np.array(index, dtype=np.intp).T, shape)[code]
        counts = np.full(len(count), np.nan)
        counts[setting * n_intervals + interval] = count
        if np.isnan(counts).any():
            raise rejection()
        return cls(tuple(canonical), tuple(states), tuple(bases), counts.reshape(shape + (n_intervals,)))


def _phase(s: str) -> float | None:
    """The canonical phase that a CSV phase field spells, or None if it is no finite number."""
    try:
        phi = float(s)
    except ValueError:
        return None
    return canonical_phase(phi) if math.isfinite(phi) else None


def _first_fault(body) -> str | None:
    """The first faulty line of a count CSV body (the lines after the header, blanks included), or None.

    Each non-blank line is checked in this order: field count, phase,
    labels, interval/count syntax, negative interval, bad count, interval
    beyond int64, duplicate (phase, labels, interval) key.
    """
    phases: dict[float, int] = {}
    keys: set[tuple] = set()
    for lineno, line in enumerate(body.tolist(), start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 7:
            return f"line {lineno}: expected 7 fields, got {len(fields)}"
        phase_s, *labels, interval_s, count_s = fields
        if (phi := _phase(phase_s)) is None:
            return f"line {lineno}: bad phase {phase_s!r}"
        for v, (name, ok) in zip(labels, _LABELS):
            if v not in ok:
                return f"line {lineno}: unknown {name} {v!r}"
        try:
            interval, count = int(interval_s), float(count_s)
        except ValueError:
            return f"line {lineno}: bad interval/count {interval_s!r},{count_s!r}"
        if interval < 0:
            return f"line {lineno}: negative interval {interval}"
        if not math.isfinite(count) or count < 0:
            return f"line {lineno}: bad count {count_s!r}"
        if interval > np.iinfo(np.int64).max:
            return f"line {lineno}: interval {interval} out of range"
        key = (phases.setdefault(phi, len(phases)), *labels, interval)
        if key in keys:
            return f"line {lineno}: duplicate record for {key}"
        keys.add(key)
    return None


def _format_count(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return format(float(c), ".12g")


def outcome_probabilities(psi_in, phi, basis: str, noise: NoiseConfig):
    """Detector-pair click probabilities for one setting, in closed form.

    Returns ``(probs, total_rate)``: ``probs`` is the 2x2 array over
    (program_detector, data_detector), normalized to sum 1, and
    ``total_rate`` the pre-normalization coincidence rate in counts per
    second (signal plus accidentals).  ``total_rate`` has the shape of
    ``phi``, 0-d for a scalar phase, and ``probs`` that shape + ``(2, 2)``.

    The feed forward leaves both program branches, each taken with
    probability 1/2, in the gate output ``(alpha, beta e^{i phi})``, whose
    coherence ``rho_10 = V conj(alpha) beta e^{i phi}`` is damped once by
    the visibility ``V``.  Along the basis axis its Bloch component is
    ``|alpha|^2 - |beta|^2`` (Z), ``2 Re rho_10`` (X) or ``2 Im rho_10``
    (Y), and D_d0/D_d1 click with probability ``(1 +- r)/2``.
    """
    if basis not in BASIS_LABELS:
        raise ConfigError(f"unknown basis {basis!r}")
    alpha, beta = require_normalized(as_state(psi_in))
    phi = np.asarray(phi, dtype=float)
    rho10 = noise.visibility * np.conj(alpha) * beta * np.exp(1j * phi)
    if basis == "Z":
        r = np.full(phi.shape, abs(alpha) ** 2 - abs(beta) ** 2)
    else:
        r = 2.0 * (rho10.real if basis == "X" else rho10.imag)
    q = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0], axis=-1)[..., None, :]
    eta = np.outer((noise.eta_p0, noise.eta_p1), (noise.eta_d0, noise.eta_d1))  # (program, data)
    signal = noise.pair_rate * POSTSELECTION_PROBABILITY * 0.5 * eta
    dark = np.outer((noise.dark_quad, noise.dark_single), (noise.dark_quad, noise.dark_quad)) * noise.coincidence_window
    rate = signal * q + dark
    total_rate = rate.sum(axis=(-2, -1))
    total = total_rate[..., None, None]
    # Degenerate configs (zero pair rate and zero darks) still need a distribution.
    probs = np.divide(rate, total, out=np.full(rate.shape, 0.25), where=total > 0.0)
    return probs, total_rate


def simulate_counts(plan: ExperimentPlan, noise: NoiseConfig, seed: int) -> CountTable:
    """Draw a full synthetic coincidence dataset; deterministic in ``seed``.

    Each setting has its own generator, seeded by ``(seed, stage, phase
    index, state index, basis index)``, and draws one Gaussian phase jitter
    per interval, then one Poisson total per interval with mean
    ``total_rate * interval_s`` at the jittered phase, then one multinomial
    split of each total over the four detector pairs.  One
    :func:`outcome_probabilities` call per (state, basis) pair serves the
    settings of every phase.
    """
    shape = (len(plan.phases), len(plan.input_states), len(plan.bases), 2, 2, noise.n_intervals)
    counts = np.zeros(shape, dtype=float)
    for si, label in enumerate(plan.input_states):
        for bi, basis in enumerate(plan.bases):
            rngs = [np.random.default_rng((int(seed), _STAGE_SIMULATE, pi, si, bi)) for pi in range(len(plan.phases))]
            phi_t = [phi + rng.normal(0.0, noise.phase_sigma, noise.n_intervals) for phi, rng in zip(plan.phases, rngs)]
            probs, total_rate = outcome_probabilities(label, phi_t, basis, noise)
            for pi, rng in enumerate(rngs):
                n = rng.poisson(total_rate[pi] * noise.interval_s)
                counts[pi, si, bi] = rng.multinomial(n, probs[pi].reshape(-1, 4)).T.reshape(2, 2, -1)
    return CountTable(plan.phases, plan.input_states, plan.bases, counts)


def rescale_efficiencies(counts: CountTable, noise: NoiseConfig) -> CountTable:
    """Divide each record by its detector-pair efficiency product.

    Removes the detector-dependent bias so relative rates across pairs
    reflect the physics alone.  The result is real-valued.
    """
    for name in ("eta_p0", "eta_p1", "eta_d0", "eta_d1"):
        if getattr(noise, name) <= 0.0:
            raise ConfigError(f"{name} must be positive to rescale counts, got {getattr(noise, name)!r}")
    weight = np.outer((noise.eta_p0, noise.eta_p1), (noise.eta_d0, noise.eta_d1))  # (program, data)
    rescaled = counts.counts / weight[None, None, None, :, :, None]
    return CountTable(counts.phases, counts.input_states, counts.bases, rescaled)


def select_without_feedforward(counts: CountTable) -> CountTable:
    """Keep only D_p0 coincidences, zeroing the corrected D_p1 branch.

    This reproduces the analysis in which no corrective action is taken
    and the success probability halves from 1/2 to 1/4.  Index coverage
    is preserved; the discarded records are stored as explicit zeros.
    """
    kept = counts.counts.copy()
    kept[:, :, :, 1, :, :] = 0.0
    return CountTable(counts.phases, counts.input_states, counts.bases, kept)


def usable_fraction(counts: CountTable, noise: NoiseConfig) -> float:
    """Fraction of generated pairs that end up in the analyzed records.

    Computed against ``pair_rate * interval_s * n_intervals`` generated
    pairs per setting.  On an efficiency-rescaled table this estimates
    the gate's success probability (1/2 with feed forward, 1/4 after
    :func:`select_without_feedforward`).
    """
    n_settings = len(counts.phases) * len(counts.input_states) * len(counts.bases)
    generated = noise.pair_rate * noise.interval_s * counts.n_intervals * n_settings
    if generated <= 0:
        raise ConfigError("pair_rate and interval_s must be positive to compute a usable fraction")
    return counts.total() / generated

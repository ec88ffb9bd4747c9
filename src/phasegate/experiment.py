"""Synthetic coincidence-count generation under a configurable noise model.

This module turns the noiseless gate physics into the numbers an actual
two-photon experiment records: coincidence counts between one program
detector (D_p0 for the ``+`` outcome, D_p1 for ``-``) and one data
detector (D_d0/D_d1 for the two outcomes of the chosen analysis basis),
accumulated over repeated fixed-length intervals.

The simulated apparatus is the corrected one.  The feed forward leaves
both program branches in the gate output ``U(phi)|psi_in>``, each with
probability 1/2, so :func:`_pair_rates` writes the detector rates in
closed form rather than replaying collapse and correction (the
step-by-step physics is in :mod:`phasegate.gate`).  Noise model:

* interference visibility scales the coherence of the data qubit's
  output density matrix once;
* phase jitter perturbs the programmed phase by a fresh zero-mean
  Gaussian draw per setting and interval (one stabilization cycle);
* detector efficiencies multiply each branch's pair rate;
* accidental dark coincidences add rate ``dark_i * dark_j * window``
  per detector pair;
* each record is an independent Poisson count whose mean is its
  detector pair's rate times ``interval_s``; :func:`simulate_counts`
  draws a whole dataset from one generator.

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
from .gate import POSTSELECTION_PROBABILITY, ProgramOutcome, canonical_phase, format_phase
from .states import BASIS_LABELS, STATE_LABELS, as_state, require_normalized

PROGRAM_DETECTORS = tuple(outcome.value for outcome in ProgramOutcome)
DATA_DETECTORS = ("D_d0", "D_d1")

#: Default experiment grid: the seven programmed phases used throughout.
DEFAULT_PHASES = tuple(float(p) for p in (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi))

CSV_HEADER = "phase,input_state,basis,program_detector,data_detector,interval,count"
_POW10 = 10 ** np.arange(16, dtype=np.int64)  # exact as doubles too
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
    cfg = NoiseConfig(eta_p0=0.55, eta_d0=0.55, eta_d1=0.55, eta_p1=0.50, dark_quad=400.0, dark_single=180.0,
                      visibility=0.95, phase_sigma=np.pi / 200)
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

        Records follow the C order of the ``(phase, state, basis, D_p, D_d, interval)`` grid, phases as
        :func:`format_phase` spells them, whole counts as integers and other counts at ``.12g``.  Two phases alike in
        their first 12 significant digits would read back as one: they raise :class:`DataFormatError` before any record.
        """
        spellings = [format_phase(p) for p in self.phases]
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

        Rows may come in any order.  Blank lines and a leading byte-order mark are skipped, and CRLF or CR line
        endings read as LF.  Spellings of one phase modulo 2*pi (``0``, ``0.0``, ``6.283185307179586``) merge into
        one phase.  Phases, input states and bases keep the order in which they first appear.  Intervals and counts
        are read as Python's ``int`` and ``float`` read them.  Each (phase, state, basis, detector pair) needs
        exactly one record for every interval ``0 .. n-1``.

        Raises :class:`DataFormatError` on a file that is not UTF-8, a bad header, no records or missing records.
        A faulty row is reported as the first faulty line, by its number; :func:`_first_fault` runs the checks of
        one line, in order.

        Cost: the file is tokenized as one byte array; intervals and whole counts are read in bulk, and other counts
        through ``float`` one by one (:func:`_numbers`).
        The phase and labels are decoded and checked once per run of lines with equal first five fields, so a file
        in written order pays Python work per setting, and one with shuffled rows per row.
        """
        data = pathlib.Path(path).read_bytes()
        if not data.isascii():
            try:
                data = data.decode("utf-8").removeprefix("\ufeff").encode()  # the byte-order mark that Excel writes
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"count CSV is not UTF-8: {exc.reason} at byte {exc.start}") from None
        if b"\r" in data:  # universal newlines, as text-mode reading applies them
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        buf = np.frombuffer(data, np.uint8)
        newline = np.append(np.flatnonzero(buf == ord("\n")), len(data))  # the last line ends at the end of the file
        head = int(newline[0])
        if data[:head] != CSV_HEADER.encode():
            raise DataFormatError(f"bad count CSV header: expected {CSV_HEADER!r}, got {data[:head].decode()!r}")

        def rejection(missing=None):  # a faulty line is named before any missing records are counted
            return DataFormatError(_first_fault(data[head + 1:].decode().split("\n"))
                                   or f"count CSV is missing {missing} records (index coverage incomplete)")

        start, end = newline[:-1] + 1, newline[1:]  # the lines after the header
        start, end = start[start < end], end[start < end]  # blank lines dropped
        if len(start) == 0:
            raise DataFormatError("count CSV contains no records")
        # Six commas per line in all, and each line's six within it: then every line holds exactly six.
        comma = np.flatnonzero(buf == ord(","))[CSV_HEADER.count(","):]
        if len(comma) != 6 * len(start) or not ((comma[0::6] >= start) & (comma[5::6] < end)).all():
            raise rejection()
        comma = comma.reshape(-1, 6)

        # Code rows by their first five fields, one lookup per run of equal prefixes.  Neighbours of one length compare
        # 8 bytes at a time, the last load ending at the prefix end; under 8 bytes it also holds bytes before the line,
        # which can only split a run.
        words = np.ndarray((len(buf) - 7,), "<u8", data, strides=(1,))  # an unaligned load at every offset
        last = comma[:, 4] - 8  # where the last load of each prefix starts
        same = np.diff(last - start) == 0
        for k in range(0, int((last - start).max()) + 8, 8):
            word = words[np.minimum(start + k, last)]
            same &= word[1:] == word[:-1]
        runs = np.flatnonzero(np.concatenate(([True], ~same)))
        codes: dict[bytes, int] = {}
        heads = zip(start[runs].tolist(), comma[runs, 4].tolist())
        code = np.repeat([codes.setdefault(data[a:b], len(codes)) for a, b in heads], np.diff(runs, append=len(start)))

        # Index each distinct prefix once; phases, states and bases keep their order of first appearance.
        canonical, states, bases = {}, {}, {}  # canonical phase, state, basis -> index
        index = []  # (phase, state, basis, det_p, det_d) indices of each prefix
        for p in codes:
            phase_s, *labels = p.decode().split(",")
            if any(v not in ok for v, (_, ok) in zip(labels, _LABELS)) or (phi := _phase(phase_s)) is None:
                raise rejection()
            state, basis, det_p, det_d = labels
            index.append((canonical.setdefault(phi, len(canonical)), states.setdefault(state, len(states)),
                          bases.setdefault(basis, len(bases)), PROGRAM_DETECTORS.index(det_p),
                          DATA_DETECTORS.index(det_d)))
        try:
            interval = _numbers(data, comma[:, 4] + 1, comma[:, 5], int)
            count = _numbers(data, comma[:, 5] + 1, end, float)
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


def _first_fault(lines) -> str | None:
    """The first faulty line of a count CSV body (the lines after the header, blanks included), or None.

    Each non-blank line is checked in this order: field count, phase,
    labels, interval/count syntax, negative interval, bad count, interval
    beyond int64, duplicate (phase, labels, interval) key.
    """
    phases: dict[float, int] = {}
    keys: set[tuple] = set()
    for lineno, line in enumerate(lines, start=2):
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


def _numbers(data: bytes, first, stop, parse) -> np.ndarray:
    """The fields ``data[first:stop]`` as ``parse`` (``int`` or ``float``) reads them, as int64 or float64.

    Fields of 1-15 ASCII digits are read in bulk, one byte place from the right at a time; below 10**15 < 2**53 they
    are exact as doubles too.  Every other spelling goes to ``parse`` one by one.
    """
    buf, width = np.frombuffer(data, np.uint8), stop - first
    value, bulk = np.zeros(len(width), np.int64), (width > 0) & (width <= 15)
    for j in range(min(int(width.max()), 15)):
        digit = (buf[stop - (j + 1)] - ord("0")) * (j < width)  # uint8, so bytes below "0" wrap above 9
        bulk &= digit <= 9
        value += digit * _POW10[j]
    out = value if parse is int else value.astype(float)
    for i in np.flatnonzero(~bulk).tolist():
        out[i] = parse(data[first[i]:stop[i]].decode())
    return out


def _format_count(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return format(float(c), ".12g")


def _pair_rates(alpha, beta, phi, basis: str, noise: NoiseConfig) -> np.ndarray:
    """Coincidence rate per second of each (program, data) detector pair, shape ``phi.shape + (2, 2)``.

    The feed forward leaves both program branches, each taken with probability 1/2, in the gate output
    ``(alpha, beta e^{i phi})``, whose coherence ``rho_10 = V conj(alpha) beta e^{i phi}`` is damped once by the
    visibility ``V``.  Along the basis axis its Bloch component ``r`` is ``|alpha|^2 - |beta|^2`` (Z), ``2 Re rho_10``
    (X) or ``2 Im rho_10`` (Y), and D_d0/D_d1 click with probability ``(1 +- r)/2``.  Efficiencies weight each
    branch's pair rate; accidentals add ``dark_i * dark_j * window``.  The amplitudes broadcast against ``phi``.
    """
    rho10 = noise.visibility * np.conj(alpha) * beta * np.exp(1j * phi)
    z = np.broadcast_to(abs(alpha) ** 2 - abs(beta) ** 2, rho10.shape)
    r = z if basis == "Z" else 2.0 * (rho10.real if basis == "X" else rho10.imag)
    q = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0], axis=-1)[..., None, :]
    eta = np.outer((noise.eta_p0, noise.eta_p1), (noise.eta_d0, noise.eta_d1))  # (program, data)
    signal = noise.pair_rate * POSTSELECTION_PROBABILITY * 0.5 * eta
    dark = np.outer((noise.dark_quad, noise.dark_single), (noise.dark_quad, noise.dark_quad)) * noise.coincidence_window
    return signal * q + dark


def outcome_probabilities(psi_in, phi, basis: str, noise: NoiseConfig):
    """Detector-pair click probabilities for one setting, in closed form (:func:`_pair_rates`).

    Returns ``(probs, total_rate)``: ``probs`` is the 2x2 array over (program_detector, data_detector), normalized
    to sum 1, and ``total_rate`` the pre-normalization coincidence rate in counts per second (signal plus
    accidentals).  ``total_rate`` has the shape of ``phi``, 0-d for a scalar phase, and ``probs`` that shape + (2, 2).
    """
    if basis not in BASIS_LABELS:
        raise ConfigError(f"unknown basis {basis!r}")
    alpha, beta = require_normalized(as_state(psi_in))
    rate = _pair_rates(alpha, beta, np.asarray(phi, dtype=float), basis, noise)
    total_rate = rate.sum(axis=(-2, -1))
    total = total_rate[..., None, None]
    # Degenerate configs (zero pair rate and zero darks) still need a distribution.
    probs = np.divide(rate, total, out=np.full(rate.shape, 0.25), where=total > 0.0)
    return probs, total_rate


def _expected_counts(plan: ExperimentPlan, noise: NoiseConfig, phi: np.ndarray) -> np.ndarray:
    """Mean count of every record, shaped as a table's counts, at the phase ``phi`` of each (phase, state, basis,
    interval): the pair rate times ``interval_s``."""
    alpha, beta = np.array([as_state(label) for label in plan.input_states]).T[..., None]  # (state, 1) each
    rate = np.stack([_pair_rates(alpha, beta, phi[:, :, bi], basis, noise) for bi, basis in enumerate(plan.bases)], 2)
    return np.moveaxis(rate, 3, -1) * noise.interval_s


def simulate_counts(plan: ExperimentPlan, noise: NoiseConfig, seed: int) -> CountTable:
    """Draw a full synthetic coincidence dataset; deterministic in ``seed``.

    One generator, seeded by ``(seed, stage)``, draws the Gaussian phase jitter of every (phase, state, basis,
    interval), then one Poisson count per record in the C order of the table, whose mean :func:`_expected_counts`
    gives at the jittered phase.  A mean above 2**53, where float counts stop being exact integers, raises
    :class:`ConfigError` before any count is drawn.
    """
    rng = np.random.default_rng((int(seed), _STAGE_SIMULATE))
    shape = (len(plan.phases), len(plan.input_states), len(plan.bases), noise.n_intervals)
    phi = np.array(plan.phases)[:, None, None, None] + rng.normal(0.0, noise.phase_sigma, shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a mean that overflows or is undefined is refused below
        mean = _expected_counts(plan, noise, phi)
    if not (mean <= 2.0**53).all():
        raise ConfigError(f"expected counts reach {mean.max():.3g}, above 2**53: lower pair_rate or interval_s")
    return CountTable(plan.phases, plan.input_states, plan.bases, rng.poisson(mean))


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

"""Synthetic coincidence-count generation under a configurable noise model.

This module turns the noiseless gate physics into the numbers an actual
two-photon experiment records: coincidence counts between one program
detector (D_p0 for the ``+`` outcome, D_p1 for ``-``) and one data
detector (D_d0/D_d1 for the two outcomes of the chosen analysis basis),
accumulated over repeated fixed-length intervals.

Noise model, in the order it is applied:

* interference visibility scales the off-diagonal (coherence) terms of
  the data qubit's density matrix once, before the basis projection;
* phase jitter perturbs the programmed phase by a fresh zero-mean
  Gaussian draw per setting and interval (one stabilization cycle);
* detector efficiencies multiply each branch's pair rate;
* accidental dark coincidences add rate ``dark_i * dark_j * window``
  per detector pair.

Feed-forward correction is part of the simulated apparatus: the D_p1
branch is always corrected before the data measurement.  The analysis
without feed forward is obtained afterwards by discarding the D_p1
records (:func:`select_without_feedforward`), exactly as one would
post-select on the lab dataset.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

import numpy as np

from . import gate, states
from .errors import ConfigError, DataFormatError
from .gate import POSTSELECTION_PROBABILITY, ProgramOutcome, canonical_phase
from .states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS

PROGRAM_DETECTORS = ("D_p0", "D_p1")
DATA_DETECTORS = ("D_d0", "D_d1")

#: Default experiment grid: the seven programmed phases used throughout.
DEFAULT_PHASES = tuple(
    float(p) for p in (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi)
)

CSV_HEADER = "phase,input_state,basis,program_detector,data_detector,interval,count"

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
        for name in ("eta_p0", "eta_d0", "eta_d1", "eta_p1", "visibility"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("dark_quad", "dark_single", "phase_sigma", "pair_rate", "interval_s", "coincidence_window"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v >= 0.0 and np.isfinite(v)):
                raise ConfigError(f"{name} must be a finite non-negative number, got {v!r}")
        if not (isinstance(self.n_intervals, int) and self.n_intervals >= 1):
            raise ConfigError(f"n_intervals must be an integer >= 1, got {self.n_intervals!r}")

    @property
    def eta_program(self) -> tuple[float, float]:
        return (self.eta_p0, self.eta_p1)

    @property
    def eta_data(self) -> tuple[float, float]:
        return (self.eta_d0, self.eta_d1)

    @property
    def dark_program(self) -> tuple[float, float]:
        return (self.dark_quad, self.dark_single)

    @property
    def dark_data(self) -> tuple[float, float]:
        return (self.dark_quad, self.dark_quad)

    def replace(self, **changes) -> "NoiseConfig":
        return dataclasses.replace(self, **changes)


def ideal_noise(**overrides) -> NoiseConfig:
    """Loss-free, dark-free, perfectly stable configuration."""
    return NoiseConfig().replace(**overrides)


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
    return cfg.replace(**overrides)


@dataclass(frozen=True)
class ExperimentPlan:
    """Which settings to measure: programmed phases, inputs and bases."""

    phases: tuple[float, ...] = DEFAULT_PHASES
    input_states: tuple[str, ...] = STATE_LABELS
    bases: tuple[str, ...] = BASIS_LABELS

    def __post_init__(self):
        if len(self.phases) == 0:
            raise ConfigError("phases must be non-empty")
        object.__setattr__(self, "phases", tuple(canonical_phase(p) for p in self.phases))
        if len(set(self.phases)) != len(self.phases):
            raise ConfigError("phases contains duplicates after canonicalization")
        for s in self.input_states:
            if s not in STATE_LABELS:
                raise ConfigError(f"input_states entry {s!r} not in {STATE_LABELS}")
        for b in self.bases:
            if b not in BASIS_LABELS:
                raise ConfigError(f"bases entry {b!r} not in {BASIS_LABELS}")
        if len(self.input_states) == 0 or len(self.bases) == 0:
            raise ConfigError("input_states and bases must be non-empty")
        if len(set(self.input_states)) != len(self.input_states):
            raise ConfigError("input_states contains duplicates")
        if len(set(self.bases)) != len(self.bases):
            raise ConfigError("bases contains duplicates")

    @property
    def n_settings(self) -> int:
        return len(self.phases) * len(self.input_states) * len(self.bases)


@dataclass
class CountTable:
    """Coincidence counts on a dense (phase, state, basis, D_p, D_d, interval) grid.

    ``counts`` has shape (n_phases, n_states, n_bases, 2, 2, n_intervals)
    with the program-detector axis ordered (D_p0, D_p1) and the data
    axis (D_d0, D_d1).  Entries are floats so that efficiency-rescaled
    tables fit the same container; raw simulated tables hold integers.
    Every index combination exists by construction, zeros included.
    """

    phases: tuple[float, ...]
    input_states: tuple[str, ...]
    bases: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
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

    def setting_counts(self, phase_index: int, state_index: int, basis_index: int) -> np.ndarray:
        """Interval-summed 2x2 (program, data) block for one setting."""
        return self.counts[phase_index, state_index, basis_index].sum(axis=2)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(CSV_HEADER + "\n")
            for pi, phi in enumerate(self.phases):
                for si, state in enumerate(self.input_states):
                    for bi, basis in enumerate(self.bases):
                        for di, det_p in enumerate(PROGRAM_DETECTORS):
                            for dj, det_d in enumerate(DATA_DETECTORS):
                                for t in range(self.n_intervals):
                                    c = self.counts[pi, si, bi, di, dj, t]
                                    f.write(
                                        f"{phi:.12g},{state},{basis},{det_p},{det_d},{t},{_format_count(c)}\n"
                                    )

    @classmethod
    def from_csv(cls, path) -> "CountTable":
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise DataFormatError(f"bad count CSV header: expected {CSV_HEADER!r}, got {header!r}")
            phases: list[float] = []
            # Spelling as written -> phase index; spellings of one canonical phase share an index.
            phase_keys: dict[str, int] = {}
            canonical_index: dict[float, int] = {}
            states_seen: list[str] = []
            bases_seen: list[str] = []
            records: dict[tuple, float] = {}
            for lineno, line in enumerate(f, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 7:
                    raise DataFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
                phase_s, state, basis, det_p, det_d, interval_s, count_s = parts
                if phase_s not in phase_keys:
                    try:
                        phi = float(phase_s)
                    except ValueError:
                        phi = float("nan")
                    if not np.isfinite(phi):
                        raise DataFormatError(f"line {lineno}: bad phase {phase_s!r}")
                    phi = canonical_phase(phi)
                    if phi not in canonical_index:
                        canonical_index[phi] = len(phases)
                        phases.append(phi)
                    phase_keys[phase_s] = canonical_index[phi]
                if state not in STATE_LABELS:
                    raise DataFormatError(f"line {lineno}: unknown input_state {state!r}")
                if basis not in BASIS_LABELS:
                    raise DataFormatError(f"line {lineno}: unknown basis {basis!r}")
                if det_p not in PROGRAM_DETECTORS:
                    raise DataFormatError(f"line {lineno}: unknown program_detector {det_p!r}")
                if det_d not in DATA_DETECTORS:
                    raise DataFormatError(f"line {lineno}: unknown data_detector {det_d!r}")
                if state not in states_seen:
                    states_seen.append(state)
                if basis not in bases_seen:
                    bases_seen.append(basis)
                try:
                    interval = int(interval_s)
                    count = float(count_s)
                except ValueError:
                    raise DataFormatError(f"line {lineno}: bad interval/count {interval_s!r},{count_s!r}") from None
                if interval < 0:
                    raise DataFormatError(f"line {lineno}: negative interval {interval}")
                if not np.isfinite(count) or count < 0:
                    raise DataFormatError(f"line {lineno}: bad count {count_s!r}")
                key = (phase_keys[phase_s], state, basis, det_p, det_d, interval)
                if key in records:
                    raise DataFormatError(f"line {lineno}: duplicate record for {key}")
                records[key] = count
        if not records:
            raise DataFormatError("count CSV contains no records")
        n_intervals = 1 + max(k[5] for k in records)
        shape = (len(phases), len(states_seen), len(bases_seen), 2, 2, n_intervals)
        counts = np.full(shape, np.nan)
        s_idx = {s: i for i, s in enumerate(states_seen)}
        b_idx = {b: i for i, b in enumerate(bases_seen)}
        for (pi, state, basis, det_p, det_d, t), c in records.items():
            counts[pi, s_idx[state], b_idx[basis], PROGRAM_DETECTORS.index(det_p), DATA_DETECTORS.index(det_d), t] = c
        if np.any(np.isnan(counts)):
            missing = int(np.isnan(counts).sum())
            raise DataFormatError(f"count CSV is missing {missing} records (index coverage incomplete)")
        return cls(tuple(phases), tuple(states_seen), tuple(bases_seen), counts)


def _format_count(c: float) -> str:
    if float(c).is_integer():
        return str(int(c))
    return format(float(c), ".12g")


def _damp_coherence(rho: np.ndarray, visibility: float) -> np.ndarray:
    """Scale the off-diagonal terms of a qubit density matrix once."""
    out = rho.copy()
    out[0, 1] *= visibility
    out[1, 0] *= visibility
    return out


def outcome_probabilities(psi_in, phi: float, basis: str, noise: NoiseConfig):
    """Detector-pair click probabilities for one measurement setting.

    Returns ``(probs, total_rate)`` where ``probs`` is the 2x2 array of
    probabilities over (program_detector, data_detector), normalized to
    sum 1, and ``total_rate`` is the pre-normalization coincidence rate
    in counts per second (signal plus accidentals).

    The feed-forward correction is applied on the D_p1 branch before the
    data measurement; imperfect interference enters as a single
    visibility damping of the data qubit's coherences.
    """
    if basis not in BASIS_LABELS:
        raise ConfigError(f"unknown basis {basis!r}")
    joint = gate.conditional_joint_state(psi_in, phi)
    outcome_kets = [states.ket(lbl) for lbl in BASIS_OUTCOMES[basis]]
    rate = np.zeros((2, 2))
    for di, outcome in enumerate((ProgramOutcome.PLUS, ProgramOutcome.MINUS)):
        data_state, p_prog = gate.measure_program(joint, outcome)
        data_state = gate.feed_forward_correct(data_state, outcome)
        rho = _damp_coherence(np.outer(data_state, data_state.conj()), noise.visibility)
        for dj, b_ket in enumerate(outcome_kets):
            q = float(np.real(np.vdot(b_ket, rho @ b_ket)))
            signal = (
                noise.pair_rate
                * POSTSELECTION_PROBABILITY
                * p_prog
                * q
                * noise.eta_program[di]
                * noise.eta_data[dj]
            )
            dark = noise.dark_program[di] * noise.dark_data[dj] * noise.coincidence_window
            rate[di, dj] = signal + dark
    total_rate = float(rate.sum())
    if total_rate <= 0.0:
        # Degenerate configs (zero pair rate and zero darks) still need a distribution.
        return np.full((2, 2), 0.25), 0.0
    return rate / total_rate, total_rate


def setting_seed(seed: int, phase_index: int, state_index: int, basis_index: int) -> np.random.SeedSequence:
    """Derived sub-seed so settings can be sampled in any order or in parallel."""
    return np.random.SeedSequence((int(seed), _STAGE_SIMULATE, phase_index, state_index, basis_index))


def simulate_counts(plan: ExperimentPlan, noise: NoiseConfig, seed: int) -> CountTable:
    """Draw a full synthetic coincidence dataset; deterministic in ``seed``.

    Per setting and interval: the programmed phase is perturbed by a
    fresh Gaussian jitter draw, a total event count is drawn from a
    Poisson law with mean ``total_rate * interval_s``, and that total is
    split multinomially over the four detector pairs.
    """
    shape = (len(plan.phases), len(plan.input_states), len(plan.bases), 2, 2, noise.n_intervals)
    counts = np.zeros(shape, dtype=float)
    for pi, phi in enumerate(plan.phases):
        for si, label in enumerate(plan.input_states):
            psi_in = states.ket(label)
            for bi, basis in enumerate(plan.bases):
                rng = np.random.default_rng(setting_seed(seed, pi, si, bi))
                for t in range(noise.n_intervals):
                    phi_t = phi + (rng.normal(0.0, noise.phase_sigma) if noise.phase_sigma > 0 else 0.0)
                    probs, total_rate = outcome_probabilities(psi_in, phi_t, basis, noise)
                    n = rng.poisson(total_rate * noise.interval_s)
                    if n > 0:
                        counts[pi, si, bi, :, :, t] = rng.multinomial(n, probs.ravel()).reshape(2, 2)
    return CountTable(plan.phases, plan.input_states, plan.bases, counts)


def rescale_efficiencies(counts: CountTable, noise: NoiseConfig) -> CountTable:
    """Divide each record by its detector-pair efficiency product.

    Removes the detector-dependent bias so relative rates across pairs
    reflect the physics alone.  The result is real-valued.
    """
    for name in ("eta_p0", "eta_p1", "eta_d0", "eta_d1"):
        if getattr(noise, name) <= 0.0:
            raise ConfigError(f"{name} must be positive to rescale counts, got {getattr(noise, name)!r}")
    weight = np.outer(noise.eta_program, noise.eta_data)  # (program, data)
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

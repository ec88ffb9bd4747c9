"""Programmable phase gate on dual-rail photonic qubits.

A measurement-induced gate applies ``diag(1, e^{i phi})`` to a data
qubit, with the angle carried by a program qubit.  This package holds
the exact gate physics, a coincidence-count simulator with a bench-style
noise model, maximum-likelihood process and state tomography, and the
figures of merit (process fidelity, output-state fidelity, purity,
success probability) that summarize a run.

Typical use::

    from phasegate import RunConfig, run_pipeline
    result = run_pipeline(RunConfig(seed=7))
    for row in result.reports:
        print(row.phi, row.F_chi)

or element by element via :mod:`phasegate.gate`,
:mod:`phasegate.experiment`, :mod:`phasegate.tomography` and
:mod:`phasegate.metrics`.
"""

from .config import EMIT_CHOICES, RunConfig, load_run_config
from .errors import ConfigError, ConvergenceError, DataFormatError
from .experiment import (
    CountTable,
    DEFAULT_PHASES,
    ExperimentPlan,
    NoiseConfig,
    calibrated_noise,
    ideal_noise,
    outcome_probabilities,
    rescale_efficiencies,
    select_without_feedforward,
    simulate_counts,
    usable_fraction,
)
from .gate import (
    POSTSELECTION_PROBABILITY,
    ProgramOutcome,
    canonical_phase,
    conditional_joint_state,
    feed_forward_correct,
    gate_unitary,
    ideal_output,
    measure_program,
    prepare_program,
)
from .metrics import (
    MeritReport,
    format_merit_table,
    ideal_choi,
    merit_report,
    process_fidelity,
    purity,
    read_merit_csv,
    state_fidelity,
    write_merit_csv,
)
from .pipeline import (
    PipelineResult,
    ReconstructionSet,
    collect_reports,
    reconstruct_table,
    reports_from_reconstruction,
    run_pipeline,
    write_pipeline_artifacts,
)
from .states import BASIS_LABELS, BASIS_OUTCOMES, STATE_LABELS, density, ket, projector
from .tomography import (
    ProcessReconstruction,
    StateReconstruction,
    TomographySetting,
    apply_map,
    load_choi,
    load_state,
    ml_reconstruct_process,
    ml_reconstruct_state,
    save_choi,
    save_state,
    setting_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_LABELS",
    "BASIS_OUTCOMES",
    "ConfigError",
    "ConvergenceError",
    "CountTable",
    "DEFAULT_PHASES",
    "DataFormatError",
    "EMIT_CHOICES",
    "ExperimentPlan",
    "MeritReport",
    "NoiseConfig",
    "POSTSELECTION_PROBABILITY",
    "PipelineResult",
    "ProcessReconstruction",
    "ProgramOutcome",
    "ReconstructionSet",
    "RunConfig",
    "STATE_LABELS",
    "StateReconstruction",
    "TomographySetting",
    "apply_map",
    "calibrated_noise",
    "canonical_phase",
    "collect_reports",
    "conditional_joint_state",
    "density",
    "feed_forward_correct",
    "format_merit_table",
    "gate_unitary",
    "ideal_choi",
    "ideal_noise",
    "ideal_output",
    "ket",
    "load_choi",
    "load_run_config",
    "load_state",
    "measure_program",
    "merit_report",
    "ml_reconstruct_process",
    "ml_reconstruct_state",
    "outcome_probabilities",
    "prepare_program",
    "process_fidelity",
    "projector",
    "purity",
    "read_merit_csv",
    "reconstruct_table",
    "reports_from_reconstruction",
    "rescale_efficiencies",
    "run_pipeline",
    "save_choi",
    "save_state",
    "select_without_feedforward",
    "setting_probability",
    "simulate_counts",
    "state_fidelity",
    "usable_fraction",
    "write_merit_csv",
    "write_pipeline_artifacts",
]

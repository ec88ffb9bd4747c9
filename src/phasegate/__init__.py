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
:mod:`phasegate.metrics`, which is where every other name lives.
"""

from .config import RunConfig, load_run_config
from .errors import ConfigError, ConvergenceError, DataFormatError
from .experiment import calibrated_noise, ideal_noise
from .metrics import format_merit_table
from .pipeline import run_pipeline, write_pipeline_artifacts

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DataFormatError",
    "RunConfig",
    "calibrated_noise",
    "format_merit_table",
    "ideal_noise",
    "load_run_config",
    "run_pipeline",
    "write_pipeline_artifacts",
]

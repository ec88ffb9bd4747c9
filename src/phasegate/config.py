"""Run configuration: plan + noise + seed + output policy, loadable from JSON.

A config file is a JSON object whose keys mirror the dataclass fields
exactly; unknown keys are rejected so typos fail loudly instead of
silently running with defaults.  ``plan`` and ``noise`` are nested
objects overriding individual :class:`ExperimentPlan` and
:class:`NoiseConfig` fields; omitted fields keep their defaults.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .experiment import ExperimentPlan, NoiseConfig

EMIT_CHOICES = ("counts", "choi", "states", "report")


@dataclass(frozen=True)
class RunConfig:
    plan: ExperimentPlan = field(default_factory=ExperimentPlan)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int | None = None
    feed_forward: bool = True
    output_dir: str = "."
    emit: tuple[str, ...] = EMIT_CHOICES

    def __post_init__(self):
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.feed_forward, bool):
            raise ConfigError(f"feed_forward must be a boolean, got {self.feed_forward!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)) or not os.fspath(self.output_dir):
            raise ConfigError(f"output_dir must be a path string naming a directory, got {self.output_dir!r}")
        if not isinstance(self.emit, (list, tuple)):
            raise ConfigError(f"emit must be a list, got {self.emit!r}")
        emit = tuple(self.emit)
        for item in emit:
            if item not in EMIT_CHOICES:
                raise ConfigError(f"emit entry {item!r} not in {EMIT_CHOICES}")
        if len(set(emit)) != len(emit):
            raise ConfigError("emit contains duplicates")
        object.__setattr__(self, "emit", emit)

    def require_seed(self) -> int:
        """Simulation stages refuse to run unseeded (no wall-clock seeding)."""
        if self.seed is None:
            raise ConfigError("seed is required for simulation; set it in the config or pass --seed")
        return self.seed

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def _build_section(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object of field overrides, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(unknown)}")
    return cls(**data)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = dict(data)
    if "plan" in kwargs:
        kwargs["plan"] = _build_section(ExperimentPlan, kwargs["plan"], "plan")
    if "noise" in kwargs:
        kwargs["noise"] = _build_section(NoiseConfig, kwargs["noise"], "noise")
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    """Parse a JSON config file; every malformation surfaces as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(data)

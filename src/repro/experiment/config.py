"""Experiment configuration dataclasses and the declarative sweep schema.

Training defaults mirror Appendix C.2 of the paper:

* CIFAR-10 fine-tuning: Adam, lr 3e-4, fixed schedule, batch 64, early
  stopping on validation accuracy;
* ImageNet fine-tuning: SGD + Nesterov momentum 0.9, lr 1e-3, fixed
  schedule.

Epoch counts and dataset sizes are scaled to the CPU budget via the
``scale`` factory arguments; ``benchmarks/common.py`` holds the values the
figure benchmarks use.

Sweep schema
------------
:class:`SweepConfig` is the declarative description of a full experiment
grid — the "structured way" of identifying architectures, datasets,
strategies and hyperparameters that the paper calls for (§6).  It is a
frozen dataclass with a lossless JSON round-trip, so a sweep can be written
to a file, diffed, shipped to a remote worker, and replayed bit-for-bit::

    {
      "schema_version": 1,
      "model": "resnet-20",            // MODELS registry name
      "model_kwargs": {"width_scale": 0.5},
      "dataset": "cifar10",            // DATASETS registry name
      "dataset_kwargs": {"n_train": 1000, "n_val": 320, "size": 16},
      "strategies": ["global_weight", "random"],   // STRATEGIES names
      "compressions": [1, 2, 4, 8, 16, 32],
      "seeds": [0, 1, 2],
      "pretrain": {...TrainConfig...} | null,      // null = spec default
      "finetune": {...TrainConfig...} | null,
      "pretrain_seed": 0,
      "schedule": "one_shot",          // SCHEDULES registry name
      "schedule_steps": 1,
      "prune_classifier": false,
      "dedupe_baselines": true,
      "executor": "serial",            // EXECUTORS registry name
      "workers": 1,                    // 0 = all cores; serial ignores it
      "executor_options": {}           // extra executor kwargs, e.g. the
                                       // queue executor's {"queue_dir": ...,
                                       // "lease_timeout": 30, "max_retries": 2}.
                                       // Every executor accepts
                                       // {"kernel_backend": "fast"} (a KERNELS
                                       // registry name) to pin the compute
                                       // backend for all cells — including
                                       // queue workers, which inherit it via
                                       // queue.json.  Precedence:
                                       // REPRO_KERNEL_BACKEND env < this
                                       // option < --kernel-backend flag.
    }

Schema versioning: ``schema_version`` is bumped whenever a field is
renamed, removed, or changes meaning (adding a field with a default that
preserves old behavior is backward compatible and does **not** bump it).
``from_dict`` accepts any version ≤ the current one, filling absent fields
with their defaults, and rejects unknown keys and future versions loudly —
a config file never silently drops information.

Version history:

* **1** — initial schema (this PR): registry-named model/dataset/
  strategies/schedule/executor, grid axes, train configs, dedupe flag.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "SweepConfig",
    "SWEEP_SCHEMA_VERSION",
    "PAPER_COMPRESSIONS",
    "cifar_finetune_config",
    "imagenet_finetune_config",
]

#: §6's recommended operating points (plus the unpruned control at 1).
PAPER_COMPRESSIONS: Sequence[float] = (1, 2, 4, 8, 16, 32)

#: current :class:`SweepConfig` schema version (see module docstring)
SWEEP_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer choice and hyperparameters (an ``OPTIMIZERS`` registry name)."""

    name: str = "adam"
    lr: float = 3e-4
    momentum: float = 0.0
    nesterov: bool = False
    weight_decay: float = 0.0

    def __post_init__(self):
        from ..optim import OPTIMIZERS

        if self.name not in OPTIMIZERS:
            raise ValueError(OPTIMIZERS.unknown_message(self.name))
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        return cls(**_known_fields(cls, d))


@dataclass(frozen=True)
class TrainConfig:
    """One training (or fine-tuning) run."""

    epochs: int = 30
    batch_size: int = 64
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    #: epochs with no val-accuracy improvement before stopping (None = off)
    early_stop_patience: Optional[int] = 5
    #: restore the best-val-accuracy weights at the end
    restore_best: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kwargs = _known_fields(cls, d)
        opt = kwargs.get("optimizer")
        if isinstance(opt, dict):
            kwargs["optimizer"] = OptimizerConfig.from_dict(opt)
        return cls(**kwargs)


def _known_fields(cls, d: dict) -> dict:
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)} "
            f"(known: {sorted(f.name for f in fields(cls))})"
        )
    return dict(d)


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of a full experiment grid (see module docstring).

    Every component is referenced by registry name, every axis is an explicit
    sequence, and the whole object round-trips losslessly through
    ``to_dict``/``from_dict`` (and therefore JSON): expanding a reloaded
    config yields byte-identical
    :func:`~repro.experiment.cache.spec_hash` values.
    """

    model: str
    dataset: str
    strategies: Tuple[str, ...]
    compressions: Tuple[float, ...] = tuple(PAPER_COMPRESSIONS)
    seeds: Tuple[int, ...] = (0, 1, 2)
    model_kwargs: Dict = field(default_factory=dict)
    dataset_kwargs: Dict = field(default_factory=dict)
    #: None = use :class:`~repro.experiment.prune.ExperimentSpec` defaults
    pretrain: Optional[TrainConfig] = None
    finetune: Optional[TrainConfig] = None
    pretrain_seed: int = 0
    schedule: str = "one_shot"
    schedule_steps: int = 1
    prune_classifier: bool = False
    dedupe_baselines: bool = True
    executor: str = "serial"
    workers: int = 1
    #: extra keyword arguments for the executor's constructor, beyond the
    #: uniform ``(workers, cache, progress, on_event)`` — the declarative
    #: home for executor-specific knobs like the queue executor's
    #: ``queue_dir``/``lease_timeout``/``max_retries``/``local_workers``.
    #: Additive with a no-op default, so schema_version stays 1.
    executor_options: Dict = field(default_factory=dict)
    schema_version: int = SWEEP_SCHEMA_VERSION

    def __post_init__(self):
        # normalize sequence axes to tuples so the config hashes/compares
        # identically whether built from lists (JSON) or tuples (Python)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(
            self, "compressions", tuple(float(c) for c in self.compressions)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.strategies:
            raise ValueError("strategies must be non-empty")
        if self.schema_version > SWEEP_SCHEMA_VERSION:
            raise ValueError(
                f"sweep schema version {self.schema_version} is newer than "
                f"this code understands ({SWEEP_SCHEMA_VERSION})"
            )
        if self.schedule_steps < 1:
            raise ValueError("schedule_steps must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = all cores)")
        # Validate registry-backed fields that would otherwise only fail
        # deep into a run (a schedule typo surfaces after pretraining!).
        # Model/dataset/strategy names are deliberately NOT checked here:
        # custom components may be registered after a config is built, and
        # unknown names already fail fast when the first cell starts.
        from ..pruning import SCHEDULES

        if self.schedule not in SCHEDULES:
            raise ValueError(SCHEDULES.unknown_message(self.schedule))

    # -- round-trip ------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-able dict (tuples become lists, dataclasses dicts)."""
        d = asdict(self)
        d["strategies"] = list(self.strategies)
        d["compressions"] = list(self.compressions)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        kwargs = _known_fields(cls, d)
        for key in ("pretrain", "finetune"):
            if isinstance(kwargs.get(key), dict):
                kwargs[key] = TrainConfig.from_dict(kwargs[key])
        return cls(**kwargs)

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> Path:
        """Write the config as JSON; the file is everything a worker needs."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path) -> "SweepConfig":
        return cls.from_json(Path(path).read_text())

    # -- execution glue --------------------------------------------------
    def expand(self):
        """Ordered :class:`ExperimentSpec` list for this grid.

        Delegates to :func:`repro.experiment.runner.expand_sweep`; defined
        here so a config object alone is enough to enumerate (and hash)
        every cell it describes.
        """
        from .runner import expand_sweep

        return expand_sweep(
            model=self.model,
            dataset=self.dataset,
            strategies=self.strategies,
            compressions=self.compressions,
            seeds=self.seeds,
            model_kwargs=dict(self.model_kwargs),
            dataset_kwargs=dict(self.dataset_kwargs),
            pretrain=self.pretrain,
            finetune=self.finetune,
            pretrain_seed=self.pretrain_seed,
            dedupe_baselines=self.dedupe_baselines,
            schedule=self.schedule,
            schedule_steps=self.schedule_steps,
            prune_classifier=self.prune_classifier,
        )


def cifar_finetune_config(epochs: int = 30, batch_size: int = 64) -> TrainConfig:
    """Appendix C.2 CIFAR-10 fine-tuning setup (Adam, 3e-4, fixed)."""
    return TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        optimizer=OptimizerConfig(name="adam", lr=3e-4),
        early_stop_patience=5,
    )


def imagenet_finetune_config(epochs: int = 20, batch_size: int = 256) -> TrainConfig:
    """Appendix C.2 ImageNet fine-tuning setup (SGD+Nesterov 0.9, 1e-3)."""
    return TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        optimizer=OptimizerConfig(name="sgd", lr=1e-3, momentum=0.9, nesterov=True),
        early_stop_patience=5,
    )

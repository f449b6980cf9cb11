"""Shared benchmark infrastructure.

Every figure/table benchmark prints the same rows/series the paper reports
and (for experiment-driven figures) reuses sweeps cached on disk under
``artifacts/results/`` so that appendix figures sharing data with main-text
figures (e.g. Figures 13-14 reuse Figure 7's ResNet-56 sweep) cost nothing
extra.

Scale control: ``REPRO_BENCH_SCALE=smoke`` (default) runs CPU-friendly
configurations; ``full`` widens seeds/epochs/datasets toward the paper's
protocol.

Execution control: ``REPRO_SWEEP_WORKERS`` (0 = all cores) fans cells over
local processes; ``REPRO_SWEEP_EXECUTOR``/``REPRO_EXECUTOR_OPTIONS`` select
any registered executor instead — e.g. the durable ``queue`` executor for
multi-machine benchmark grids (see :func:`sweep_executor`).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(__file__))

from repro.experiment import (
    EXECUTORS,
    OptimizerConfig,
    PruningResult,
    ResultCache,
    ResultSet,
    SweepConfig,
    TrainConfig,
    assemble_results,
    executor_for,
)
from repro.models import MODELS
from repro.pruning import GlobalMagWeight, Pruner
from repro.utils import artifacts_dir

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: the paper's five baseline strategies (§7.2) in figure-legend order
PAPER_STRATEGIES = [
    "global_weight",
    "layer_weight",
    "global_gradient",
    "layer_gradient",
    "random",
]

#: §6's recommended compression set {2,4,8,16,32} plus the control
COMPRESSIONS = [1, 2, 4, 8, 16, 32]

SEEDS = (0, 1, 2) if SCALE == "full" else (0, 1)

_CIFAR_KW = dict(
    n_train=2500 if SCALE == "full" else 1000,
    n_val=640 if SCALE == "full" else 320,
    size=16,
    noise=0.5,
)
_IMAGENET_KW = dict(
    n_train=2500 if SCALE == "full" else 1000,
    n_val=640 if SCALE == "full" else 320,
    n_classes=20,
    size=16,
)

#: width scales per architecture, chosen so topology is intact but the CPU
#: budget holds
MODEL_KW = {
    "cifar-vgg": dict(width_scale=0.25, input_size=16),
    "resnet-56": dict(width_scale=0.375),
    "resnet-20": dict(width_scale=0.5),
    "resnet-110": dict(width_scale=0.25),
    "resnet-18": dict(width_scale=0.25, num_classes=20),
}


def sweep_executor(progress=None):
    """The executor benchmark sweeps run through, picked from the env.

    ``REPRO_SWEEP_WORKERS`` (0 = all cores, default 1 = serial) keeps its
    historical meaning; ``REPRO_SWEEP_EXECUTOR`` selects any registered
    executor by name instead, with ``REPRO_EXECUTOR_OPTIONS`` (a JSON dict)
    supplying its extra constructor kwargs.  Fanning a benchmark grid out
    over machines is therefore just::

        REPRO_SWEEP_EXECUTOR=queue \\
        REPRO_EXECUTOR_OPTIONS='{"queue_dir": "/shared/q"}' \\
            python benchmarks/bench_fig07.py
        # elsewhere: python -m repro worker /shared/q
    """
    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))
    name = os.environ.get("REPRO_SWEEP_EXECUTOR")
    if name:
        options = json.loads(os.environ.get("REPRO_EXECUTOR_OPTIONS", "{}"))
        # queue runs must read the same cache the remote workers publish to,
        # so let the executor default it into <queue_dir>/cache (matching
        # the `python -m repro run/worker` CLI) instead of the local
        # artifacts cache
        cache = None if (name == "queue" and "queue_dir" in options) else ResultCache()
        return EXECUTORS.create(
            name, workers=workers or None, cache=cache,
            progress=progress, **options,
        )
    return executor_for(workers, cache=ResultCache(), progress=progress)


def pretrain_config(lr: float = 2e-3) -> TrainConfig:
    return TrainConfig(
        epochs=12 if SCALE == "full" else 8,
        batch_size=32,
        optimizer=OptimizerConfig("adam", lr),
        early_stop_patience=None,
    )


def cifar_ft_config() -> TrainConfig:
    """Appendix C.2 CIFAR recipe (Adam 3e-4 fixed), epoch-scaled."""
    return TrainConfig(
        epochs=4 if SCALE == "full" else 2,
        batch_size=32,
        optimizer=OptimizerConfig("adam", 3e-4),
        early_stop_patience=3,
    )


def imagenet_ft_config() -> TrainConfig:
    """Appendix C.2 ImageNet recipe (SGD+Nesterov 0.9, 1e-3), scaled."""
    return TrainConfig(
        epochs=4 if SCALE == "full" else 2,
        batch_size=64,
        optimizer=OptimizerConfig("sgd", lr=1e-3, momentum=0.9, nesterov=True),
        early_stop_patience=3,
    )


def reachable_compressions(model_name: str, compressions: Sequence[float]) -> List[float]:
    """Drop targets above what non-prunable tensors allow for this model."""
    model = MODELS.create(model_name, **MODEL_KW[model_name])
    cap = Pruner(model, GlobalMagWeight()).achievable_compression()
    kept = [c for c in compressions if c < cap * 0.95]
    return kept


def cached_sweep(
    name: str,
    model: str,
    dataset: str,
    strategies: Sequence[str],
    compressions: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
    pretrain_lr: float = 2e-3,
    pretrain_seed: int = 0,
) -> ResultSet:
    """Run (or load) a named experiment sweep through the cached executor.

    Two cache levels: the named ResultSet JSON (fast path for a bench that
    already ran) and the content-addressed per-spec ResultCache underneath,
    which lets different benches share cells (e.g. Figures 13-14 reuse
    Figure 7's ResNet-56 sweep) and lets an interrupted sweep resume.  The
    named key includes the scale so smoke/full results never mix; the spec
    hashes include every config, which isolates scales automatically.

    Set ``REPRO_SWEEP_WORKERS`` (0 = all cores, default 1 = serial) to fan
    cells out over processes.
    """
    path = artifacts_dir("results") / f"{name}_{SCALE}.json"
    if path.exists():
        return ResultSet.load(path)
    comps = reachable_compressions(model, compressions or COMPRESSIONS)
    ds_kw = _IMAGENET_KW if dataset == "imagenet" else _CIFAR_KW
    ft = imagenet_ft_config() if dataset == "imagenet" else cifar_ft_config()
    config = SweepConfig(
        model=model,
        dataset=dataset,
        strategies=tuple(strategies),
        compressions=tuple(comps),
        seeds=tuple(seeds if seeds is not None else SEEDS),
        model_kwargs=MODEL_KW[model],
        dataset_kwargs=dict(ds_kw),
        pretrain=pretrain_config(pretrain_lr),
        finetune=ft,
        pretrain_seed=pretrain_seed,
    )
    # the declarative sweep is saved next to the results: `python -m repro
    # run <name>_<scale>.sweep.json` replays this bench's grid verbatim
    config.save(path.with_suffix("").with_suffix(".sweep.json"))
    specs = config.expand()
    executor = sweep_executor(
        progress=lambda msg: print(f"    {name}: {msg}", flush=True),
    )
    results = assemble_results(specs, executor.run(specs), config.strategies)
    results.save(path)
    return results


def print_accuracy_table(
    results: ResultSet,
    x_attr: str = "compression",
    y_attr: str = "top1",
    title: str = "",
) -> None:
    """Paper-style rows: one line per (strategy, operating point)."""
    from repro.analysis import ResultFrame
    from repro.pruning import PAPER_LABELS

    frame = ResultFrame.from_results(results)
    if title:
        print(f"\n== {title} ==")
    header = f"{'strategy':18s} " + " ".join(
        f"{x_attr[:4]}={c:<5g}" for c in frame.unique("compression")
    )
    print(header)
    for strat, points in frame.tradeoff_curves(x="compression", y=y_attr).items():
        cells = " ".join(f"{p.mean:.3f}±{p.std:.2f}" for p in points)
        print(f"{PAPER_LABELS.get(strat, strat):18s} {cells}")

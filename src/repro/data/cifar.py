"""Synthetic CIFAR-10 stand-in (images from :mod:`repro.data.synthetic`).

Same tensor interface as the real dataset — 10 classes of 3×``size``×``size``
float images with train/val splits and the standard augmentation pipeline
(random crop + horizontal flip + per-channel normalization).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dataset import ArrayDataset
from .synthetic import make_classification_images
from .transforms import Compose, Normalize, RandomCrop, RandomHorizontalFlip

__all__ = ["SyntheticCIFAR10"]


class SyntheticCIFAR10:
    """Deterministic CIFAR-10 surrogate.

    Parameters
    ----------
    n_train, n_val:
        Split sizes (the real dataset is 50k/10k; defaults are scaled to the
        CPU budget and can be raised).
    size:
        Spatial resolution (real CIFAR-10 is 32).
    seed:
        Controls the generated images; train and val come from disjoint
        streams of the same class-conditional distribution.
    noise:
        Pixel-noise level; governs the achievable top accuracy.
    """

    NUM_CLASSES = 10
    CHANNELS = 3

    def __init__(
        self,
        n_train: int = 4000,
        n_val: int = 1000,
        size: int = 32,
        seed: int = 0,
        noise: float = 0.55,
    ) -> None:
        self.size = size
        self.seed = seed
        x, y = make_classification_images(
            n_train + n_val,
            self.NUM_CLASSES,
            channels=self.CHANNELS,
            size=size,
            noise=noise,
            seed=seed,
        )
        # Channel statistics computed on the train split, like real pipelines.
        self.mean = x[:n_train].mean(axis=(0, 2, 3))
        self.std = x[:n_train].std(axis=(0, 2, 3)) + 1e-8
        self.train = ArrayDataset(x[:n_train], y[:n_train])
        self.val = ArrayDataset(x[n_train:], y[n_train:])

    def train_transform(self) -> Compose:
        """Augmentation used for (pre)training: crop + flip + normalize."""
        return Compose(
            [
                RandomCrop(padding=max(1, self.size // 16)),
                RandomHorizontalFlip(0.5),
                Normalize(self.mean, self.std),
            ]
        )

    def eval_transform(self) -> Compose:
        """Normalization only."""
        return Compose([Normalize(self.mean, self.std)])

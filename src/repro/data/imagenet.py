"""Synthetic ImageNet stand-in (images from :mod:`repro.data.synthetic`).

The paper's ImageNet experiments (Figures 6, 17, 18) measure Top-1 accuracy
of pruned ResNet-18 at several compression ratios.  This surrogate keeps the
properties those experiments rely on: many classes (so Top-5 ≠ Top-1), RGB
input, a stride-2 stem architecture regime, and non-trivial achievable
accuracy.  Resolution and class count are scaled to the CPU budget.
"""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataset
from .synthetic import make_classification_images
from .transforms import Compose, Normalize, RandomCrop, RandomHorizontalFlip

__all__ = ["SyntheticImageNet"]


class SyntheticImageNet:
    """Deterministic ImageNet surrogate with ``n_classes`` classes."""

    CHANNELS = 3

    def __init__(
        self,
        n_train: int = 4000,
        n_val: int = 1000,
        n_classes: int = 20,
        size: int = 32,
        seed: int = 100,
        noise: float = 0.65,
    ) -> None:
        if n_classes < 6:
            raise ValueError("need >=6 classes for Top-5 to be meaningful")
        self.size = size
        self.num_classes = n_classes
        self.seed = seed
        x, y = make_classification_images(
            n_train + n_val,
            n_classes,
            channels=self.CHANNELS,
            size=size,
            noise=noise,
            modes_per_class=4,
            seed=seed,
        )
        self.mean = x[:n_train].mean(axis=(0, 2, 3))
        self.std = x[:n_train].std(axis=(0, 2, 3)) + 1e-8
        self.train = ArrayDataset(x[:n_train], y[:n_train])
        self.val = ArrayDataset(x[n_train:], y[n_train:])

    def train_transform(self) -> Compose:
        return Compose(
            [
                RandomCrop(padding=max(1, self.size // 16)),
                RandomHorizontalFlip(0.5),
                Normalize(self.mean, self.std),
            ]
        )

    def eval_transform(self) -> Compose:
        return Compose([Normalize(self.mean, self.std)])

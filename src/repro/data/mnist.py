"""Synthetic MNIST stand-in (images from :mod:`repro.data.synthetic`).

Grayscale 28×28 with mostly-near-zero backgrounds, mirroring the properties
the paper calls out in §4.2 ("its images are grayscale, composed mostly of
zeros, and possible to classify with over 99% accuracy using simple
models").  Used by the LeNet examples and tests; the paper's own experiments
deliberately avoid MNIST, and so do ours.
"""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataset
from .synthetic import make_classification_images
from .transforms import Compose, Normalize

__all__ = ["SyntheticMNIST"]


class SyntheticMNIST:
    """Deterministic MNIST surrogate: easy, sparse, grayscale."""

    NUM_CLASSES = 10
    CHANNELS = 1

    def __init__(
        self,
        n_train: int = 2000,
        n_val: int = 500,
        size: int = 28,
        seed: int = 7,
    ) -> None:
        self.size = size
        x, y = make_classification_images(
            n_train + n_val,
            self.NUM_CLASSES,
            channels=self.CHANNELS,
            size=size,
            noise=0.25,  # low noise: MNIST is easy by design
            modes_per_class=2,
            max_shift=2,
            seed=seed,
        )
        # Sparsify background like real MNIST: keep only strong activations.
        x = np.where(np.abs(x) > 0.6, x, 0.0).astype(np.float32)
        self.mean = x[:n_train].mean(axis=(0, 2, 3))
        self.std = x[:n_train].std(axis=(0, 2, 3)) + 1e-8
        self.train = ArrayDataset(x[:n_train], y[:n_train])
        self.val = ArrayDataset(x[n_train:], y[n_train:])

    def train_transform(self) -> Compose:
        return Compose([Normalize(self.mean, self.std)])

    def eval_transform(self) -> Compose:
        return Compose([Normalize(self.mean, self.std)])

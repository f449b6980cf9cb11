"""Synthetic class-conditional image generation.

The execution environment has no access to CIFAR-10, ImageNet or MNIST, so
this module provides a dataset *substitute*: a deterministic generator of
class-conditional images with enough intra-class variability that
(a) convnets must be trained to non-trivial accuracy, and (b) accuracy
degrades smoothly as capacity is pruned away — the property the paper's
tradeoff curves measure.

Generation recipe (per class):

1. Draw ``modes_per_class`` low-frequency prototype patterns by sampling a
   coarse coefficient grid and bilinearly upsampling to the target size.
   Low-frequency structure rewards convolutional feature sharing, so conv
   layers matter (their FLOPs dominate, as in real networks).
2. Each sample picks a mode, scales it by a random contrast, adds a random
   brightness shift, a small random translation, and i.i.d. Gaussian pixel
   noise.  The noise floor keeps top accuracy below 100% and makes accuracy
   sensitive to remaining capacity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["make_classification_images", "bilinear_upsample"]


def bilinear_upsample(coarse: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
    """Bilinearly upsample ``(..., h, w)`` to ``(..., H, W)``."""
    h, w = coarse.shape[-2:]
    out_h, out_w = out_hw
    # Sample positions in source coordinates (align_corners=True semantics).
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    a = coarse[..., y0[:, None], x0[None, :]]
    b = coarse[..., y0[:, None], x1[None, :]]
    c = coarse[..., y1[:, None], x0[None, :]]
    d = coarse[..., y1[:, None], x1[None, :]]
    top = a * (1 - wx) + b * wx
    bot = c * (1 - wx) + d * wx
    return top * (1 - wy) + bot * wy


def _translate(batch: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Translate each image by its (dy, dx) with zero fill (vectorised roll)."""
    out = np.zeros_like(batch)
    # Group samples by shift so each distinct shift is one slice copy.
    unique, inverse = np.unique(shifts, axis=0, return_inverse=True)
    h, w = batch.shape[-2:]
    for k, (dy, dx) in enumerate(unique):
        idx = np.nonzero(inverse == k)[0]
        src_y = slice(max(0, -dy), min(h, h - dy))
        dst_y = slice(max(0, dy), min(h, h + dy))
        src_x = slice(max(0, -dx), min(w, w - dx))
        dst_x = slice(max(0, dx), min(w, w + dx))
        out[idx[:, None, None, None], :, dst_y, dst_x] = batch[
            idx[:, None, None, None], :, src_y, src_x
        ]
    return out


def make_classification_images(
    n_samples: int,
    n_classes: int,
    channels: int = 3,
    size: int = 32,
    noise: float = 0.55,
    modes_per_class: int = 3,
    max_shift: int = 2,
    coarse: int = 4,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a synthetic image-classification dataset.

    Returns
    -------
    x : float32 array of shape ``(n_samples, channels, size, size)``
    y : int64 array of shape ``(n_samples,)`` with balanced classes
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    # Prototypes: (n_classes, modes, C, size, size), unit-normalised.
    coeffs = rng.normal(
        size=(n_classes, modes_per_class, channels, coarse, coarse)
    )
    protos = bilinear_upsample(coeffs, (size, size))
    protos /= np.sqrt((protos**2).mean(axis=(-1, -2, -3), keepdims=True))

    y = np.arange(n_samples) % n_classes
    rng.shuffle(y)
    modes = rng.integers(0, modes_per_class, size=n_samples)
    contrast = rng.uniform(0.7, 1.3, size=(n_samples, 1, 1, 1))
    brightness = rng.normal(0.0, 0.15, size=(n_samples, 1, 1, 1))
    x = protos[y, modes] * contrast + brightness
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n_samples, 2))
        x = _translate(x, shifts)
    x = x + rng.normal(0.0, noise, size=x.shape)
    return x.astype(np.float32), y.astype(np.int64)

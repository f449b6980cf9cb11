"""ResNet architectures.

Two families, matching the two He et al. (2016a) variants the paper warns
are often conflated (§5.1 "Architecture Ambiguity"):

* **CIFAR ResNets** (ResNet-20/32/56/110): 3×3 stem, three stages of widths
  ``[16, 32, 64] × width_scale`` with ``(depth - 2) / 6`` basic blocks each.
* **ImageNet-style ResNet-18**: four stages ``[64, 128, 256, 512] ×
  width_scale`` with two basic blocks each and a stride-2 stem regime.

``width_scale`` shrinks channel counts for the CPU budget while preserving
topology — the property pruning behaviour depends on.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autograd import Tensor
from ..nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    ReLU,
    Sequential,
)

__all__ = [
    "BasicBlock",
    "CifarResNet",
    "resnet20",
    "resnet32",
    "resnet56",
    "resnet110",
    "ResNet18",
    "resnet18",
]


def _conv_bn(
    in_ch: int, out_ch: int, kernel: int, stride: int, padding: int, rng
) -> Sequential:
    return Sequential(
        Conv2d(in_ch, out_ch, kernel, stride=stride, padding=padding, bias=False, rng=rng),
        BatchNorm2d(out_ch),
    )


class BasicBlock(Module):
    """Two 3×3 conv-bn pairs with a residual connection."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.shortcut = _conv_bn(in_ch, out_ch, 1, stride, 0, rng)
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class CifarResNet(Module):
    """He et al. CIFAR ResNet with ``depth = 6n + 2``."""

    def __init__(
        self,
        depth: int,
        num_classes: int = 10,
        width_scale: float = 1.0,
        in_channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if (depth - 2) % 6 != 0:
            raise ValueError(f"CIFAR ResNet depth must be 6n+2, got {depth}")
        n = (depth - 2) // 6
        rng = np.random.default_rng(seed)
        widths = [max(4, int(round(w * width_scale))) for w in (16, 32, 64)]
        self.depth = depth
        self.stem = Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng)
        self.bn = BatchNorm2d(widths[0])
        blocks: List[Module] = []
        in_ch = widths[0]
        for stage, w in enumerate(widths):
            for b in range(n):
                stride = 2 if (stage > 0 and b == 0) else 1
                blocks.append(BasicBlock(in_ch, w, stride, rng))
                in_ch = w
        self.blocks = ModuleList(blocks)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(in_ch, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn(self.stem(x)).relu()
        for block in self.blocks:
            out = block(out)
        return self.fc(self.pool(out))

    @property
    def classifier(self) -> Linear:
        """The final layer before the softmax (excluded from pruning by default)."""
        return self.fc


def resnet20(num_classes: int = 10, width_scale: float = 1.0, seed: int = 0, **kw):
    """ResNet-20 for CIFAR-shaped input."""
    return CifarResNet(20, num_classes, width_scale, seed=seed, **kw)


def resnet32(num_classes: int = 10, width_scale: float = 1.0, seed: int = 0, **kw):
    """ResNet-32 for CIFAR-shaped input."""
    return CifarResNet(32, num_classes, width_scale, seed=seed, **kw)


def resnet56(num_classes: int = 10, width_scale: float = 1.0, seed: int = 0, **kw):
    """ResNet-56 for CIFAR-shaped input (used in Figures 7, 8, 13, 14)."""
    return CifarResNet(56, num_classes, width_scale, seed=seed, **kw)


def resnet110(num_classes: int = 10, width_scale: float = 1.0, seed: int = 0, **kw):
    """ResNet-110 for CIFAR-shaped input (used in Figures 15, 16)."""
    return CifarResNet(110, num_classes, width_scale, seed=seed, **kw)


class ResNet18(Module):
    """ImageNet-style ResNet-18: stages [2,2,2,2], widths [64,128,256,512]·s.

    For small inputs (<64 px) the stem is a 3×3 stride-1 conv; for larger
    inputs it is the standard 7×7 stride-2 conv plus 3×3 max-pool.
    """

    def __init__(
        self,
        num_classes: int = 20,
        width_scale: float = 1.0,
        in_channels: int = 3,
        input_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        widths = [max(4, int(round(w * width_scale))) for w in (64, 128, 256, 512)]
        if input_size >= 64:
            self.stem = Conv2d(in_channels, widths[0], 7, stride=2, padding=3, bias=False, rng=rng)
            self.stem_pool: Module = MaxPool2d(3, 2)
        else:
            self.stem = Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
            self.stem_pool = Identity()
        self.bn = BatchNorm2d(widths[0])
        blocks: List[Module] = []
        in_ch = widths[0]
        for stage, w in enumerate(widths):
            for b in range(2):
                stride = 2 if (stage > 0 and b == 0) else 1
                blocks.append(BasicBlock(in_ch, w, stride, rng))
                in_ch = w
        self.blocks = ModuleList(blocks)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(in_ch, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn(self.stem(x)).relu()
        out = self.stem_pool(out)
        for block in self.blocks:
            out = block(out)
        return self.fc(self.pool(out))

    @property
    def classifier(self) -> Linear:
        return self.fc


def resnet18(num_classes: int = 20, width_scale: float = 1.0, seed: int = 0, **kw):
    """ResNet-18 (used in Figures 6, 17, 18)."""
    return ResNet18(num_classes, width_scale, seed=seed, **kw)

"""CSV export of figure data series.

Every benchmark writes the series behind its figure to
``artifacts/figures/<name>.csv`` so paper-vs-measured comparisons are
backed by machine-readable data.  Per §6 the long
format carries the mean, the sample std *and* the aggregated run count
per point (``series, x, y, std, n``), so error bars are reconstructible
downstream; ``n`` is 0 for series with unknown provenance (e.g. digitized
external curves).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from ..analysis.frame import ResultFrame
from ..utils import artifacts_dir
from .series import TradeoffCurve

__all__ = ["export_curves_csv", "export_frame_csv", "figures_dir"]


def figures_dir() -> Path:
    return artifacts_dir("figures")


def export_curves_csv(curves: Sequence[TradeoffCurve], name: str) -> Path:
    """Write curves as long-format CSV: label, x, y mean, y std, n."""
    path = figures_dir() / f"{name}.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["series", "x", "y", "std", "n"])
        for curve in curves:
            stds = curve.stds or [0.0] * len(curve.xs)
            ns = curve.ns or [0] * len(curve.xs)
            for x, y, s, n in zip(curve.xs, curve.ys, stds, ns):
                writer.writerow([curve.label, x, y, s, n])
    return path


def export_frame_csv(frame: ResultFrame, name: str) -> Path:
    """Write a frame (typically an :meth:`~repro.analysis.ResultFrame.aggregate`
    result) as CSV, one column per frame column.

    Non-finite values (``actual_compression`` can legitimately be ``inf``)
    render as ``inf``/``nan``, which ``float()`` parses back losslessly.
    """
    path = figures_dir() / f"{name}.csv"
    columns = frame.columns
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for rec in frame.to_records():
            writer.writerow([rec[c] for c in columns])
    return path

"""Per-CU spatial activity from sub-block pixel variances.

The activity of a coding block is one plus the smallest population
variance among its four quadrant sub-blocks, so a CU with any flat
quadrant counts as low-activity in that channel. A CU carries one such
value per channel, and a frame carries two normalization means: the
luma-only mean and the mean of the summed three-channel activity.

Sample sums and squared-sample sums are accumulated as exact integers
(one float division at the end), so results are bit-reproducible
regardless of block traversal order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import CbRect, CuRect, cb_rect, cu_grid, sub_blocks
from .yuv import Channel, ChromaFormat, Frame, Plane

__all__ = [
    "ActivityRecord",
    "FrameActivity",
    "block_mean",
    "block_variance",
    "cu_activity",
    "frame_activity",
]


@dataclass(frozen=True)
class ActivityRecord:
    """Spatial activity of one CU, one value per channel, each >= 1."""

    cu: CuRect
    luma: float
    cb: float
    cr: float

    @property
    def cross(self) -> float:
        """Combined activity over all three channels."""
        return self.luma + self.cb + self.cr


@dataclass(frozen=True)
class FrameActivity:
    """All CU records of a frame (raster order) plus the normalization means."""

    records: tuple[ActivityRecord, ...]
    t_luma: float
    t_cross: float


def _require_nonempty(rect) -> None:
    if rect.w <= 0 or rect.h <= 0:
        raise ValueError(f"rect {rect.w}x{rect.h} at ({rect.x},{rect.y}) is empty")


def block_mean(plane: Plane, rect) -> float:
    """Arithmetic mean of the samples under rect, from an exact integer sum."""
    _require_nonempty(rect)
    block = plane.data[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
    return int(block.sum(dtype=np.int64)) / (rect.w * rect.h)


def block_variance(plane: Plane, rect) -> float:
    """Population variance of the samples under rect.

    Computed from exact integer sums as (n*sum(s^2) - sum(s)^2) / n^2,
    which equals mean(s^2) - mean(s)^2 but cannot go negative through
    floating-point cancellation.
    """
    _require_nonempty(rect)
    block = plane.data[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].astype(np.int64)
    count = rect.w * rect.h
    s1 = int(block.sum())
    s2 = int((block * block).sum())
    return (count * s2 - s1 * s1) / (count * count)


def _cb_activity(plane: Plane, cb: CbRect) -> float:
    """One plus the minimum sub-block variance; empty quadrants are skipped."""
    variances = [block_variance(plane, sb) for sb in sub_blocks(cb) if not sb.empty]
    return 1.0 + min(variances)


def cu_activity(frame: Frame, cu: CuRect, chroma_format: ChromaFormat | None = None) -> ActivityRecord:
    """Per-channel activity of one CU (defaults to the frame's own subsampling)."""
    cf = chroma_format if chroma_format is not None else frame.format.chroma_format
    return ActivityRecord(
        cu=cu,
        luma=_cb_activity(frame.y, cb_rect(cu, Channel.Y, cf)),
        cb=_cb_activity(frame.cb, cb_rect(cu, Channel.CB, cf)),
        cr=_cb_activity(frame.cr, cb_rect(cu, Channel.CR, cf)),
    )


def frame_activity(frame: Frame, cu_size: int, max_workers: int | None = None) -> FrameActivity:
    """Activity records for every CU in raster order plus the frame means.

    The pass runs on one thread. max_workers is accepted and ignored; it
    is kept only because the benchmark replay still passes it.
    """
    records = tuple(cu_activity(frame, cu) for cu in cu_grid(frame.format, cu_size))
    count = len(records)
    t_luma = sum(r.luma for r in records) / count
    t_cross = sum(r.cross for r in records) / count
    return FrameActivity(records=records, t_luma=t_luma, t_cross=t_cross)

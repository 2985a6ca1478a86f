"""Per-CU spatial activity from sub-block pixel variances.

The activity of a coding block is one plus the smallest population
variance among its four quadrant sub-blocks, so a CU with any flat
quadrant counts as low-activity in that channel. A CU carries one such
value per channel, and a frame carries two normalization means: the
luma-only mean and the mean of the summed three-channel activity.

Sample sums and squared-sample sums are accumulated as exact integers
(one float division at the end), so results are bit-reproducible
regardless of block traversal order. frame_activity computes them for a
whole CU row of a plane at once; cu_activity and block_variance are the
per-block reference it must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import CbRect, CuRect, cb_rect, cu_grid, sub_blocks
from .yuv import Channel, Frame, Plane, VideoFormat

__all__ = [
    "ActivityRecord",
    "FrameActivity",
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


def block_variance(plane: Plane, rect) -> float:
    """Population variance of the samples under rect.

    Computed from exact integer sums as (n*sum(s^2) - sum(s)^2) / n^2,
    which equals mean(s^2) - mean(s)^2 but cannot go negative through
    floating-point cancellation.
    """
    if rect.w <= 0 or rect.h <= 0:
        raise ValueError(f"rect {rect.w}x{rect.h} at ({rect.x},{rect.y}) is empty")
    block = plane.data[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].astype(np.int64)
    count = rect.w * rect.h
    s1 = int(block.sum())
    s2 = int((block * block).sum())
    return (count * s2 - s1 * s1) / (count * count)


def _cb_activity(plane: Plane, cb: CbRect) -> float:
    """One plus the minimum sub-block variance; empty quadrants are skipped."""
    variances = [block_variance(plane, sb) for sb in sub_blocks(cb) if not sb.empty]
    return 1.0 + min(variances)


def cu_activity(frame: Frame, cu: CuRect) -> ActivityRecord:
    """Per-channel activity of one CU under the frame's own subsampling."""
    cf = frame.format.chroma_format
    return ActivityRecord(
        cu=cu,
        luma=_cb_activity(frame.y, cb_rect(cu, Channel.Y, cf)),
        cb=_cb_activity(frame.cb, cb_rect(cu, Channel.CB, cf)),
        cr=_cb_activity(frame.cr, cb_rect(cu, Channel.CR, cf)),
    )


def _quadrant_halves(length: int, cu_size: int, sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Plane start and size of both quadrant halves of every CU along one axis.

    Mirrors cb_rect and sub_blocks: a CU at luma offset p with clipped
    extent e covers ceil(e / sub) plane samples from p // sub, split into
    a ceiling first half and the (possibly empty) rest. Returns two
    int64 arrays of length 2 * CUs, first and second half interleaved.
    """
    origins = np.arange(0, length, cu_size)
    extents = -(-np.minimum(cu_size, length - origins) // sub)
    first = (extents + 1) // 2
    starts = np.stack((origins // sub, origins // sub + first), axis=1).ravel()
    sizes = np.stack((first, extents - first), axis=1).ravel()
    return starts, sizes


def _plane_activity(
    plane: Plane, fmt: VideoFormat, cu_size: int, sub_x: int, sub_y: int
) -> list[float]:
    """One plus the minimum quadrant variance of every CU's block in one plane, raster order.

    Works one CU row at a time, so temporaries stay the size of one strip,
    never of the plane. The strip's top and bottom quadrant rows are summed
    down the columns into int64, then np.add.reduceat sums every quadrant's
    columns; empty halves are left out of the reduction and count as
    infinite variance, as sub_blocks' empty quadrants are skipped.
    """
    x_starts, widths = _quadrant_halves(fmt.width, cu_size, sub_x)
    y_starts, heights = _quadrant_halves(fmt.height, cu_size, sub_y)
    rows, cols = heights.size // 2, widths.size // 2
    nonempty = widths > 0
    activity = np.empty((rows, cols))
    # (top/bottom, sum/squared sum, column half) of the current CU row
    sums = np.zeros((2, 2, widths.size), dtype=np.int64)
    for row in range(rows):
        y, top, bottom = y_starts[2 * row], heights[2 * row], heights[2 * row + 1]
        strip = plane.data[y : y + top + bottom]
        # Frame caps samples at 1023, so a square fits int32; sums go to int64.
        squares = np.square(strip, dtype=np.int32)
        columns = np.stack(
            (strip[:top].sum(axis=0, dtype=np.int64), squares[:top].sum(axis=0, dtype=np.int64),
             strip[top:].sum(axis=0, dtype=np.int64), squares[top:].sum(axis=0, dtype=np.int64))
        )
        sums.reshape(4, -1)[:, nonempty] = np.add.reduceat(columns, x_starts[nonempty], axis=1)
        counts = heights[2 * row : 2 * row + 2, None] * widths
        s1, s2 = sums[:, 0], sums[:, 1]
        # Exact in float64: n * sum(s^2) <= 1024 * 1024 * 1023^2 < 2^53.
        variances = np.where(
            counts > 0,
            (counts * s2 - s1 * s1) / np.maximum(counts * counts, 1),
            np.inf,
        )
        activity[row] = variances.reshape(2, cols, 2).min(axis=(0, 2))
    return (1.0 + activity).ravel().tolist()


def frame_activity(frame: Frame, cu_size: int, max_workers: int | None = None) -> FrameActivity:
    """Activity records for every CU in raster order plus the frame means.

    Bit-identical to cu_activity applied to each CU of cu_grid. The pass
    runs on one thread. max_workers is accepted and ignored; it is kept
    only because the benchmark replay still passes it.
    """
    fmt = frame.format
    sub = fmt.chroma_format.sub_x, fmt.chroma_format.sub_y
    records = tuple(
        ActivityRecord(cu, luma, cb, cr)
        for cu, luma, cb, cr in zip(
            cu_grid(fmt, cu_size),
            _plane_activity(frame.y, fmt, cu_size, 1, 1),
            _plane_activity(frame.cb, fmt, cu_size, *sub),
            _plane_activity(frame.cr, fmt, cu_size, *sub),
        )
    )
    count = len(records)
    t_luma = sum(r.luma for r in records) / count
    t_cross = sum(r.cross for r in records) / count
    return FrameActivity(records=records, t_luma=t_luma, t_cross=t_cross)

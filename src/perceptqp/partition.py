"""The per-CU scalar reference: CU grid, coding blocks, activity and QP.

CUs live on the luma sampling grid at one of the sizes 64, 32 or 16.
Each CU projects to one coding block per channel (chroma blocks shrink
under subsampling), and every coding block splits into four quadrant
sub-blocks. Frame-boundary CUs are clipped; clipping may leave some
quadrants empty.

This is the one module that works per CU in Python objects. The array
path (activity.frame_activity, activity.stream_activity and qp.qp_grid)
must match cu_activity and cu_qp bit for bit, and the tests compare it
against them. Nothing in activity, qp, yuv or cli imports this module,
so a CLI run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activity import check_cu_size
from .qp import QP_MAX, QP_MIN, Mode, QpConfig, Rounding, TMode, scaling_factor
from .yuv import Channel, ChromaFormat, Frame, Plane, VideoFormat


@dataclass(frozen=True)
class CuRect:
    """A CU located in luma samples; clipped extents stay inside the frame."""

    x: int
    y: int
    size: int
    clipped_w: int
    clipped_h: int


@dataclass(frozen=True)
class CbRect:
    """A rectangle in one channel's plane: a coding block or one of its quadrants.

    A quadrant may be empty after boundary clipping.
    """

    channel: Channel
    x: int
    y: int
    w: int
    h: int

    @property
    def empty(self) -> bool:
        return self.w == 0 or self.h == 0

    @property
    def area(self) -> int:
        return self.w * self.h


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
    """A frame's CU records (raster order) plus the normalization means."""

    records: tuple[ActivityRecord, ...]
    t_luma: float
    t_cross: float


def cu_grid(fmt: VideoFormat, cu_size: int) -> list[CuRect]:
    """Tile the frame with cu_size CUs in raster order.

    Boundary CUs carry clipped extents smaller than cu_size when the frame
    dimensions are not multiples of it; together the clipped rectangles
    cover every luma sample exactly once.
    """
    cu_size = check_cu_size(cu_size)
    grid = []
    for y in range(0, fmt.height, cu_size):
        for x in range(0, fmt.width, cu_size):
            grid.append(
                CuRect(
                    x,
                    y,
                    cu_size,
                    min(cu_size, fmt.width - x),
                    min(cu_size, fmt.height - y),
                )
            )
    return grid


def cb_rect(cu: CuRect, channel: Channel, chroma_format: ChromaFormat) -> CbRect:
    """Project a CU onto one channel's plane.

    Chroma coordinates divide exactly because CU origins are multiples of
    an even CU size; clipped extents round up so every luma-covered chroma
    column and row is included.
    """
    if channel is Channel.Y:
        return CbRect(channel, cu.x, cu.y, cu.clipped_w, cu.clipped_h)
    sx, sy = chroma_format.sub_x, chroma_format.sub_y
    return CbRect(
        channel,
        cu.x // sx,
        cu.y // sy,
        -(-cu.clipped_w // sx),
        -(-cu.clipped_h // sy),
    )


def sub_blocks(cb: CbRect) -> tuple[CbRect, CbRect, CbRect, CbRect]:
    """Split a coding block into its four quadrants.

    Odd extents split with ceiling halves, so left/top quadrants are never
    starved; right/bottom quadrants of a clipped block may come out empty
    and are excluded from activity aggregation downstream.
    """
    left = (cb.w + 1) // 2
    top = (cb.h + 1) // 2
    right = cb.w - left
    bottom = cb.h - top
    return (
        CbRect(cb.channel, cb.x, cb.y, left, top),
        CbRect(cb.channel, cb.x + left, cb.y, right, top),
        CbRect(cb.channel, cb.x, cb.y + top, left, bottom),
        CbRect(cb.channel, cb.x + left, cb.y + top, right, bottom),
    )


def block_variance(plane: Plane, rect: CbRect) -> float:
    """Population variance of the samples under rect, which must lie inside the plane.

    Computed from exact integer sums as (n*sum(s^2) - sum(s)^2) / n^2,
    which equals mean(s^2) - mean(s)^2 but cannot go negative through
    floating-point cancellation.
    """
    where = f"rect {rect.w}x{rect.h} at ({rect.x},{rect.y})"
    if rect.w <= 0 or rect.h <= 0:
        raise ValueError(f"{where} is empty")
    if rect.x < 0 or rect.y < 0 or rect.x + rect.w > plane.width or rect.y + rect.h > plane.height:
        raise ValueError(f"{where} leaves the {plane.width}x{plane.height} plane")
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


def normalized_activity(s: float, t: float, f: float) -> float:
    """Normalize activity s against the frame mean t.

    Returns (f*s + t) / (s + f*t), which is 1 when s == t and approaches
    f (resp. 1/f) as s grows far above (resp. below) t. The result is
    clamped to [1/f, f], which float rounding can leave by an ulp.
    """
    return min(max((f * s + t) / (s + f * t), 1.0 / f), f)


def round_half_away_from_zero(x: float) -> int:
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def delta_qp(n: float, rounding: Rounding = Rounding.NEAREST) -> int:
    """Integer QP offset for a normalized activity: 6*log2(n), rounded."""
    raw = 6.0 * math.log2(n)
    if rounding is Rounding.CEILING:
        return math.ceil(raw)
    return round_half_away_from_zero(raw)


def cu_qp(config: QpConfig, record: ActivityRecord, activity: FrameActivity) -> int:
    """QP for one CU, clipped to the legal [0, 51] range."""
    f = scaling_factor(config.qp_range)
    if config.mode is Mode.ADAPTIVE_QP:
        s, t = record.luma, activity.t_luma
    else:
        s = record.cross
        t = activity.t_cross if config.t_mode is TMode.CROSS else activity.t_luma
    n = normalized_activity(s, t, f)
    qp = config.slice_qp + delta_qp(n, config.rounding)
    return min(QP_MAX, max(QP_MIN, qp))

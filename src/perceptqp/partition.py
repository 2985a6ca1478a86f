"""CU grid construction and per-channel coding-block geometry.

CUs live on the luma sampling grid at one of the sizes 64, 32 or 16.
Each CU projects to one coding block per channel (chroma blocks shrink
under subsampling), and every coding block splits into four quadrant
sub-blocks. Frame-boundary CUs are clipped; clipping may leave some
quadrants empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qp import CU_SIZES, grid_dims
from .yuv import Channel, ChromaFormat, VideoFormat

__all__ = [
    "CU_SIZES",
    "CbRect",
    "CuRect",
    "cb_rect",
    "cu_grid",
    "grid_dims",
    "sub_blocks",
]


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


def cu_grid(fmt: VideoFormat, cu_size: int) -> list[CuRect]:
    """Tile the frame with cu_size CUs in raster order.

    Boundary CUs carry clipped extents smaller than cu_size when the frame
    dimensions are not multiples of it; together the clipped rectangles
    cover every luma sample exactly once.
    """
    if cu_size not in CU_SIZES:
        raise ValueError(f"cu_size {cu_size} unsupported; choose one of {CU_SIZES}")
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

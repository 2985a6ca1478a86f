"""Per-CU spatial activity from sub-block pixel variances.

The activity of a coding block is one plus the smallest population
variance among its four quadrant sub-blocks, so a CU with any flat
quadrant counts as low-activity in that channel. A CU carries one such
value per channel, and a frame carries two normalization means: the
luma-only mean and the mean of the summed three-channel activity.

Sample sums and squared-sample sums are accumulated as exact integers
(one float division at the end), so results are bit-reproducible
regardless of block traversal order. frame_activity, the first of the
library's two passes, computes them for a whole CU row of a decoded
frame's plane at once and returns one (rows, cols) array per channel;
stream_activity does the same for a frame read from a stream one CU row
at a time. Both must match partition.cu_activity, the per-CU reference,
bit for bit. The frame means fold the activities strictly left to right
in raster order, as Python's sum() did up to 3.11.
"""

from __future__ import annotations

from itertools import accumulate
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .yuv import Channel, Frame, VideoFormat, read_strips


class ActivityArrays(NamedTuple):
    """Per-channel activity of a frame's CUs, each (rows, cols), plus the frame means.

    cb, cr and t_cross are None when only luma was computed.
    """

    luma: np.ndarray
    cb: np.ndarray | None
    cr: np.ndarray | None
    t_luma: float
    t_cross: float | None

    @property
    def cross(self) -> np.ndarray:
        """Combined activity over all three channels, added as partition.ActivityRecord.cross does.

        A new array each call, so the caller may write to it.
        """
        cross = self.luma + self.cb
        cross += self.cr
        return cross


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


class _RowTerms(NamedTuple):
    """What a CU row's variances need besides its sums, each (top/bottom, column half)."""

    top: int
    counts: np.ndarray
    nonempty: np.ndarray
    denominator: np.ndarray


class _PlanePlan(NamedTuple):
    """The geometry of one plane's CU rows: strip heights, reduceat starts and per-row terms."""

    heights: tuple[int, ...]
    starts: np.ndarray
    width: int
    cols: int
    tallest_half: int
    rows: tuple[_RowTerms, ...]


def _row_terms(top: int, bottom: int, widths: np.ndarray) -> _RowTerms:
    counts = np.array([[top], [bottom]]) * widths
    return _RowTerms(top, counts, counts > 0, np.maximum(counts * counts, 1))


def _plane_plan(fmt: VideoFormat, cu_size: int, sub_x: int, sub_y: int) -> _PlanePlan:
    """The strips, reduceat starts and per-row variance terms of one plane of a frame.

    The strips tile the plane exactly: where chroma is subsampled vertically
    the height is even, so the CU rows' chroma extents add up to half of it.
    Every CU row but a clipped last one has the same halves, so they share
    one _RowTerms. A frame builds its own plans, one for luma and one that
    Cb and Cr share, so nothing outlives the frame.
    """
    x_starts, widths = _quadrant_halves(fmt.width, cu_size, sub_x)
    _, heights = _quadrant_halves(fmt.height, cu_size, sub_y)
    halves = list(map(tuple, heights.reshape(-1, 2).tolist()))
    width = fmt.width // sub_x
    # A half is empty only where a CU's extent is one sample, which only the
    # last CU can have; its right half then starts one past the plane's edge,
    # where reduceat cannot start. Clamped to the last column, that start keeps
    # the one-column left half exact, and the empty half's zero count
    # discards its own sum.
    starts = np.minimum(x_starts, width - 1)
    regular = _row_terms(*halves[0], widths)
    rows = tuple(
        regular if (top, bottom) == halves[0] else _row_terms(top, bottom, widths)
        for top, bottom in halves
    )
    return _PlanePlan(
        heights=tuple(map(sum, halves)),
        starts=starts,
        width=width,
        cols=widths.size // 2,
        tallest_half=int(heights.max()),
        rows=rows,
    )


def _plane_activity(strips: Iterable[np.ndarray], plan: _PlanePlan) -> np.ndarray:
    """One plus the minimum quadrant variance of every CU's block in one plane, as (rows, cols).

    strips are the plane's CU-row strips, top to bottom, with plan.heights
    rows; each is used only until the next is drawn, so they may share one
    buffer. Temporaries stay the size of one strip, never of the plane, and
    the int32 copy the size of one quadrant half. Each of the strip's top
    and bottom quadrant halves is copied into int32 once and summed down the
    columns, then squared in place and summed again; np.add.reduceat then
    sums every quadrant's columns into int64. An empty half counts as
    infinite variance, as sub_blocks' empty quadrants are skipped.
    """
    width = plan.width
    activity = np.empty((len(plan.rows), plan.cols))
    # Frame caps samples at 1023 and the largest quadrant is 32x32 (CU 64 luma,
    # or 4:4:4 chroma), so every quadrant's sum(s^2) <= 1024 * 1023^2 =
    # 1,071,645,696 fits int32 (< 2^31 - 1), and so does each column sum.
    # read_strips checks a plane only after its last strip; sums that wrapped
    # on an illegal sample before then are discarded with the error it raises.
    # (sum/squared sum, top/bottom, column) of the current CU row
    columns = np.empty((2, 2, width), dtype=np.int32)
    # (sum/squared sum, top/bottom, column half); int64 so that s1 * s1 fits
    sums = np.empty((2, 2, 2 * plan.cols), dtype=np.int64)
    # One int32 buffer for every half, top and bottom in turn, so it is half a
    # strip: a fresh one each time would be mapped and unmapped once it is
    # larger than malloc's mmap threshold. Summing and squaring an int32 copy
    # skips the buffered casting loops that sum(dtype=) and square(dtype=) run
    # on uint8 and uint16 samples.
    buffer = np.empty((plan.tallest_half, width), dtype=np.int32)
    # strict: zip draws once past the last strip, which lets a reader finish
    # its range check, and it refuses a strip count that is not rows.
    for row, (terms, strip) in enumerate(zip(plan.rows, strips, strict=True)):
        for half, values in enumerate((strip[: terms.top], strip[terms.top :])):
            samples = buffer[: len(values)]
            np.copyto(samples, values, casting="unsafe")
            samples.sum(axis=0, out=columns[0, half])
            np.multiply(samples, samples, out=samples)
            samples.sum(axis=0, out=columns[1, half])
        np.add.reduceat(columns.reshape(4, width), plan.starts, axis=1, out=sums.reshape(4, -1))
        s1, s2 = sums
        # Exact in float64: n * sum(s^2) <= 1024 * 1024 * 1023^2 < 2^53.
        variances = np.where(
            terms.nonempty, (terms.counts * s2 - s1 * s1) / terms.denominator, np.inf
        )
        activity[row] = variances.reshape(2, plan.cols, 2).min(axis=(0, 2))
    activity += 1.0
    return activity


def _raster_mean(values: np.ndarray) -> float:
    """Mean of values summed strictly left to right in raster order.

    np.sum adds pairwise and Python 3.12's sum() compensates, so either
    can differ from this fold in the last bit; np.cumsum adds in sequence.
    """
    return float(np.cumsum(values)[-1]) / values.size


def _frame_arrays(
    strips: Callable[[Channel, Sequence[int]], Iterable[np.ndarray]],
    fmt: VideoFormat,
    cu_size: int,
    chroma: bool,
) -> ActivityArrays:
    """Activity of one frame whose planes strips(channel, heights) yields in Y, Cb, Cr order.

    With chroma false the chroma strips are still drawn, so a reader can
    range-check them, but not analysed.
    """
    cf = fmt.chroma_format
    luma_plan = _plane_plan(fmt, cu_size, 1, 1)
    luma = _plane_activity(strips(Channel.Y, luma_plan.heights), luma_plan)
    chroma_plan = _plane_plan(fmt, cu_size, cf.sub_x, cf.sub_y)
    if not chroma:
        for channel in (Channel.CB, Channel.CR):
            for _ in strips(channel, chroma_plan.heights):
                pass
        return ActivityArrays(luma, None, None, _raster_mean(luma), None)
    cb = _plane_activity(strips(Channel.CB, chroma_plan.heights), chroma_plan)
    cr = _plane_activity(strips(Channel.CR, chroma_plan.heights), chroma_plan)
    return ActivityArrays(luma, cb, cr, _raster_mean(luma), _raster_mean(luma + cb + cr))


def frame_activity(
    frame: Frame, cu_size: int, max_workers: int | None = None, *, chroma: bool = True
) -> ActivityArrays:
    """Activity of every CU as (rows, cols) arrays, plus the frame means: the first pass of qp_map.

    Each element is bit-identical to partition.cu_activity of that CU. With
    chroma false only the luma plane is analysed, and cb, cr and t_cross are
    None. max_workers is accepted and ignored; it is kept only because the
    benchmark replay still passes it.
    """
    planes = {Channel.Y: frame.y, Channel.CB: frame.cb, Channel.CR: frame.cr}

    def strips(channel: Channel, heights: Sequence[int]) -> Iterator[np.ndarray]:
        data = planes[channel].data
        for y, rows in zip(accumulate(heights, initial=0), heights):
            yield data[y : y + rows]

    return _frame_arrays(strips, frame.format, cu_size, chroma)


def stream_activity(
    stream: BinaryIO, fmt: VideoFormat, cu_size: int, chroma: bool = True
) -> ActivityArrays:
    """frame_activity of the frame at the stream's position, read one CU row at a time.

    Bit-identical to frame_activity(read_frame(...), cu_size, chroma=chroma),
    and raises the errors read_frame and Frame raise, but holds one CU row of
    samples per plane, never the frame. Every plane is read and
    range-checked whatever chroma is, so the stream is left at the next
    frame.
    """
    return _frame_arrays(
        lambda channel, heights: read_strips(stream, fmt, channel, heights), fmt, cu_size, chroma
    )

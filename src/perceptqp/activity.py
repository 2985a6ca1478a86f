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

import numbers
from itertools import accumulate
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .yuv import Channel, Frame, VideoFormat, read_strips

# The CU sizes the QP maps support. qp imports this module, so the tuple lives
# here and qp re-exports it.
CU_SIZES = (16, 32, 64)


def check_cu_size(cu_size: int) -> None:
    """Raise ValueError unless cu_size is one of CU_SIZES, as an integer.

    16.0 == 16, but a float size cannot slice a plane.
    """
    if not isinstance(cu_size, numbers.Integral) or cu_size not in CU_SIZES:
        raise ValueError(f"cu_size {cu_size} unsupported; choose one of {CU_SIZES}")


class ActivityArrays(NamedTuple):
    """Per-channel activity of a frame's CUs, each (rows, cols), their sum and the frame means.

    cross adds l + b + d as partition.ActivityRecord.cross does. cb, cr,
    t_cross and cross are None when only luma was computed.
    """

    luma: np.ndarray
    cb: np.ndarray | None
    cr: np.ndarray | None
    t_luma: float
    t_cross: float | None
    cross: np.ndarray | None


def _halves(length: int, cu_size: int, sub: int) -> list[tuple[int, int]]:
    """Sizes of both quadrant halves of every CU's block along one axis, in plane samples.

    Mirrors cb_rect and sub_blocks: a CU with clipped luma extent e covers
    ceil(e / sub) plane samples, split into a ceiling first half and the
    (possibly empty) rest. Every CU but a clipped last one is cu_size wide,
    so a CU's block starts where the halves before it end.
    """
    extents = (-(-min(cu_size, length - origin) // sub) for origin in range(0, length, cu_size))
    return [((extent + 1) // 2, extent // 2) for extent in extents]


def _plane_activity(
    strips: Iterable[np.ndarray],
    width: int,
    x_halves: Sequence[tuple[int, int]],
    y_halves: Sequence[tuple[int, int]],
) -> np.ndarray:
    """One plus the minimum quadrant variance of every CU's block in one plane, as (rows, cols).

    strips are the plane's CU-row strips, top to bottom, each as tall as its
    y_halves pair; each is used only until the next is drawn, so they
    may share one buffer. Temporaries stay the size of one strip, never of
    the plane, and the int32 copy the size of one quadrant half. Each of the
    strip's top and bottom quadrant halves is copied into int32 once and
    summed down the columns, then squared in place and summed again;
    np.add.reduceat then sums every quadrant's columns into int64. An empty
    half counts as infinite variance, as sub_blocks' empty quadrants are skipped.
    """
    cols = len(x_halves)
    widths = np.array(x_halves).ravel()
    # A half is empty only where a CU's extent is one sample, which only the
    # last CU can have; its right half then starts one past the plane's edge,
    # where reduceat cannot start. Clamped to the last column, that start keeps
    # the one-column left half exact, and the empty half's zero count
    # discards its own sum.
    starts = np.minimum(np.cumsum(widths) - widths, width - 1)
    # Every CU row but a clipped last one has the same halves, so they share
    # one set of counts, nonempty mask and denominators.
    row_counts = ((pair, np.array(pair)[:, None] * widths) for pair in set(y_halves))
    terms = {pair: (n, n > 0, np.maximum(n * n, 1)) for pair, n in row_counts}
    activity = np.empty((len(y_halves), cols))
    # Frame caps samples at 1023 and the largest quadrant is 32x32 (CU 64 luma,
    # or 4:4:4 chroma), so every quadrant's sum(s^2) <= 1024 * 1023^2 =
    # 1,071,645,696 fits int32 (< 2^31 - 1), and so does each column sum.
    # read_strips checks a plane only after its last strip; sums that wrapped
    # on an illegal sample before then are discarded with the error it raises.
    # (sum/squared sum, top/bottom, column) of the current CU row
    columns = np.empty((2, 2, width), dtype=np.int32)
    # (sum/squared sum, top/bottom, column half); int64 so that s1 * s1 fits
    sums = np.empty((2, 2, 2 * cols), dtype=np.int64)
    # One int32 buffer for every half, top and bottom in turn, so it is half a
    # strip: a fresh one each time would be mapped and unmapped once it is
    # larger than malloc's mmap threshold. Summing and squaring an int32 copy
    # skips the buffered casting loops that sum(dtype=) and square(dtype=) run
    # on uint8 and uint16 samples.
    buffer = np.empty((max(top for top, _ in y_halves), width), dtype=np.int32)
    # strict: zip draws once past the last strip, which lets a reader finish
    # its range check, and it refuses a strip count that is not rows.
    for row, (pair, strip) in enumerate(zip(y_halves, strips, strict=True)):
        for half, values in enumerate((strip[: pair[0]], strip[pair[0] :])):
            samples = buffer[: len(values)]
            np.copyto(samples, values, casting="unsafe")
            samples.sum(axis=0, out=columns[0, half])
            np.multiply(samples, samples, out=samples)
            samples.sum(axis=0, out=columns[1, half])
        np.add.reduceat(columns.reshape(4, width), starts, axis=1, out=sums.reshape(4, -1))
        s1, s2 = sums
        counts, nonempty, denominator = terms[pair]
        # Exact in float64: n * sum(s^2) <= 1024 * 1024 * 1023^2 < 2^53.
        variances = np.where(nonempty, (counts * s2 - s1 * s1) / denominator, np.inf)
        activity[row] = variances.reshape(2, cols, 2).min(axis=(0, 2))
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
    range-check them, but not analysed. A cu_size outside CU_SIZES is
    refused before any strip is drawn: the int32 sums are exact only up to
    32x32 quadrants.
    """
    check_cu_size(cu_size)
    cf = fmt.chroma_format
    luma_x = _halves(fmt.width, cu_size, 1)
    luma_y = _halves(fmt.height, cu_size, 1)
    luma = _plane_activity(strips(Channel.Y, list(map(sum, luma_y))), fmt.width, luma_x, luma_y)
    # Cb and Cr share their halves. The strips tile each plane exactly: where
    # chroma is subsampled vertically the height is even, so the CU rows'
    # chroma extents add up to half of it.
    chroma_x = _halves(fmt.width, cu_size, cf.sub_x)
    chroma_y = _halves(fmt.height, cu_size, cf.sub_y)
    heights = list(map(sum, chroma_y))
    if not chroma:
        for channel in (Channel.CB, Channel.CR):
            for _ in strips(channel, heights):
                pass
        return ActivityArrays(luma, None, None, _raster_mean(luma), None, None)
    width = fmt.width // cf.sub_x
    cb = _plane_activity(strips(Channel.CB, heights), width, chroma_x, chroma_y)
    cr = _plane_activity(strips(Channel.CR, heights), width, chroma_x, chroma_y)
    cross = luma + cb
    cross += cr
    return ActivityArrays(luma, cb, cr, _raster_mean(luma), _raster_mean(cross), cross)


def frame_activity(
    frame: Frame, cu_size: int, max_workers: int | None = None, *, chroma: bool = True
) -> ActivityArrays:
    """Activity of every CU as (rows, cols) arrays, plus the frame means: the first pass of qp_map.

    Each element is bit-identical to partition.cu_activity of that CU. With
    chroma false only the luma plane is analysed, and cb, cr, t_cross and
    cross are None. max_workers is accepted and ignored; it is kept only
    because the benchmark replay still passes it.
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

"""Raw planar YCbCr video I/O.

Frames are stored as consecutive Y, Cb, Cr planes with no container
metadata. 8-bit samples occupy one byte; 10-bit samples occupy two bytes
little-endian with the low 10 bits significant (legal values 0..1023,
anything above is treated as corrupt input rather than masked).
read_strips is the one decoder of stored samples: the CLI draws each
plane from it in CU-row strips, and read_frame draws each as one strip.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

import numpy as np

# The geometry and its errors live in config, which loads no numpy; they are re-exported here.
from .config import (
    Channel,
    ChromaFormat,
    SampleRangeError,
    TruncatedInputError,
    VideoFormat,
    YuvError,
    _integer,
)


def plane_dims(fmt: VideoFormat, channel: Channel) -> tuple[int, int]:
    """Per-channel plane size as (width, height) in samples."""
    if channel is Channel.Y:
        return fmt.width, fmt.height
    cf = fmt.chroma_format
    return fmt.width // cf.sub_x, fmt.height // cf.sub_y


def frame_bytes(fmt: VideoFormat) -> int:
    """Exact number of bytes one stored frame occupies."""
    samples = 0
    for channel in Channel:
        w, h = plane_dims(fmt, channel)
        samples += w * h
    return samples * fmt.bytes_per_sample


@dataclass(eq=False)
class Plane:
    """One channel of samples as a row-major (height, width) integer array.

    Float samples are refused: the activity pass and its per-CU
    reference would treat them differently.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise YuvError(f"plane data must be 2-D, got {self.data.ndim}-D")
        if not np.issubdtype(self.data.dtype, np.integer):
            raise YuvError(f"plane samples must be integers, got {self.data.dtype}")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plane):
            return NotImplemented
        return bool(np.array_equal(self.data, other.data))


@dataclass
class Frame:
    """A decoded frame: three planes plus the format they were declared with."""

    y: Plane
    cb: Plane
    cr: Plane
    format: VideoFormat

    def __post_init__(self) -> None:
        for channel, plane in ((Channel.Y, self.y), (Channel.CB, self.cb), (Channel.CR, self.cr)):
            expect = plane_dims(self.format, channel)
            got = (plane.width, plane.height)
            if got != expect:
                raise YuvError(f"{channel.value} plane is {got}, format implies {expect}")
            _check_samples(channel, self.format, plane.data)


def _check_samples(channel: Channel, fmt: VideoFormat, samples: np.ndarray) -> None:
    """Raise SampleRangeError, quoting the worst of samples, unless each is legal for fmt.

    Takes only the extremes samples' dtype can make illegal: the min of a
    signed dtype, the max of one wider than fmt's bit depth.
    """
    info = np.iinfo(samples.dtype)
    lo = int(samples.min()) if info.min < 0 else 0
    worst = lo if lo < 0 or info.max <= fmt.max_sample else int(samples.max())
    if not 0 <= worst <= fmt.max_sample:
        raise SampleRangeError(f"{channel.value} sample out of range 0..{fmt.max_sample} (saw {worst})")


def _storage_dtype(fmt: VideoFormat) -> np.dtype:
    # 10-bit samples are stored as explicit little-endian 16-bit words.
    return fmt.dtype.newbyteorder("<")


def read_frame(source: BinaryIO, fmt: VideoFormat, index: int = 0) -> Frame:
    """Read the index-th frame (0-based) from a seekable planar stream.

    Seeks to the frame and reads each plane with read_strips as one strip,
    so it raises what read_strips raises: TruncatedInputError if the stream
    holds fewer than index+1 whole frames, and SampleRangeError if a 10-bit
    sample is >= 1024. Each plane is a writable array of the native dtype
    backed by a buffer of exactly its decoded size, so a frame occupies its
    decoded size once. A negative or non-integer index raises YuvError before the stream moves.
    """
    index = _integer("frame index", index)
    if index < 0:
        raise YuvError(f"frame index {index} is negative")
    source.seek(index * frame_bytes(fmt))
    planes = []
    for channel in Channel:
        (data,) = read_strips(source, fmt, channel, (plane_dims(fmt, channel)[1],))
        planes.append(Plane(data))
    return Frame(*planes, format=fmt)


def read_strips(
    source: BinaryIO, fmt: VideoFormat, channel: Channel, heights: Sequence[int]
) -> Iterator[np.ndarray]:
    """Read one plane at the stream's position as consecutive strips of the given row counts.

    heights must sum to the plane's height. Each strip is a (rows, width)
    view of one reused buffer of the native dtype, sized for the tallest
    strip, so a strip is valid only until the next one is requested; copy
    it to keep it. The stream needs only readinto, so a pipe will do; a
    short read raises TruncatedInputError, and the caller numbers the frame.
    A strip holding an illegal sample is not yielded but raises
    SampleRangeError with Frame's message, quoting the strip's worst sample,
    with the stream just past it; a legal plane leaves it at the plane's end.
    """
    width, _ = plane_dims(fmt, channel)
    stored = np.empty(max(heights) * width, dtype=_storage_dtype(fmt))
    done = 0
    for rows in heights:
        part = stored[: rows * width]
        got = source.readinto(part.view(np.uint8))
        done += got
        if got < part.nbytes:
            raise TruncatedInputError(
                f"the {channel.value} plane needed {sum(heights) * width * fmt.bytes_per_sample} bytes,"
                f" stream had {done}"
            )
        # readinto fills the buffer in place; the dtype change copies only on
        # a big-endian host, where the stored little-endian words must be swapped.
        strip = part.astype(fmt.dtype, copy=False).reshape(rows, width)
        _check_samples(channel, fmt, strip)
        yield strip


def write_frame(sink: BinaryIO, frame: Frame) -> int:
    """Append one frame in the planar layout read_frame consumes.

    Returns the number of bytes written, always frame_bytes(frame.format).
    """
    dtype = _storage_dtype(frame.format)
    written = 0
    for plane in (frame.y, frame.cb, frame.cr):
        buf = np.ascontiguousarray(plane.data, dtype=dtype).tobytes()
        sink.write(buf)
        written += len(buf)
    return written


def probe_frame_count(source: BinaryIO, fmt: VideoFormat) -> int:
    """Whole frames in a seekable stream.

    The stream size must be an exact multiple of the frame size; anything
    else means the declared geometry does not match the file.
    """
    source.seek(0, io.SEEK_END)
    size = source.tell()
    count, leftover = divmod(size, frame_bytes(fmt))
    if leftover:
        raise YuvError(
            f"stream size {size} is not a multiple of the {frame_bytes(fmt)}-byte frame size;"
            f" declared geometry is wrong"
        )
    return count

"""Shared test fixtures: hypothesis strategies, hand-made frames, references and RD points.

Random pixel data comes from a numpy generator seeded by a drawn integer,
which keeps example generation fast while shape and format still shrink.
"""

import operator
from functools import reduce

import numpy as np
from hypothesis import strategies as st

from perceptqp import Channel, ChromaFormat, Frame, FrameActivity, Plane, RdPoint, VideoFormat
from perceptqp import cu_activity, cu_grid, plane_dims


@st.composite
def video_formats(draw, max_dim=48, bit_depths=(8, 10), max_height=None):
    max_height = max_dim if max_height is None else max_height
    cf = draw(st.sampled_from(list(ChromaFormat)))
    depth = draw(st.sampled_from(bit_depths))
    if cf.sub_x == 2:
        width = 2 * draw(st.integers(1, max_dim // 2))
    else:
        width = draw(st.integers(1, max_dim))
    if cf.sub_y == 2:
        height = 2 * draw(st.integers(1, max_height // 2))
    else:
        height = draw(st.integers(1, max_height))
    return VideoFormat(width, height, depth, cf)


def random_plane(rng, width, height, fmt, lo=0, hi=None):
    hi = fmt.max_sample if hi is None else hi
    return Plane(rng.integers(lo, hi + 1, size=(height, width), dtype=fmt.dtype))


def random_frame(fmt, seed, lo=0, hi=None):
    rng = np.random.default_rng(seed)
    planes = []
    for channel in Channel:
        w, h = plane_dims(fmt, channel)
        planes.append(random_plane(rng, w, h, fmt, lo=lo, hi=hi))
    return Frame(*planes, format=fmt)


@st.composite
def frames(draw, fmt=None, max_dim=48):
    if fmt is None:
        fmt = draw(video_formats(max_dim=max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_frame(fmt, seed)


# The largest clip the CLI strategies draw: partial CU rows and columns at every CU size.
MAX_WIDTH, MAX_HEIGHT = 200, 130


def textured_plane(rng, height, width, max_sample):
    """Samples in a band [base, base + span] narrower than the legal range, so a shift has room.

    Noise is scaled by a gain drawn per 4x4 block and cubed, so quadrants
    run from flat to busy and the CUs' activities, and so their QPs, differ.
    """
    span = int(rng.integers(0, max_sample))
    base = int(rng.integers(0, max_sample - span + 1))
    gain = rng.random((-(-height // 4), -(-width // 4))) ** 3
    gain = gain.repeat(4, axis=0).repeat(4, axis=1)[:height, :width]
    noise = (rng.random((height, width)) * gain * (span + 1)).astype(np.int64)
    return base + np.minimum(noise, span)


def textured_frames(rng, fmt, count):
    """count frames of fmt, each a list of textured Y, Cb and Cr int64 planes."""
    cf = fmt.chroma_format
    shapes = [(fmt.height, fmt.width)] + 2 * [(fmt.height // cf.sub_y, fmt.width // cf.sub_x)]
    return [[textured_plane(rng, h, w, fmt.max_sample) for h, w in shapes] for _ in range(count)]


@st.composite
def clips(draw, chroma=tuple(ChromaFormat), bit_depths=(8, 10), frames=(1, 3)):
    """(fmt, cu_size, frames): each frame is a list of Y, Cb and Cr int64 planes."""
    cf = draw(st.sampled_from(chroma))
    width = cf.sub_x * draw(st.integers(1, MAX_WIDTH // cf.sub_x))
    height = cf.sub_y * draw(st.integers(1, MAX_HEIGHT // cf.sub_y))
    fmt = VideoFormat(width, height, draw(st.sampled_from(bit_depths)), cf)
    cu_size = draw(st.sampled_from([16, 32, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return fmt, cu_size, textured_frames(rng, fmt, draw(st.integers(*frames)))


def stored(samples, fmt):
    """The bytes of samples as a raw clip of fmt holds them: 10-bit as little-endian words."""
    return samples.astype("<u2" if fmt.bit_depth == 10 else np.uint8).tobytes()


def write_clip(path, fmt, frames):
    """Store frames of sample planes as a raw clip of fmt, with numpy alone."""
    with open(path, "wb") as sink:
        for planes in frames:
            for plane in planes:
                sink.write(stored(plane, fmt))


def checkerboard(h, w, lo, hi, dtype=np.uint8):
    grid = np.add.outer(np.arange(h), np.arange(w)) % 2
    return np.where(grid.astype(bool), hi, lo).astype(dtype)


def tiled_frame():
    """128x64 4:2:0: every CU carries identical texture, so both rules stay at the slice QP."""
    y = np.tile(checkerboard(64, 64, 60, 196), (1, 2))
    cb = np.tile(checkerboard(32, 32, 100, 140), (1, 2))
    cr = np.tile(checkerboard(32, 32, 90, 150), (1, 2))
    return Frame(Plane(y), Plane(cb), Plane(cr), VideoFormat(128, 64, 8, ChromaFormat.YUV420))


def chroma_contrast_frame():
    """Uniform luma texture; one CU carries much busier chroma than the rest."""
    fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
    y = np.tile(checkerboard(64, 64, 50, 200), (2, 2))
    cb = np.full((64, 64), 128, dtype=np.uint8)
    cr = np.full((64, 64), 128, dtype=np.uint8)
    cb[0:32, 0:32] = checkerboard(32, 32, 0, 255)
    cr[0:32, 0:32] = checkerboard(32, 32, 0, 255)
    return Frame(Plane(y), Plane(cb), Plane(cr), fmt)


def reference_frame_activity(frame, cu_size):
    """frame_activity rebuilt from the per-CU scalar reference, same summation order.

    The means fold left to right with operator.add: sum() of floats is
    compensated from Python 3.12 on and would round differently.
    """
    records = tuple(cu_activity(frame, cu) for cu in cu_grid(frame.format, cu_size))
    t_luma = reduce(operator.add, (r.luma for r in records)) / len(records)
    t_cross = reduce(operator.add, (r.cross for r in records)) / len(records)
    return FrameActivity(records, t_luma, t_cross)


def assert_equals_reference(act, reference):
    """Assert that ActivityArrays act equals a reference FrameActivity exactly.

    Each channel's array and the cross sum, in raster order, must hold the
    records' values, and both frame means must be the reference's, compared
    as floats with ==.
    """
    for channel in ("luma", "cb", "cr", "cross"):
        values = getattr(act, channel).ravel().tolist()
        assert values == [getattr(r, channel) for r in reference.records], channel
    assert (act.t_luma, act.t_cross) == (reference.t_luma, reference.t_cross)


# Two channels of (qp, point); Y is out of QP order on purpose, so writers must sort.
SAMPLE_CURVES = {
    "Y": [(37, RdPoint(1000.0, 30.0)), (22, RdPoint(8000.0, 36.5)),
          (32, RdPoint(2000.0, 33.0)), (27, RdPoint(4000.0, 35.0))],
    "Cb": [(22, RdPoint(900.0, 38.0)), (27, RdPoint(500.0, 36.0)),
           (32, RdPoint(260.0, 34.2)), (37, RdPoint(130.0, 32.1))],
}

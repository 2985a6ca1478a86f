"""Spatial activity: sub-block variances and the per-frame means.

Gate c4 checks block_variance against a two-pass float variance; here it
is checked on fixed blocks, edge cases and bad rects. The per-CU reference,
cu_activity, is checked exactly against cli_oracle's summed-area tables,
which share no code or geometry with perceptqp; frame_activity and
stream_activity, and their frame means, must equal that reference bit for
bit, and the CLI matrix checks both passes against the oracle end to end.
"""

import io
import operator
import re
import tracemalloc
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perceptqp import (
    CbRect,
    Channel,
    ChromaFormat,
    Frame,
    Plane,
    TruncatedInputError,
    VideoFormat,
    block_variance,
    cb_rect,
    cu_activity,
    cu_grid,
    frame_activity,
    frame_bytes,
    read_frame,
    sub_blocks,
    write_frame,
)
from perceptqp.activity import _halves, _raster_mean, stream_activity
import cli_oracle
from strategies import (
    assert_equals_reference,
    checkerboard,
    frames,
    pipe,
    random_frame,
    reference_frame_activity,
    stored,
    video_formats,
)


def rect(x, y, w, h):
    return CbRect(Channel.Y, x, y, w, h)


def oracle_activity(frame, cu_size):
    planes = (frame.y.data, frame.cb.data, frame.cr.data)
    return cli_oracle.frame_activity(planes, frame.format.chroma_format.value, cu_size)


class TestBlockVariance:
    def test_constant_block_is_zero(self):
        plane = Plane(np.full((8, 8), 999, dtype=np.uint16))
        assert block_variance(plane, rect(0, 0, 8, 8)) == 0.0

    def test_small_mixed_block(self):
        plane = Plane(np.array([[0, 0], [0, 4]], dtype=np.uint8))
        # mean 1, squared deviations 1,1,1,9
        assert block_variance(plane, rect(0, 0, 2, 2)) == 3.0

    def test_never_negative_on_near_constant_data(self):
        data = np.full((32, 32), 1022, dtype=np.uint16)
        data[0, 0] = 1023
        assert block_variance(Plane(data), rect(0, 0, 32, 32)) >= 0.0

    def test_empty_block_rejected(self):
        plane = Plane(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            block_variance(plane, rect(2, 2, 3, 0))

    @pytest.mark.parametrize(
        "x, y, w, h",
        [(2, 0, 3, 4), (0, 2, 4, 3), (-1, 0, 2, 2), (0, -1, 2, 2)],
        ids=["overhang-right", "overhang-bottom", "negative-x", "negative-y"],
    )
    def test_rect_outside_plane_rejected(self, x, y, w, h):
        # a clipped slice would still be divided by the whole rect's count
        plane = Plane(np.ones((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="4x4 plane"):
            block_variance(plane, rect(x, y, w, h))

    def test_shift_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 512, size=(16, 16), dtype=np.uint16)
        base = block_variance(Plane(data), rect(0, 0, 16, 16))
        shifted = block_variance(Plane(data + 500), rect(0, 0, 16, 16))
        assert shifted == base


class TestCuActivity:
    def test_constant_frame_floors_at_one(self):
        fmt = VideoFormat(64, 64, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=0, lo=90, hi=90)
        cu = next(iter(cu_grid(fmt, 64)))
        rec = cu_activity(frame, cu)
        assert (rec.luma, rec.cb, rec.cr) == (1.0, 1.0, 1.0)
        assert rec.cross == 3.0

    def test_one_flat_quadrant_pins_activity(self):
        fmt = VideoFormat(64, 64, 8, ChromaFormat.YUV444)
        frame = random_frame(fmt, seed=3, lo=0, hi=255)
        y = frame.y.data.copy()
        y[0:32, 0:32] = 50  # flat top-left quadrant wins the min
        frame = Frame(Plane(y), frame.cb, frame.cr, fmt)
        cu = next(iter(cu_grid(fmt, 64)))
        assert cu_activity(frame, cu).luma == 1.0

    @settings(max_examples=40, deadline=None)
    @given(frames(max_dim=80))
    def test_matches_geometry_oracle(self, frame):
        records = [cu_activity(frame, cu) for cu in cu_grid(frame.format, 16)]
        oracle = oracle_activity(frame, 16)
        for channel in ("luma", "cb", "cr"):
            assert [getattr(r, channel) for r in records] == getattr(oracle, channel).ravel().tolist()

    @settings(max_examples=40, deadline=None)
    @given(frames(max_dim=64))
    def test_lower_bound_holds(self, frame):
        for cu in cu_grid(frame.format, 32):
            rec = cu_activity(frame, cu)
            assert rec.luma >= 1.0
            assert rec.cb >= 1.0
            assert rec.cr >= 1.0

    def test_min_not_mean_of_quadrants(self):
        # three noisy quadrants, one gentle: activity tracks the gentle one
        fmt = VideoFormat(32, 32, 8, ChromaFormat.YUV444)
        rng = np.random.default_rng(9)
        y = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        y[16:32, 16:32] = np.where(
            (np.add.outer(np.arange(16), np.arange(16)) % 2).astype(bool), 101, 100
        )
        frame = random_frame(fmt, seed=1, lo=128, hi=128)
        frame = Frame(Plane(y), frame.cb, frame.cr, fmt)
        cu = next(iter(cu_grid(fmt, 32)))
        assert cu_activity(frame, cu).luma == 1.25


class TestFrameActivity:
    def test_worker_count_does_not_change_results(self):
        fmt = VideoFormat(176, 144, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=77)
        reference = reference_frame_activity(frame, 16)
        assert_equals_reference(frame_activity(frame, 16, max_workers=1), reference)
        assert_equals_reference(frame_activity(frame, 16, max_workers=4), reference)


class TestCuSizeIsChecked:
    @pytest.mark.parametrize("cu_size", [0, 8, 128, 8192, 16.0, 32.0])
    def test_both_passes_refuse_it_with_cu_grids_message(self, cu_size):
        # At CU 8192 the int32 column sums of this frame wrapped: its luma activity read -1048575.0.
        # A float size equal to a supported one passed all three checks, then failed in range().
        fmt = VideoFormat(16, 8192, 10, ChromaFormat.YUV444)
        frame = Frame(*(Plane(np.full((8192, 16), 1023, fmt.dtype)) for _ in Channel), format=fmt)
        with pytest.raises(ValueError) as refused:
            cu_grid(fmt, cu_size)
        message = f"^{re.escape(str(refused.value))}$"
        with pytest.raises(ValueError, match=message):
            frame_activity(frame, cu_size)
        stream = io.BytesIO(bytes(frame_bytes(fmt)))
        with pytest.raises(ValueError, match=message):
            stream_activity(stream, fmt, cu_size)
        assert stream.tell() == 0


class TestRasterMean:
    def test_folds_left_to_right(self):
        # 2**53 + 1 rounds back to 2**53 at each step; a compensated sum keeps both ones.
        values = np.array([2.0**53, 1.0, 1.0])
        assert _raster_mean(values) == 2.0**53 / 3
        assert _raster_mean(values) != (2.0**53 + 2) / 3

    def test_is_not_pairwise(self):
        # np.sum keeps eight partial sums here, and their ones add up past 2**53.
        values = np.array([2.0**53] + [1.0] * 15)
        assert _raster_mean(values) == 2.0**53 / 16
        assert _raster_mean(values) != np.sum(values) / 16

    def test_raster_order_of_a_grid(self):
        grid = np.array([[1.0, 2.0**53], [1.0, -(2.0**53)]])
        # raster order: ((1 + 2**53) + 1) - 2**53 = 0; column order would give 2
        assert _raster_mean(grid) == reduce(operator.add, grid.ravel().tolist()) / 4 == 0.0

    def test_is_a_python_float(self):
        assert type(_raster_mean(np.array([[1.5, 2.5]]))) is float


class TestFrameActivityIsBitExact:
    """The row-at-a-time pass must equal cu_activity exactly, not approximately."""

    @settings(max_examples=60, deadline=None)
    @given(frames(max_dim=80), st.sampled_from([16, 32, 64]))
    def test_equals_scalar_reference(self, frame, cu_size):
        assert_equals_reference(frame_activity(frame, cu_size), reference_frame_activity(frame, cu_size))

    @pytest.mark.parametrize("cu_size", [16, 32, 64])
    @pytest.mark.parametrize(
        "fmt",
        [
            # chroma CB 1 column wide: its right quadrants are empty
            VideoFormat(2, 40, 8, ChromaFormat.YUV420),
            # last CU row clipped to a chroma extent of 3, then of 1
            VideoFormat(40, 70, 10, ChromaFormat.YUV420),
            VideoFormat(40, 66, 8, ChromaFormat.YUV420),
            # luma CBs clipped to one column and one row
            VideoFormat(65, 65, 8, ChromaFormat.YUV444),
            VideoFormat(34, 17, 10, ChromaFormat.YUV422),
        ],
        ids=["420-2-wide", "420-chroma-h3", "420-chroma-h1", "444-65", "422-34x17"],
    )
    def test_clipped_edges_equal_scalar_reference(self, fmt, cu_size):
        frame = random_frame(fmt, seed=fmt.width * fmt.height + cu_size)
        assert_equals_reference(frame_activity(frame, cu_size), reference_frame_activity(frame, cu_size))

    @pytest.mark.parametrize("cu_size", [16, 32, 64])
    @pytest.mark.parametrize(
        "fmt",
        # 200 and 1928 leave a last CU column of 8 at every size, 130 and 1090 a
        # last CU row of 2 (of 1 in 4:2:0 chroma, whose bottom halves are then
        # empty). Geometry does not depend on the bit depth, so the 1928x1090
        # frames, whose reference takes seconds, are drawn at 10 bits only.
        [
            VideoFormat(width, height, depth, cf)
            for width, height, depths in ((200, 130, (8, 10)), (1928, 1090, (10,)))
            for cf in ChromaFormat
            for depth in depths
        ],
        ids=lambda f: f"{f.width}x{f.height}-{f.chroma_format.value}-{f.bit_depth}",
    )
    def test_clipped_last_row_and_column_equal_scalar_reference(self, fmt, cu_size):
        frame = random_frame(fmt, seed=fmt.bit_depth + cu_size)
        assert_equals_reference(frame_activity(frame, cu_size), reference_frame_activity(frame, cu_size))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int16, np.int32, np.int64])
    def test_every_integer_dtype_equals_scalar_reference(self, dtype):
        fmt = VideoFormat(48, 40, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=8, hi=127)
        planes = [Plane(p.data.astype(dtype)) for p in (frame.y, frame.cb, frame.cr)]
        frame = Frame(*planes, format=fmt)
        assert_equals_reference(frame_activity(frame, 16), reference_frame_activity(frame, 16))

    def test_largest_squared_sum_is_exact(self):
        # 0/1023 alternation gives each 32x32 quadrant the largest variance there is;
        # the largest sum(s^2), twice this one, is test_constant_top_code_is_exact's
        fmt = VideoFormat(128, 64, 10, ChromaFormat.YUV444)
        frame = Frame(*(Plane(checkerboard(64, 128, 0, 1023, fmt.dtype)) for _ in Channel), format=fmt)
        fa = frame_activity(frame, 64)
        assert_equals_reference(fa, reference_frame_activity(frame, 64))
        assert set(zip(fa.luma.flat, fa.cb.flat, fa.cr.flat)) == {(1.0 + 511.5**2,) * 3}

    def test_constant_top_code_is_exact(self):
        # 32x32 quadrants of 1023 hold the largest sum(s^2) there is, 1024 * 1023^2,
        # which the int32 column sums must carry without overflow
        fmt = VideoFormat(128, 64, 10, ChromaFormat.YUV444)
        frame = Frame(*(Plane(np.full((64, 128), 1023, fmt.dtype)) for _ in Channel), format=fmt)
        fa = frame_activity(frame, 64)
        assert_equals_reference(fa, reference_frame_activity(frame, 64))
        assert set(zip(fa.luma.flat, fa.cb.flat, fa.cr.flat)) == {(1.0, 1.0, 1.0)}

    def test_memory_stays_per_strip(self):
        # A whole-plane int64 copy of this luma plane alone is 16.6 MB.
        fmt = VideoFormat(1920, 1080, 10, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=4)
        tracemalloc.start()
        try:
            frame_activity(frame, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_variance_stays_per_strip(self):
        # about 0.4 MB here; a variance over the whole (rows, 2, 2, 2 * cols) sums took 1.9 MB
        fmt = VideoFormat(1920, 1080, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=4)
        tracemalloc.start()
        try:
            frame_activity(frame, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_squares_stay_per_quadrant_half(self):
        # about 0.6 MB here; squaring a whole CU 64 luma strip at once, a 491 KB
        # buffer, took 0.84 MB
        fmt = VideoFormat(1920, 1080, 10, ChromaFormat.YUV420)
        stream = io.BytesIO()
        write_frame(stream, random_frame(fmt, seed=4))
        stream.seek(0)
        tracemalloc.start()
        try:
            stream_activity(stream, fmt, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 700_000


class TestHalves:
    def test_clipped_chroma_axis_ends_in_an_empty_half(self):
        # the last CU row covers 2 luma rows, so 1 chroma row: an empty bottom half
        halves = _halves(1090, 16, 2)
        assert (len(halves), sum(map(sum, halves))) == (69, 545)
        assert halves[:-1] == [(4, 4)] * 68 and halves[-1] == (1, 0)

    def test_unclipped_axis_has_one_pair(self):
        assert _halves(1920, 16, 1) == [(8, 8)] * 120

    @settings(max_examples=60, deadline=None)
    @given(video_formats(max_dim=140), st.sampled_from([16, 32, 64]))
    def test_matches_cb_rect_and_sub_blocks(self, fmt, cu_size):
        cf = fmt.chroma_format
        for channel, sub_x, sub_y in ((Channel.Y, 1, 1), (Channel.CB, cf.sub_x, cf.sub_y)):
            x_halves = _halves(fmt.width, cu_size, sub_x)
            y_halves = _halves(fmt.height, cu_size, sub_y)
            x_starts = list(accumulate(map(sum, x_halves), initial=0))
            y_starts = list(accumulate(map(sum, y_halves), initial=0))
            for cu in cu_grid(fmt, cu_size):
                col, row = cu.x // cu_size, cu.y // cu_size
                (left, right), (top, bottom) = x_halves[col], y_halves[row]
                x, y = x_starts[col], y_starts[row]
                assert sub_blocks(cb_rect(cu, channel, cf)) == (
                    CbRect(channel, x, y, left, top),
                    CbRect(channel, x + left, y, right, top),
                    CbRect(channel, x, y + top, left, bottom),
                    CbRect(channel, x + left, y + top, right, bottom),
                )


class TestLumaOnly:
    @settings(max_examples=40, deadline=None)
    @given(frames(max_dim=80), st.sampled_from([16, 32, 64]))
    def test_luma_and_its_mean_match_the_full_pass(self, frame, cu_size):
        full = frame_activity(frame, cu_size)
        luma_only = frame_activity(frame, cu_size, chroma=False)
        assert luma_only.luma.tolist() == full.luma.tolist()
        assert luma_only.t_luma == full.t_luma
        assert (luma_only.cb, luma_only.cr, luma_only.t_cross, luma_only.cross) == (None,) * 4


STREAM_FORMATS = [
    VideoFormat(width, height, depth, cf)
    for width, height in ((1920, 1080), (200, 130))  # 200x130: a partial last CU row and column
    for cf in ChromaFormat
    for depth in (8, 10)
]


@lru_cache(maxsize=1)
def distinct_frames_clip(fmt, count=3):
    """count frames of fresh random samples, stored as read_frame reads them."""
    rng = np.random.default_rng(fmt.width + fmt.bit_depth)
    samples = rng.integers(0, fmt.max_sample + 1, size=count * frame_bytes(fmt) // fmt.bytes_per_sample)
    return stored(samples, fmt)


def bits(act):
    """Everything of an ActivityArrays, arrays as their bytes, to compare bit for bit."""
    return [None if x is None else x.tobytes() for x in (act.luma, act.cb, act.cr, act.cross)] + [
        act.t_luma,
        act.t_cross,
    ]


class TestStreamActivity:
    """A frame read one CU row at a time equals the decoded frame's activity bit for bit."""

    @pytest.mark.parametrize("cu_size", [16, 32, 64])
    @pytest.mark.parametrize(
        "fmt", STREAM_FORMATS, ids=lambda f: f"{f.width}x{f.height}-{f.chroma_format.value}-{f.bit_depth}"
    )
    @pytest.mark.parametrize("chroma", [True, False], ids=["chroma", "luma-only"])
    def test_equals_decoded_frame(self, fmt, cu_size, chroma):
        clip = distinct_frames_clip(fmt)
        stream, decoded = io.BytesIO(clip), io.BytesIO(clip)
        skip = 1
        stream.seek(skip * frame_bytes(fmt))
        for index in range(skip, len(clip) // frame_bytes(fmt)):
            streamed = stream_activity(stream, fmt, cu_size, chroma)
            assert stream.tell() == (index + 1) * frame_bytes(fmt)
            expected = frame_activity(read_frame(decoded, fmt, index), cu_size, chroma=chroma)
            assert bits(streamed) == bits(expected), index

    @pytest.mark.parametrize("depth", [8, 10])
    @pytest.mark.parametrize("cf", list(ChromaFormat), ids=lambda cf: cf.value)
    def test_pipe_equals_decoded_frame(self, cf, depth):
        fmt = VideoFormat(72, 40, depth, cf)  # a frame fits a pipe's buffer in every format
        frame, sink = random_frame(fmt, seed=depth), io.BytesIO()
        write_frame(sink, frame)
        with pipe(sink.getvalue()) as stream:
            streamed = stream_activity(stream, fmt, 16)
            assert stream.read() == b""
        assert bits(streamed) == bits(frame_activity(frame, 16))

    def test_short_stream_names_the_plane(self):
        fmt = VideoFormat(200, 130, 10, ChromaFormat.YUV420)
        clip = distinct_frames_clip(fmt)
        stream = io.BytesIO(clip[: frame_bytes(fmt) + frame_bytes(fmt) // 2])
        stream_activity(stream, fmt, 32)
        with pytest.raises(TruncatedInputError, match="^the Y plane needed 52000 bytes, stream had 39000$"):
            stream_activity(stream, fmt, 32)

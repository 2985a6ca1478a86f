"""Raw planar I/O: geometry, framing, round trips."""

import io

import numpy as np
import pytest
from hypothesis import given, settings

from perceptqp import (
    Channel,
    ChromaFormat,
    Frame,
    Plane,
    SampleRangeError,
    TruncatedInputError,
    VideoFormat,
    YuvError,
    frame_bytes,
    plane_dims,
    probe_frame_count,
    read_frame,
    write_frame,
)
from strategies import frames, random_frame


class TestPlaneDims:
    def test_420_halves_both_axes(self):
        fmt = VideoFormat(1920, 1080, 8, ChromaFormat.YUV420)
        assert plane_dims(fmt, Channel.CB) == (960, 540)

    def test_422_halves_width_only(self):
        fmt = VideoFormat(1920, 1080, 8, ChromaFormat.YUV422)
        assert plane_dims(fmt, Channel.CR) == (960, 1080)

    def test_444_is_identity(self):
        fmt = VideoFormat(64, 64, 8, ChromaFormat.YUV444)
        assert plane_dims(fmt, Channel.Y) == (64, 64)

    def test_luma_ignores_subsampling(self):
        fmt = VideoFormat(1920, 1080, 8, ChromaFormat.YUV420)
        assert plane_dims(fmt, Channel.Y) == (1920, 1080)


class TestVideoFormatValidation:
    @pytest.mark.parametrize(
        "width,height,chroma",
        [
            (5, 4, ChromaFormat.YUV420),
            (4, 5, ChromaFormat.YUV420),
            (5, 5, ChromaFormat.YUV422),
            (0, 4, ChromaFormat.YUV444),
            (4, 0, ChromaFormat.YUV444),
        ],
    )
    def test_bad_geometry_rejected(self, width, height, chroma):
        with pytest.raises(YuvError):
            VideoFormat(width, height, 8, chroma)

    def test_odd_height_fine_for_422(self):
        VideoFormat(4, 5, 8, ChromaFormat.YUV422)

    def test_bad_bit_depth_rejected(self):
        with pytest.raises(YuvError):
            VideoFormat(4, 4, 12, ChromaFormat.YUV444)


class TestFrameBytes:
    def test_8bit_420(self):
        assert frame_bytes(VideoFormat(4, 4, 8, ChromaFormat.YUV420)) == 16 + 4 + 4

    def test_10bit_444(self):
        assert frame_bytes(VideoFormat(2, 2, 10, ChromaFormat.YUV444)) == 3 * 4 * 2


class TestReadFrame:
    def test_constant_fill(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        stream = io.BytesIO(b"\x80" * frame_bytes(fmt))
        frame = read_frame(stream, fmt)
        for plane in (frame.y, frame.cb, frame.cr):
            assert (plane.data == 128).all()

    def test_index_beyond_stream_is_truncation(self):
        fmt = VideoFormat(2, 2, 8, ChromaFormat.YUV444)
        stream = io.BytesIO(b"\x00" * frame_bytes(fmt))
        with pytest.raises(TruncatedInputError):
            read_frame(stream, fmt, index=1)

    def test_short_frame_is_truncation(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        stream = io.BytesIO(b"\x00" * (frame_bytes(fmt) - 1))
        with pytest.raises(TruncatedInputError):
            read_frame(stream, fmt)

    @pytest.mark.parametrize("depth", [8, 10])
    def test_planes_are_writable_views_of_one_native_buffer(self, depth):
        fmt = VideoFormat(8, 4, depth, ChromaFormat.YUV420)
        original = random_frame(fmt, 5)
        stream = io.BytesIO()
        write_frame(stream, original)
        frame = read_frame(stream, fmt)
        assert frame == original
        planes = [frame.y.data, frame.cb.data, frame.cr.data]
        assert all(p.dtype == fmt.dtype and p.dtype.isnative for p in planes)
        assert all(p.flags.writeable for p in planes)
        assert len({id(p.base) for p in planes}) == 1
        assert frame.y.data.base.nbytes == frame_bytes(fmt)
        short = io.BytesIO(stream.getvalue()[:-1])
        with pytest.raises(TruncatedInputError, match=f"stream had {frame_bytes(fmt) - 1} "):
            read_frame(short, fmt)

    def test_10bit_sample_out_of_range(self):
        fmt = VideoFormat(2, 2, 10, ChromaFormat.YUV444)
        words = [100] * 11 + [1024]
        raw = b"".join(w.to_bytes(2, "little") for w in words)
        with pytest.raises(SampleRangeError):
            read_frame(io.BytesIO(raw), fmt)

    def test_10bit_max_legal_sample_accepted(self):
        fmt = VideoFormat(2, 2, 10, ChromaFormat.YUV444)
        raw = (1023).to_bytes(2, "little") * 12
        frame = read_frame(io.BytesIO(raw), fmt)
        assert int(frame.y.data.max()) == 1023

    def test_10bit_words_are_little_endian(self):
        fmt = VideoFormat(2, 2, 10, ChromaFormat.YUV444)
        raw = bytes([0x01, 0x02]) * 12  # 0x0201 = 513
        frame = read_frame(io.BytesIO(raw), fmt)
        assert (frame.y.data == 513).all()

    def test_indexed_read_picks_the_right_frame(self):
        fmt = VideoFormat(8, 4, 8, ChromaFormat.YUV422)
        stream = io.BytesIO()
        originals = [random_frame(fmt, seed) for seed in (1, 2, 3)]
        for frame in originals:
            write_frame(stream, frame)
        assert read_frame(stream, fmt, index=1) == originals[1]
        assert read_frame(stream, fmt, index=0) == originals[0]


class TestWriteFrame:
    def test_8bit_420_byte_count(self):
        frame = random_frame(VideoFormat(4, 4, 8, ChromaFormat.YUV420), seed=7)
        sink = io.BytesIO()
        assert write_frame(sink, frame) == 24
        assert len(sink.getvalue()) == 24

    def test_10bit_444_byte_count(self):
        frame = random_frame(VideoFormat(2, 2, 10, ChromaFormat.YUV444), seed=7)
        assert write_frame(io.BytesIO(), frame) == 24

    def test_10bit_422_gradient_round_trip(self):
        fmt = VideoFormat(8, 5, 10, ChromaFormat.YUV422)
        planes = []
        for channel in Channel:
            w, h = plane_dims(fmt, channel)
            grid = (np.arange(h)[:, None] * 131 + np.arange(w)[None, :] * 17) % 1024
            planes.append(Plane(grid.astype(np.uint16)))
        frame = Frame(*planes, format=fmt)
        stream = io.BytesIO()
        write_frame(stream, frame)
        assert read_frame(stream, fmt) == frame


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(frames())
    def test_write_then_read_is_identity(self, frame):
        stream = io.BytesIO()
        written = write_frame(stream, frame)
        assert written == frame_bytes(frame.format)
        again = read_frame(stream, frame.format)
        assert again == frame
        assert int(again.y.data.max()) <= frame.format.max_sample

    @settings(max_examples=30, deadline=None)
    @given(frames())
    def test_probe_counts_written_frames(self, frame):
        stream = io.BytesIO()
        for _ in range(3):
            write_frame(stream, frame)
        assert probe_frame_count(stream, frame.format) == 3


class TestProbeFrameCount:
    def test_partial_frame_is_geometry_error(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        stream = io.BytesIO(b"\x00" * (frame_bytes(fmt) + 5))
        with pytest.raises(YuvError):
            probe_frame_count(stream, fmt)

    def test_empty_stream_has_zero_frames(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        assert probe_frame_count(io.BytesIO(), fmt) == 0


class TestFrameValidation:
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_plane_must_be_2d(self, shape):
        with pytest.raises(YuvError, match="2-D"):
            Plane(np.zeros(shape, dtype=np.uint8))

    def test_wrong_chroma_dims_rejected(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        full = Plane(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(YuvError):
            Frame(full, full, full, fmt)

    def test_sample_above_bit_depth_rejected(self):
        fmt = VideoFormat(2, 2, 10, ChromaFormat.YUV444)
        good = Plane(np.full((2, 2), 1023, dtype=np.uint16))
        bad = Plane(np.full((2, 2), 1024, dtype=np.uint16))
        with pytest.raises(SampleRangeError):
            Frame(good, bad, good, fmt)

    def test_negative_sample_rejected(self):
        fmt = VideoFormat(2, 2, 8, ChromaFormat.YUV444)
        good = Plane(np.zeros((2, 2), dtype=np.int32))
        bad = Plane(np.full((2, 2), -1, dtype=np.int32))
        with pytest.raises(SampleRangeError):
            Frame(good, good, bad, fmt)

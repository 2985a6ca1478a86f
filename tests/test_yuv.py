"""Raw planar I/O: geometry, framing, round trips."""

import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from perceptqp.yuv import _storage_dtype, read_strips
from strategies import frames, pipe, random_frame, video_formats


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((16.0, 16), "width 16.0 is not an integer"),
            ((16, 16.0), "height 16.0 is not an integer"),
            ((16, 16, 10.0), "bit_depth 10.0 is not an integer"),
            ((16, 16, 8, "420"), "chroma_format '420' is not a ChromaFormat"),
        ],
        ids=["width", "height", "bit-depth", "chroma-format"],
    )
    def test_field_of_another_type_rejected(self, fields, message):
        # each was accepted; read_frame then raised TypeError, or the chroma check AttributeError
        with pytest.raises(YuvError, match=f"^{message}$"):
            VideoFormat(*fields)

    def test_numpy_integer_fields_accepted(self):
        # the check is for integral values, not for Python's int alone; they are
        # kept as ints, since max_sample of a np.uint8 bit depth of 10 overflowed
        fmt = VideoFormat(np.int64(16), np.int32(8), np.uint8(10), ChromaFormat.YUV422)
        assert [type(v) for v in (fmt.width, fmt.height, fmt.bit_depth)] == [int, int, int]
        frame = random_frame(VideoFormat(16, 8, 10, ChromaFormat.YUV422), seed=3)
        sink = io.BytesIO()
        write_frame(sink, frame)
        assert read_frame(io.BytesIO(sink.getvalue()), fmt) == frame


@pytest.mark.parametrize("depth", [8, 10])
class TestSampleType:
    """VideoFormat.dtype alone names the sample type; storage and sizes derive from it."""

    def test_storage_is_never_big_endian(self, depth):
        assert _storage_dtype(VideoFormat(2, 2, depth)).str[0] in "<|"

    def test_storage_has_the_kind_and_size_of_the_native_type(self, depth):
        fmt = VideoFormat(2, 2, depth)
        stored = _storage_dtype(fmt)
        assert (stored.kind, stored.itemsize) == (fmt.dtype.kind, fmt.dtype.itemsize)
        assert fmt.bytes_per_sample == {8: 1, 10: 2}[depth]

    @pytest.mark.parametrize("cf", list(ChromaFormat))
    def test_frame_bytes_is_samples_times_sample_size(self, depth, cf):
        fmt = VideoFormat(6, 4, depth, cf)
        samples = sum(w * h for w, h in (plane_dims(fmt, channel) for channel in Channel))
        assert frame_bytes(fmt) == samples * fmt.bytes_per_sample


class TestReadFrame:
    def test_index_beyond_stream_is_truncation(self):
        fmt = VideoFormat(2, 2, 8, ChromaFormat.YUV444)
        stream = io.BytesIO(b"\x00" * frame_bytes(fmt))
        with pytest.raises(TruncatedInputError):
            read_frame(stream, fmt, index=1)

    @pytest.mark.parametrize("kind", ["bytes", "file"])
    def test_negative_index_is_refused_before_any_seek(self, tmp_path, kind):
        # Seeking would raise ValueError on a BytesIO and OSError on a file, which the CLI reports as exit 4.
        fmt = VideoFormat(2, 2, 8, ChromaFormat.YUV444)
        path = tmp_path / "one.yuv"
        path.write_bytes(bytes(frame_bytes(fmt)))
        with path.open("rb") if kind == "file" else io.BytesIO(path.read_bytes()) as stream:
            stream.seek(1)
            with pytest.raises(YuvError, match="^frame index -1 is negative$"):
                read_frame(stream, fmt, -1)
            assert stream.tell() == 1

    @pytest.mark.parametrize(
        "index", [np.uint8(1), np.int64(1), 1.0, "1"], ids=["uint8", "int64", "float", "str"]
    )
    def test_index_is_taken_as_an_int(self, index):
        # np.uint8(1) overflowed on the 4608-byte offset; 1.0 raised TypeError from seek
        fmt = VideoFormat(64, 48, 8, ChromaFormat.YUV420)
        clip = [random_frame(fmt, seed) for seed in (1, 2)]
        sink = io.BytesIO()
        for frame in clip:
            write_frame(sink, frame)
        stream = io.BytesIO(sink.getvalue())
        if isinstance(index, np.integer):
            assert read_frame(stream, fmt, index) == clip[1]
        else:
            with pytest.raises(YuvError, match=f"^frame index {index!r} is not an integer$"):
                read_frame(stream, fmt, index)
            assert stream.tell() == 0

    def test_short_frame_is_truncation(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        stream = io.BytesIO(b"\x00" * (frame_bytes(fmt) - 1))
        with pytest.raises(TruncatedInputError):
            read_frame(stream, fmt)

    @pytest.mark.parametrize("depth", [8, 10])
    def test_planes_are_writable_native_buffers_of_their_own_size(self, depth):
        fmt = VideoFormat(8, 4, depth, ChromaFormat.YUV420)
        original = random_frame(fmt, 5)
        stream = io.BytesIO()
        write_frame(stream, original)
        frame = read_frame(stream, fmt)
        assert frame == original
        planes = [frame.y.data, frame.cb.data, frame.cr.data]
        assert all(p.dtype == fmt.dtype and p.dtype.isnative for p in planes)
        assert all(p.flags.writeable for p in planes)
        assert all((p if p.base is None else p.base).nbytes == p.nbytes for p in planes)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(planes, 2))
        w, h = plane_dims(fmt, Channel.CR)
        cr_bytes = w * h * fmt.bytes_per_sample
        short = io.BytesIO(stream.getvalue()[:-1])
        message = f"^the Cr plane needed {cr_bytes} bytes, stream had {cr_bytes - 1}$"
        with pytest.raises(TruncatedInputError, match=message):
            read_frame(short, fmt)
        # So a frame occupies its decoded size once.
        big = VideoFormat(1920, 1080, depth, ChromaFormat.YUV420)
        stream = io.BytesIO(bytes(frame_bytes(big)))
        tracemalloc.start()
        try:
            read_frame(stream, big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= frame_bytes(big) + 64 * 1024

    def test_10bit_max_legal_sample_accepted(self):
        fmt = VideoFormat(2, 2, 10, ChromaFormat.YUV444)
        raw = (1023).to_bytes(2, "little") * 12
        frame = read_frame(io.BytesIO(raw), fmt)
        assert int(frame.y.data.max()) == 1023

    def test_indexed_read_picks_the_right_frame(self):
        fmt = VideoFormat(8, 4, 8, ChromaFormat.YUV422)
        stream = io.BytesIO()
        originals = [random_frame(fmt, seed) for seed in (1, 2, 3)]
        for frame in originals:
            write_frame(stream, frame)
        assert read_frame(stream, fmt, index=1) == originals[1]
        assert read_frame(stream, fmt, index=0) == originals[0]


class SeekCounter(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.seeks = 0

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)


@pytest.mark.parametrize("source", [SeekCounter, pipe], ids=["seek-counter", "pipe"])
class TestReadStrips:
    """A 10-bit plane is read once, forward only, from a stream that need not seek or tell."""

    FMT = VideoFormat(4, 6, 10, ChromaFormat.YUV444)

    @staticmethod
    def payload(words):
        """A 4x6 Y plane of the given words, then a tail the read must not touch."""
        return np.asarray(words, dtype="<u2").tobytes() + b"tail"

    def read(self, stream):
        return [strip.copy() for strip in read_strips(stream, self.FMT, Channel.Y, [2, 2, 2])]

    @staticmethod
    def assert_read_forward_to(stream, rest):
        assert stream.read() == rest
        assert getattr(stream, "seeks", 0) == 0

    def test_short_plane_is_truncation(self, source):
        with source(self.payload(np.zeros(24))[:47]) as stream:
            with pytest.raises(TruncatedInputError, match=r"^the Y plane needed 48 bytes, stream had 47$"):
                self.read(stream)
            self.assert_read_forward_to(stream, b"")

    @pytest.mark.parametrize(
        "illegal, drawn, size",
        [
            ({5: 1024}, 0, None),
            ({23: 1024}, 2, None),
            (dict.fromkeys(range(24), 1024), 0, None),
            # The plane's worst sample, 1030, was quoted.
            ({5: 1024, 21: 1030}, 0, None),
            # The short read in the last strip raised TruncatedInputError.
            ({5: 1024}, 0, 40),
        ],
        ids=["first-strip", "last-strip", "every-word", "worst-of-first-strip", "before-a-short-read"],
    )
    def test_no_strip_holding_an_illegal_sample_is_yielded(self, source, illegal, drawn, size):
        # Every strip was yielded, and the error waited for the plane's last one.
        words = np.arange(24) + 1000
        words[list(illegal)] = list(illegal.values())
        payload = self.payload(words)[:size]
        with source(payload) as stream:
            strips = read_strips(stream, self.FMT, Channel.Y, [2, 2, 2])
            assert [next(strips).tolist() for _ in range(drawn)] == words.reshape(3, 2, 4)[:drawn].tolist()
            with pytest.raises(SampleRangeError, match=r"^Y sample out of range 0\.\.1023 \(saw 1024\)$"):
                next(strips)
            self.assert_read_forward_to(stream, payload[16 * (drawn + 1) :])

    def test_legal_plane_yields_its_strips(self, source):
        words = np.full(24, 512)
        words[[1, -1]] = 0, 1023
        with source(self.payload(words)) as stream:
            assert np.concatenate(self.read(stream)).ravel().tolist() == words.tolist()
            self.assert_read_forward_to(stream, b"tail")


def strip_planes(stream, fmt, index, heights):
    """The planes of frame index as read_strips yields them in strips of the given heights, joined."""
    stream.seek(index * frame_bytes(fmt))
    return [
        np.concatenate([strip.copy() for strip in read_strips(stream, fmt, channel, heights[channel])])
        for channel in Channel
    ]


def frame_planes(stream, fmt, index):
    frame = read_frame(stream, fmt, index)
    return [frame.y.data, frame.cb.data, frame.cr.data]


def outcome(read, *args):
    """What read(*args) returns, or the type and message of the YuvError it raises."""
    try:
        return read(*args)
    except YuvError as exc:
        return type(exc), str(exc)


class TestOneReader:
    """read_frame decodes with read_strips: the same samples, and the same error for the same fault."""

    @settings(max_examples=120, deadline=None)
    @given(video_formats(max_dim=40, max_height=24), st.integers(1, 2), st.data())
    def test_read_frame_equals_read_strips(self, fmt, count, data):
        stream = io.BytesIO()
        for _ in range(count):
            write_frame(stream, random_frame(fmt, data.draw(st.integers(0, 2**32 - 1))))
        raw = bytearray(stream.getvalue())
        index = data.draw(st.integers(0, count - 1))
        faults = ["none", "cut", "sample"] if fmt.bit_depth == 10 else ["none", "cut"]
        fault = data.draw(st.sampled_from(faults))
        if fault == "cut":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif fault == "sample":
            sizes = [w * h for w, h in (plane_dims(fmt, channel) for channel in Channel)]
            plane = data.draw(st.integers(0, 2))
            word = index * sum(sizes) + sum(sizes[:plane]) + data.draw(st.integers(0, sizes[plane] - 1))
            raw[2 * word : 2 * word + 2] = (1024).to_bytes(2, "little")
        heights = {}
        for channel in Channel:
            _, h = plane_dims(fmt, channel)
            cuts = sorted(data.draw(st.sets(st.integers(1, h))) | {0, h})
            heights[channel] = [b - a for a, b in zip(cuts, cuts[1:])]
        got = outcome(frame_planes, io.BytesIO(raw), fmt, index)
        expected = outcome(strip_planes, io.BytesIO(raw), fmt, index, heights)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert [(p.dtype, p.tolist()) for p in got] == [(p.dtype, p.tolist()) for p in expected]


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


class TestProbeFrameCount:
    def test_partial_frame_is_geometry_error(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        stream = io.BytesIO(b"\x00" * (frame_bytes(fmt) + 5))
        with pytest.raises(YuvError):
            probe_frame_count(stream, fmt)


class TestFrameValidation:
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_plane_must_be_2d(self, shape):
        with pytest.raises(YuvError, match="2-D"):
            Plane(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_plane_samples_must_be_integers(self, dtype):
        # the array path would raise TypeError and the scalar reference truncate 128.5
        with pytest.raises(YuvError, match="integers"):
            Plane(np.full((2, 2), 128.5, dtype=dtype))

    def test_wrong_chroma_dims_rejected(self):
        fmt = VideoFormat(4, 4, 8, ChromaFormat.YUV420)
        full = Plane(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(YuvError):
            Frame(full, full, full, fmt)

    @pytest.mark.parametrize(
        "dtype, depth, values, message",
        [
            (np.int8, 8, (-1, 7), "Cr sample out of range 0..255 (saw -1)"),
            (np.int16, 10, (-300, 5), "Cr sample out of range 0..1023 (saw -300)"),
            (np.int64, 8, (3, 256), "Cr sample out of range 0..255 (saw 256)"),
            (np.uint16, 10, (3, 1024), "Cr sample out of range 0..1023 (saw 1024)"),
            (np.uint16, 8, (3, 256), "Cr sample out of range 0..255 (saw 256)"),
            # Both ends illegal: the negative one is quoted.
            (np.int16, 8, (-1, 256), "Cr sample out of range 0..255 (saw -1)"),
        ],
    )
    def test_range_error_names_the_offending_sample(self, dtype, depth, values, message):
        fmt = VideoFormat(2, 2, depth, ChromaFormat.YUV444)
        good = Plane(np.full((2, 2), 4, dtype=dtype))
        bad = Plane(np.array([[values[0], 4], [4, values[1]]], dtype=dtype))
        with pytest.raises(SampleRangeError) as raised:
            Frame(good, good, bad, fmt)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "dtype, depth, refused",
        [(np.uint8, 8, ("min", "max")), (np.uint8, 10, ("min", "max")), (np.uint16, 10, ("min",))],
        ids=["uint8-8bit", "uint8-10bit", "uint16-10bit"],
    )
    def test_only_extremes_the_dtype_can_make_illegal_are_taken(self, dtype, depth, refused):
        # Every plane's min and max were taken, though a uint8 plane holds no illegal sample.
        def refuse(*args, **kwargs):
            raise AssertionError("an extreme the dtype keeps legal was taken")

        unscanned = type("Unscanned", (np.ndarray,), dict.fromkeys(refused, refuse))
        plane = Plane(np.full((2, 2), 4, dtype=dtype).view(unscanned))
        fmt = VideoFormat(2, 2, depth, ChromaFormat.YUV444)
        assert Frame(plane, plane, plane, fmt).format == fmt


class TestFrameEquality:
    """Frames compare by their planes' samples and their format, and are unhashable."""

    FMT = VideoFormat(2, 2, 8, ChromaFormat.YUV444)

    def test_one_changed_cr_sample_is_unequal(self):
        frame = random_frame(self.FMT, seed=3)
        cr = frame.cr.data.copy()
        cr[1, 1] ^= 1
        assert frame != Frame(frame.y, frame.cb, Plane(cr), self.FMT)

    def test_same_planes_under_another_format_are_unequal(self):
        frame = random_frame(self.FMT, seed=3)
        ten_bit = Frame(frame.y, frame.cb, frame.cr, VideoFormat(2, 2, 10, ChromaFormat.YUV444))
        assert frame != ten_bit
        assert frame == Frame(frame.y, frame.cb, frame.cr, self.FMT)

    @pytest.mark.parametrize(
        "other",
        [1, None, "frame", Plane(np.zeros((2, 2), dtype=np.uint8))],
        ids=["1", "None", "frame", "plane"],
    )
    def test_never_equals_a_non_frame(self, other):
        # A Plane is asked too, once the frame declines, and declines as well.
        frame = random_frame(self.FMT, seed=3)
        assert frame != other and not frame == other

    def test_frame_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(random_frame(self.FMT, seed=3))

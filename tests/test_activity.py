"""Spatial activity: sub-block variances and the per-frame means.

The oracle here recomputes everything from scratch with naive two-pass
float arithmetic and its own quadrant geometry, so agreement is meaningful.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perceptqp import (
    CbRect,
    Channel,
    ChromaFormat,
    Frame,
    FrameActivity,
    Plane,
    VideoFormat,
    block_variance,
    cu_activity,
    cu_grid,
    frame_activity,
    plane_dims,
)
from strategies import frames, random_frame


def rect(x, y, w, h):
    return CbRect(Channel.Y, x, y, w, h)


def oracle_variance(samples):
    values = [float(v) for v in samples]
    mu = sum(values) / len(values)
    return sum((v - mu) ** 2 for v in values) / len(values)


def oracle_channel_activity(plane, x, y, w, h):
    """Quadrant geometry done by hand: ceil split, skip empty."""
    half_w = (w + 1) // 2
    half_h = (h + 1) // 2
    spans = [
        (x, y, half_w, half_h),
        (x + half_w, y, w - half_w, half_h),
        (x, y + half_h, half_w, h - half_h),
        (x + half_w, y + half_h, w - half_w, h - half_h),
    ]
    variances = []
    for qx, qy, qw, qh in spans:
        if qw == 0 or qh == 0:
            continue
        block = plane[qy : qy + qh, qx : qx + qw]
        variances.append(oracle_variance(block.ravel().tolist()))
    return 1.0 + min(variances)


def oracle_cu_activity(frame, cu):
    cf = frame.format.chroma_format
    luma = oracle_channel_activity(
        frame.y.data, cu.x, cu.y, cu.clipped_w, cu.clipped_h
    )
    sx, sy = cf.sub_x, cf.sub_y
    cw = -(-cu.clipped_w // sx)
    ch = -(-cu.clipped_h // sy)
    cb = oracle_channel_activity(frame.cb.data, cu.x // sx, cu.y // sy, cw, ch)
    cr = oracle_channel_activity(frame.cr.data, cu.x // sx, cu.y // sy, cw, ch)
    return luma, cb, cr


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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    def test_matches_two_pass_oracle(self, seed, w, h):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1024, size=(h, w), dtype=np.uint16)
        got = block_variance(Plane(data), rect(0, 0, w, h))
        want = oracle_variance(data.ravel().tolist())
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

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
        for cu in cu_grid(frame.format, 16):
            rec = cu_activity(frame, cu)
            l, b, d = oracle_cu_activity(frame, cu)
            assert rec.luma == pytest.approx(l, rel=1e-9)
            assert rec.cb == pytest.approx(b, rel=1e-9)
            assert rec.cr == pytest.approx(d, rel=1e-9)

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
    def test_constant_frame_means(self):
        fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=0, lo=64, hi=64)
        fa = frame_activity(frame, 64)
        assert len(fa.records) == 4
        assert fa.t_luma == 1.0
        assert fa.t_cross == 3.0

    def test_two_cu_means_are_averages(self):
        fmt = VideoFormat(128, 64, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=21)
        fa = frame_activity(frame, 64)
        assert len(fa.records) == 2
        want_l = (fa.records[0].luma + fa.records[1].luma) / 2
        want_c = (fa.records[0].cross + fa.records[1].cross) / 2
        assert fa.t_luma == pytest.approx(want_l, rel=1e-12)
        assert fa.t_cross == pytest.approx(want_c, rel=1e-12)

    def test_records_in_raster_order(self):
        fmt = VideoFormat(96, 96, 8, ChromaFormat.YUV444)
        frame = random_frame(fmt, seed=2)
        fa = frame_activity(frame, 32)
        coords = [(r.cu.x, r.cu.y) for r in fa.records]
        assert coords == [(x, y) for y in (0, 32, 64) for x in (0, 32, 64)]

    @settings(max_examples=20, deadline=None)
    @given(frames(max_dim=72), st.sampled_from([16, 32, 64]))
    def test_matches_oracle_end_to_end(self, frame, cu_size):
        fa = frame_activity(frame, cu_size)
        oracle = [oracle_cu_activity(frame, cu) for cu in cu_grid(frame.format, cu_size)]
        for rec, (l, b, d) in zip(fa.records, oracle):
            assert rec.luma == pytest.approx(l, rel=1e-9)
            assert rec.cb == pytest.approx(b, rel=1e-9)
            assert rec.cr == pytest.approx(d, rel=1e-9)
        want_t = sum(l for l, _, _ in oracle) / len(oracle)
        want_tc = sum(l + b + d for l, b, d in oracle) / len(oracle)
        assert fa.t_luma == pytest.approx(want_t, rel=1e-9)
        assert fa.t_cross == pytest.approx(want_tc, rel=1e-9)

    def test_worker_count_does_not_change_results(self):
        fmt = VideoFormat(176, 144, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=77)
        single = frame_activity(frame, 16, max_workers=1)
        pooled = frame_activity(frame, 16, max_workers=4)
        assert single == pooled


def reference_frame_activity(frame, cu_size):
    """frame_activity rebuilt from the per-CU scalar reference, same summation order."""
    records = tuple(cu_activity(frame, cu) for cu in cu_grid(frame.format, cu_size))
    t_luma = sum(r.luma for r in records) / len(records)
    t_cross = sum(r.cross for r in records) / len(records)
    return FrameActivity(records, t_luma, t_cross)


def checkerboard_frame(fmt, lo, hi):
    planes = []
    for channel in Channel:
        w, h = plane_dims(fmt, channel)
        odd = (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(bool)
        planes.append(Plane(np.where(odd, hi, lo).astype(fmt.dtype)))
    return Frame(*planes, format=fmt)


class TestFrameActivityIsBitExact:
    """The row-at-a-time pass must equal cu_activity exactly, not approximately."""

    @settings(max_examples=60, deadline=None)
    @given(frames(max_dim=80), st.sampled_from([16, 32, 64]))
    def test_equals_scalar_reference(self, frame, cu_size):
        assert frame_activity(frame, cu_size) == reference_frame_activity(frame, cu_size)

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
        assert frame_activity(frame, cu_size) == reference_frame_activity(frame, cu_size)

    def test_largest_squared_sum_is_exact(self):
        # 0/1023 alternation fills each 32x32 quadrant with the largest sum(s^2) there is
        fmt = VideoFormat(128, 64, 10, ChromaFormat.YUV444)
        frame = checkerboard_frame(fmt, 0, 1023)
        fa = frame_activity(frame, 64)
        assert fa == reference_frame_activity(frame, 64)
        assert {(r.luma, r.cb, r.cr) for r in fa.records} == {(1.0 + 511.5**2,) * 3}

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

"""QP rules: scaling, normalization, rounding, per-CU selection, maps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perceptqp import (
    ActivityRecord,
    ChromaFormat,
    CuRect,
    Frame,
    FrameActivity,
    Mode,
    Plane,
    QP_MAX,
    QP_MIN,
    QpConfig,
    Rounding,
    TMode,
    VideoFormat,
    cu_qp,
    delta_qp,
    frame_activity,
    grid_dims,
    normalized_activity,
    qp_map,
    qp_map_from_activity,
    round_half_away_from_zero,
    scaling_factor,
)
from perceptqp.activity import ActivityArrays
from perceptqp.qp import _delta_qps, qp_grid
from strategies import chroma_contrast_frame, frames, random_frame, reference_frame_activity, tiled_frame

positive = st.floats(min_value=1.0, max_value=1e9, allow_nan=False)


def record(luma, cb=1.0, cr=1.0):
    return ActivityRecord(cu=CuRect(0, 0, 64, 64, 64), luma=luma, cb=cb, cr=cr)


def stats(s, t):
    """Synthetic CU whose activity is s in both modes, against frame mean t."""
    rec = record(s, cb=0.0, cr=0.0)
    return rec, FrameActivity(records=(rec,), t_luma=t, t_cross=t)


class TestScalingFactor:
    def test_default_range_doubles(self):
        assert scaling_factor(6) == 2.0

    def test_zero_range_is_neutral(self):
        assert scaling_factor(0) == 1.0

    def test_two_octaves(self):
        assert scaling_factor(12) == 4.0


class TestNormalizedActivity:
    def test_equal_activity_is_one(self):
        assert normalized_activity(7.25, 7.25, 2.0) == 1.0
        assert normalized_activity(1.0, 1.0, 4.0) == 1.0

    def test_large_activity_approaches_f(self):
        n = normalized_activity(1e6, 10.0, 2.0)
        assert n < 2.0
        assert n == pytest.approx(2.0, abs=1e-4)

    def test_small_activity_approaches_reciprocal(self):
        n = normalized_activity(1.0, 1e6, 2.0)
        assert n > 0.5
        assert n == pytest.approx(0.5, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(positive, positive, st.floats(min_value=1.0, max_value=16.0))
    @example(s=1.0, t=24.0, f=1.0000000000000002)  # the raw ratio rounds one ulp below 1/f
    def test_stays_inside_band(self, s, t, f):
        n = normalized_activity(s, t, f)
        assert 1.0 / f <= n <= f

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-2, max_value=1e4),
        st.floats(min_value=1e-2, max_value=1e4),
        st.floats(min_value=1.0 + 1e-6, max_value=100.0),
        st.floats(min_value=1.01, max_value=8.0),
    )
    def test_strictly_monotone_in_activity(self, t, lo, ratio, f):
        hi = lo * ratio
        assert normalized_activity(lo, t, f) < normalized_activity(hi, t, f)


class TestRounding:
    @pytest.mark.parametrize(
        "x,want",
        [(2.5, 3), (-2.5, -3), (0.5, 1), (-0.5, -1), (1.49, 1), (-1.49, -1), (0.0, 0)],
    )
    def test_half_away_from_zero(self, x, want):
        assert round_half_away_from_zero(x) == want

    def test_neutral_activity_has_no_delta(self):
        assert delta_qp(1.0) == 0
        assert delta_qp(1.0, Rounding.CEILING) == 0

    def test_doubled_activity_is_six_steps(self):
        assert delta_qp(2.0) == 6

    def test_third_octave(self):
        assert delta_qp(1.2599) == 2

    def test_ceiling_promotes_fractional_deltas(self):
        # 6*log2(1.01) ~ 0.086: nearest keeps 0, ceiling pushes to 1
        assert delta_qp(1.01, Rounding.NEAREST) == 0
        assert delta_qp(1.01, Rounding.CEILING) == 1

    def test_ceiling_of_negative_fraction_is_zero(self):
        assert delta_qp(0.99, Rounding.CEILING) == 0
        assert delta_qp(0.99, Rounding.NEAREST) == 0


class TestCuQp:
    def test_mean_activity_keeps_slice_qp(self):
        rec, fa = stats(5.0, 5.0)
        for mode in Mode:
            cfg = QpConfig(slice_qp=37, mode=mode)
            assert cu_qp(cfg, rec, fa) == 37

    def test_busy_cu_saturates_at_range(self):
        rec, fa = stats(1e9, 1.0)
        cfg = QpConfig(slice_qp=37, mode=Mode.ADAPTIVE_QP, qp_range=6)
        assert cu_qp(cfg, rec, fa) == 43

    def test_clip_at_upper_bound(self):
        rec, fa = stats(1e9, 1.0)
        cfg = QpConfig(slice_qp=48, mode=Mode.ADAPTIVE_QP, qp_range=6)
        assert cu_qp(cfg, rec, fa) == 51

    def test_clip_at_lower_bound(self):
        rec, fa = stats(1.0, 1e9)
        cfg = QpConfig(slice_qp=2, mode=Mode.CBAQ, qp_range=12)
        assert cu_qp(cfg, rec, fa) == 0

    def test_adaptive_mode_ignores_chroma(self):
        fa = FrameActivity(records=(), t_luma=4.0, t_cross=40.0)
        cfg = QpConfig(slice_qp=30, mode=Mode.ADAPTIVE_QP)
        quiet = record(4.0, cb=500.0, cr=500.0)
        assert cu_qp(cfg, quiet, fa) == 30

    def test_cbaq_mode_sees_chroma(self):
        # luma matches the mean but chroma pushes the summed activity up
        fa = FrameActivity(records=(), t_luma=4.0, t_cross=6.0)
        cfg = QpConfig(slice_qp=30, mode=Mode.CBAQ)
        assert cu_qp(cfg, record(4.0, cb=500.0, cr=500.0), fa) > 30
        assert cu_qp(cfg, record(4.0, cb=1.0, cr=1.0), fa) == 30

    def test_t_mode_selects_normalizer(self):
        fa = FrameActivity(records=(), t_luma=3.0, t_cross=9.0)
        rec = record(3.0, cb=3.0, cr=3.0)  # cross = 9 = t_cross
        cross_cfg = QpConfig(slice_qp=32, mode=Mode.CBAQ, t_mode=TMode.CROSS)
        luma_cfg = QpConfig(slice_qp=32, mode=Mode.CBAQ, t_mode=TMode.LUMA)
        assert cu_qp(cross_cfg, rec, fa) == 32
        # n = (2*9+3)/(9+2*3) = 1.4, 6*log2(1.4) = 2.91 -> 3
        assert cu_qp(luma_cfg, rec, fa) == 35

    @settings(max_examples=300, deadline=None)
    @given(
        positive,
        positive,
        st.integers(0, 51),
        st.sampled_from([0, 3, 6, 12]),
        st.sampled_from(list(Rounding)),
    )
    def test_delta_bounded_by_range(self, s, t, q, a, rounding):
        rec, fa = stats(s, t)
        cfg = QpConfig(slice_qp=q, mode=Mode.ADAPTIVE_QP, qp_range=a, rounding=rounding)
        got = cu_qp(cfg, rec, fa)
        assert abs(got - q) <= a
        assert 0 <= got <= 51

    @settings(max_examples=200, deadline=None)
    @given(positive, positive, positive)
    def test_non_decreasing_in_activity(self, t, a, b):
        lo, hi = sorted((a, b))
        cfg = QpConfig(slice_qp=26, mode=Mode.ADAPTIVE_QP)
        qp_lo = cu_qp(cfg, *stats(lo, t))
        qp_hi = cu_qp(cfg, *stats(hi, t))
        assert qp_lo <= qp_hi


class TestQpConfigValidation:
    def test_slice_qp_out_of_range(self):
        with pytest.raises(ValueError):
            QpConfig(slice_qp=52, mode=Mode.CBAQ)
        with pytest.raises(ValueError):
            QpConfig(slice_qp=-1, mode=Mode.CBAQ)

    def test_negative_range(self):
        # 52 and up would move a CU past the whole QP span
        for qp_range in (-1, 52, 10000):
            with pytest.raises(ValueError):
                QpConfig(slice_qp=32, mode=Mode.CBAQ, qp_range=qp_range)

    def test_full_qp_span_is_accepted(self):
        assert QpConfig(slice_qp=32, mode=Mode.CBAQ, qp_range=QP_MAX - QP_MIN).qp_range == 51

    def test_bad_cu_size(self):
        with pytest.raises(ValueError):
            QpConfig(slice_qp=32, mode=Mode.CBAQ, cu_size=8)

    @pytest.mark.parametrize(
        "field, value", [("mode", "adaptiveqp"), ("t_mode", "cross"), ("rounding", "ceiling")]
    )
    def test_value_that_is_not_an_enum_member_rejected(self, field, value):
        # the rules compare by identity, so a string would select another rule
        with pytest.raises(ValueError, match=field):
            QpConfig(**{"slice_qp": 32, "mode": Mode.CBAQ, field: value})

    @pytest.mark.parametrize("field, value", [("slice_qp", 32.5), ("qp_range", 6.0), ("cu_size", 16.0)])
    def test_value_that_is_not_an_integer_rejected(self, field, value):
        # 32.5 made cu_qp return 32.5 where qp_map gave 32; 16.0 passed as a CU size
        with pytest.raises(ValueError, match=f"{field} {value} is not an integer"):
            QpConfig(**{"slice_qp": 32, "mode": Mode.CBAQ, field: value})


class TestQpMap:
    def test_cells_enumerate_raster_coordinates(self):
        fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
        frame = random_frame(fmt, seed=1)
        qm = qp_map(frame, QpConfig(slice_qp=32, mode=Mode.CBAQ))
        coords = [(x, y) for x, y, _ in qm.cells()]
        assert coords == [(0, 0), (64, 0), (0, 64), (64, 64)]

    def test_flat_cu_among_noisy_gets_lower_qp(self):
        fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
        rng = np.random.default_rng(13)
        y = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        y[0:64, 0:64] = 77
        cb = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cr = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cb[0:32, 0:32] = 90
        cr[0:32, 0:32] = 90
        frame = Frame(Plane(y), Plane(cb), Plane(cr), fmt)
        for mode in Mode:
            qm = qp_map(frame, QpConfig(slice_qp=32, mode=mode))
            flat = qm.qps[0][0]
            noisy = [qm.qps[0][1], qm.qps[1][0], qm.qps[1][1]]
            assert flat < 32
            assert all(flat < qp for qp in noisy)

    def test_modes_agree_when_chroma_tracks_luma(self):
        # every CU gets the same chroma texture, so the cross activity is
        # a constant shift of luma activity only when luma is uniform too
        frame = tiled_frame()
        a = qp_map(frame, QpConfig(slice_qp=27, mode=Mode.ADAPTIVE_QP))
        c = qp_map(frame, QpConfig(slice_qp=27, mode=Mode.CBAQ))
        assert a.qps == c.qps == ((27, 27),)

    def test_chroma_only_contrast_splits_the_modes(self):
        # identical luma everywhere; one CU carries busy chroma
        frame = chroma_contrast_frame()
        adaptive = qp_map(frame, QpConfig(slice_qp=32, mode=Mode.ADAPTIVE_QP))
        cross = qp_map(frame, QpConfig(slice_qp=32, mode=Mode.CBAQ))
        assert adaptive.qps == ((32, 32), (32, 32))
        assert cross.qps != adaptive.qps
        # the busy-chroma CU pays more QP and, through the frame mean, the quiet CUs gain some back
        assert cross.qps[0][0] > 32 > min(cross.flat())

    @pytest.mark.parametrize(
        "size, analysed, mapped_size, mapped",
        [
            ((128, 64), 16, (128, 64), 64),
            ((128, 64), 64, (128, 64), 16),
            ((128, 64), 64, (64, 128), 64),
        ],
        ids=["32-records-into-2", "2-records-into-32", "transposed"],
    )
    def test_activity_of_another_cu_size_is_rejected(self, size, analysed, mapped_size, mapped):
        activity = frame_activity(random_frame(VideoFormat(*size), seed=2), analysed)
        cfg = QpConfig(slice_qp=32, mode=Mode.CBAQ, cu_size=mapped)
        with pytest.raises(ValueError, match="grid"):
            qp_map_from_activity(VideoFormat(*mapped_size), activity, cfg)

    def test_same_count_of_another_cu_size_maps_as_qp_map(self):
        # A 16x16 frame is one CU at 16 and one clipped CU at 32, with the same blocks.
        frame = random_frame(VideoFormat(16, 16), seed=2)
        cfg32 = QpConfig(slice_qp=32, mode=Mode.CBAQ, cu_size=32)
        assert qp_map_from_activity(frame.format, frame_activity(frame, 16), cfg32) == qp_map(frame, cfg32)

    def test_activity_without_records_is_rejected(self):
        cfg = QpConfig(slice_qp=32, mode=Mode.CBAQ)
        empty = np.empty((0, 0))
        arrays = ActivityArrays(empty, empty, empty, 1.0, 3.0, empty)
        with pytest.raises(ValueError, match="activity of 0 CUs"):
            qp_map_from_activity(VideoFormat(128, 64), arrays, cfg)


configs = st.builds(
    QpConfig,
    slice_qp=st.integers(QP_MIN, QP_MAX),
    mode=st.sampled_from(list(Mode)),
    qp_range=st.integers(0, QP_MAX - QP_MIN),
    cu_size=st.sampled_from([16, 32, 64]),
    t_mode=st.sampled_from(list(TMode)),
    rounding=st.sampled_from(list(Rounding)),
)

# n whose 6*log2(n) is exactly a half-integer (the NEAREST boundary) or an
# integer (the CEILING boundary), found by scanning the floats around 2**(k/6).
ON_HALF = [1.3348398541700344, 0.7491535384383408, 1.887748625363387, 0.5297315471796477]
ON_INTEGER = [1.0, 2.0, 0.5, 4.0, 1.7817974362806785, 2.244924096618746, 0.22272467953508482]


def scalar_qps(config, frame):
    """cu_qp of every CU from the scalar cu_activity records, in raster order."""
    activity = reference_frame_activity(frame, config.cu_size)
    return [cu_qp(config, r, activity) for r in activity.records]


class TestQpGrid:
    """The vectorised QP must equal the scalar cu_qp on every CU, not approximately."""

    @settings(max_examples=150, deadline=None)
    @given(frames(max_dim=80), configs)
    def test_equals_cu_qp_on_frames(self, frame, config):
        qps = qp_grid(config, frame_activity(frame, config.cu_size))
        assert qps.shape == grid_dims(frame.format, config.cu_size)[::-1]
        assert qps.ravel().tolist() == scalar_qps(config, frame)

    @pytest.mark.parametrize("cu_size", [16, 32, 64])
    @pytest.mark.parametrize(
        "fmt",
        [
            VideoFormat(2, 40, 8, ChromaFormat.YUV420),
            VideoFormat(40, 70, 10, ChromaFormat.YUV420),
            VideoFormat(65, 65, 8, ChromaFormat.YUV444),
            VideoFormat(34, 17, 10, ChromaFormat.YUV422),
        ],
        ids=["420-2-wide", "420-chroma-h3", "444-65", "422-34x17"],
    )
    def test_clipped_edges_equal_cu_qp(self, fmt, cu_size):
        frame = random_frame(fmt, seed=fmt.width + cu_size)
        arrays = frame_activity(frame, cu_size)
        # The CLI renders the activity after mapping it, and compare maps one
        # activity by two rules, so qp_grid must only read it.
        for array in (arrays.luma, arrays.cb, arrays.cr, arrays.cross):
            array.flags.writeable = False
        for mode in Mode:
            for t_mode in TMode:
                for rounding in Rounding:
                    for qp_range in (0, 6, 51):
                        config = QpConfig(32, mode, qp_range, cu_size, t_mode, rounding)
                        assert qp_grid(config, arrays).ravel().tolist() == scalar_qps(config, frame)

    @pytest.mark.parametrize("t_mode", list(TMode))
    def test_cbaq_rule_refuses_luma_only_arrays(self, t_mode):
        arrays = frame_activity(random_frame(VideoFormat(64, 32), seed=6), 16, chroma=False)
        with pytest.raises(ValueError, match="cbaq rule reads chroma activity"):
            qp_grid(QpConfig(32, Mode.CBAQ, cu_size=16, t_mode=t_mode), arrays)

    @settings(max_examples=60, deadline=None)
    @given(frames(max_dim=80), configs)
    def test_luma_only_arrays_give_the_same_adaptiveqp_map(self, frame, config):
        config = dataclasses.replace(config, mode=Mode.ADAPTIVE_QP)
        qps = qp_grid(config, frame_activity(frame, config.cu_size, chroma=False))
        assert qps.tolist() == qp_grid(config, frame_activity(frame, config.cu_size)).tolist()
        assert qp_map(frame, config).flat() == qps.ravel().tolist() == scalar_qps(config, frame)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(positive, positive, positive), min_size=1, max_size=12),
        positive,
        positive,
        configs,
    )
    def test_equals_cu_qp_on_any_activities(self, cus, t_luma, t_cross, config):
        records = tuple(record(*values) for values in cus)
        activity = FrameActivity(records, t_luma, t_cross)
        luma, cb, cr = (np.array([v]) for v in zip(*cus))
        arrays = ActivityArrays(luma, cb, cr, t_luma, t_cross, luma + cb + cr)
        assert qp_grid(config, arrays).ravel().tolist() == [
            cu_qp(config, r, activity) for r in records
        ]

    @pytest.mark.parametrize(
        "rounding, boundary",
        [(Rounding.NEAREST, n) for n in ON_HALF] + [(Rounding.CEILING, n) for n in ON_INTEGER],
    )
    def test_rounding_boundaries_and_their_neighbours(self, rounding, boundary):
        raw = 6.0 * math.log2(boundary)
        on_boundary = raw - 0.5 if rounding is Rounding.NEAREST else raw
        assert on_boundary == math.floor(on_boundary)
        ns = [math.nextafter(boundary, 0.0), boundary, math.nextafter(boundary, math.inf)]
        assert _delta_qps(np.array([ns]), rounding)[0].tolist() == [delta_qp(n, rounding) for n in ns]

"""PSNR and Bjontegaard deltas against closed forms and a trapezoid oracle."""

import codecs
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perceptqp import (
    CurveOverlapError,
    DegenerateCurveError,
    Plane,
    RdCurve,
    RdPoint,
    bd_psnr,
    bd_rate,
    parse_rd_csv,
    psnr,
)
from perceptqp.metrics import rd_csv_bytes
from strategies import SAMPLE_CURVES


def curve(rates, psnrs):
    return RdCurve.from_pairs(zip(rates, psnrs))


ANCHOR = curve([1000.0, 2000.0, 4000.0, 8000.0], [30.0, 33.0, 35.0, 36.5])


def scaled(base, c):
    return curve([p.bitrate_kbps * c for p in base.points], [p.psnr_db for p in base.points])


def trapezoid(ys, h):
    return h * (ys[0] / 2.0 + ys[1:-1].sum() + ys[-1] / 2.0)


class TestPsnr:
    def test_identical_planes_are_infinite(self):
        plane = Plane(np.arange(64, dtype=np.uint8).reshape(8, 8))
        assert psnr(plane, plane, 8) == math.inf

    def test_off_by_one_everywhere_8bit(self):
        a = Plane(np.full((16, 16), 100, dtype=np.uint8))
        b = Plane(np.full((16, 16), 101, dtype=np.uint8))
        got = psnr(a, b, 8)
        assert got == pytest.approx(10.0 * math.log10(255**2), rel=1e-9)
        assert got == pytest.approx(48.13, abs=0.01)

    def test_off_by_one_everywhere_10bit(self):
        a = Plane(np.full((8, 8), 500, dtype=np.uint16))
        b = Plane(np.full((8, 8), 501, dtype=np.uint16))
        assert psnr(a, b, 10) == pytest.approx(10.0 * math.log10(1023**2), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(2, 24))
    def test_matches_naive_oracle(self, seed, w, h):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1024, size=(h, w), dtype=np.uint16)
        b = rng.integers(0, 1024, size=(h, w), dtype=np.uint16)
        if (a == b).all():
            b[0, 0] = (int(b[0, 0]) + 1) % 1024
        mse = sum(
            (float(x) - float(y)) ** 2 for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
        ) / (w * h)
        want = 10.0 * math.log10(1023**2 / mse)
        assert psnr(Plane(a), Plane(b), 10) == pytest.approx(want, rel=1e-9)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        a = Plane(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        b = Plane(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        assert psnr(a, b, 8) == psnr(b, a, 8)

    def test_dimension_mismatch_rejected(self):
        a = Plane(np.zeros((4, 4), dtype=np.uint8))
        b = Plane(np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            psnr(a, b, 8)


class TestCurveValidation:
    def test_nonpositive_bitrate_rejected(self):
        with pytest.raises(DegenerateCurveError):
            RdPoint(0.0, 30.0)
        with pytest.raises(DegenerateCurveError):
            RdPoint(-5.0, 30.0)

    def test_nonfinite_psnr_rejected(self):
        with pytest.raises(DegenerateCurveError):
            RdPoint(100.0, math.inf)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_nonfinite_bitrate_rejected(self, rate):
        with pytest.raises(DegenerateCurveError):
            RdPoint(rate, 30.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateCurveError):
            curve([1000.0, 2000.0, 4000.0], [30.0, 33.0, 35.0])

    def test_non_monotone_rate_rejected(self):
        with pytest.raises(DegenerateCurveError):
            curve([1000.0, 2000.0, 2000.0, 8000.0], [30.0, 33.0, 35.0, 36.5])

    def test_non_monotone_psnr_rejected(self):
        with pytest.raises(DegenerateCurveError):
            curve([1000.0, 2000.0, 4000.0, 8000.0], [30.0, 35.0, 33.0, 36.5])

    def test_array_views(self):
        assert ANCHOR.rates.tolist() == [1000.0, 2000.0, 4000.0, 8000.0]
        assert ANCHOR.psnrs.tolist() == [30.0, 33.0, 35.0, 36.5]

    def test_points_sort_by_bitrate_then_psnr(self):
        points = [RdPoint(2000.0, 33.0), RdPoint(1000.0, 35.0), RdPoint(2000.0, 31.0), RdPoint(1000.0, 30.0)]
        assert sorted(points) == [
            RdPoint(1000.0, 30.0), RdPoint(1000.0, 35.0), RdPoint(2000.0, 31.0), RdPoint(2000.0, 33.0)
        ]


class TestBdRate:
    def test_fifteen_percent_rate_saving(self):
        assert bd_rate(ANCHOR, scaled(ANCHOR, 0.85)) == pytest.approx(-15.0, abs=1e-6)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_rate_scale_covariance(self, c):
        assert bd_rate(ANCHOR, scaled(ANCHOR, c)) == pytest.approx((c - 1.0) * 100.0, rel=1e-6)

    def test_dominating_curve_is_negative(self):
        dominating = scaled(ANCHOR, 0.9)
        assert bd_rate(ANCHOR, dominating) < 0.0
        assert bd_rate(dominating, ANCHOR) > 0.0

    def test_disjoint_psnr_ranges_rejected(self):
        low = curve([1000.0, 2000.0, 4000.0, 8000.0], [20.0, 22.0, 24.0, 26.0])
        high = curve([1000.0, 2000.0, 4000.0, 8000.0], [30.0, 32.0, 34.0, 36.0])
        spans = r"curves do not overlap: the anchor spans \[20.0, 26.0\], the test \[30.0, 36.0\]$"
        with pytest.raises(CurveOverlapError, match=spans):
            bd_rate(low, high)

    def test_touching_psnr_ranges_rejected_as_narrow(self):
        # One shared PSNR is an overlap, if an empty one to integrate over.
        high = curve([1000.0, 2000.0, 4000.0, 8000.0], [36.5, 37.0, 38.0, 39.0])
        narrow = r"curves overlap on \[36.5, 36.5\], narrower than 1e-06$"
        with pytest.raises(CurveOverlapError, match=narrow):
            bd_rate(ANCHOR, high)

    def test_overflowing_rate_ratio_rejected(self):
        # log10 rates 600 decades apart: the ratio 10**600 overflows a float
        tiny = curve([1e-300, 2e-300, 3e-300, 4e-300], [30.0, 31.0, 32.0, 33.0])
        huge = curve([1e300, 2e300, 3e300, 4e300], [30.0, 31.0, 32.0, 33.0])
        with pytest.raises(DegenerateCurveError):
            bd_rate(tiny, huge)

    def test_huge_psnrs_rejected_before_lapack(self, capfd):
        # cubing PSNRs near 1e300 overflows the fit's Vandermonde matrix;
        # LAPACK used to print DLASCL errors to the terminal, then fail
        low = curve([100.0, 200.0, 300.0, 400.0], [1e300, 2e300, 3e300, 4e300])
        high = curve([100.0, 200.0, 300.0, 400.0], [1.5e300, 2.5e300, 3.5e300, 4.5e300])
        with pytest.raises(DegenerateCurveError):
            bd_rate(low, high)
        assert capfd.readouterr() == ("", "")

    def test_matches_trapezoid_oracle_on_quadratic_curves(self):
        # log-rate exactly quadratic in PSNR, so the cubic fit is exact and
        # the metric must agree with direct numeric integration
        def log_rate_a(p):
            return 3.0 + 0.18 * (p - 30.0) + 0.004 * (p - 30.0) ** 2

        def log_rate_b(p):
            return 2.9 + 0.17 * (p - 30.0) + 0.005 * (p - 30.0) ** 2

        psnr_a = np.array([30.0, 32.0, 34.0, 36.0])
        psnr_b = np.array([30.5, 32.5, 34.5, 36.5])
        a = curve(10.0 ** log_rate_a(psnr_a), psnr_a)
        b = curve(10.0 ** log_rate_b(psnr_b), psnr_b)
        lo, hi = 30.5, 36.0
        grid = np.linspace(lo, hi, 200_001)
        mean_diff = trapezoid(log_rate_b(grid) - log_rate_a(grid), grid[1] - grid[0]) / (hi - lo)
        want = (10.0**mean_diff - 1.0) * 100.0
        assert bd_rate(a, b) == pytest.approx(want, abs=1e-6)


class TestBdPsnr:
    def test_self_comparison_is_zero(self):
        assert abs(bd_psnr(ANCHOR, ANCHOR)) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_fit_rejected(self):
        # PSNRs near the float maximum overflow the fit into NaN
        a = curve([1.0, 2.0, 3.0, 4.0], [0.0, 2.5e307, 5e307, 7.5e307])
        b = curve([1.0, 2.0, 3.0, 4.0], [1.25e307, 3.3e307, 6e307, 1e308])
        with pytest.raises(DegenerateCurveError):
            bd_psnr(a, b)

    def test_constant_quality_offset(self):
        lifted = curve(
            [p.bitrate_kbps for p in ANCHOR.points],
            [p.psnr_db + 0.5 for p in ANCHOR.points],
        )
        assert bd_psnr(ANCHOR, lifted) == pytest.approx(0.5, abs=1e-9)

    def test_matches_trapezoid_oracle_on_quadratic_curves(self):
        def psnr_a(x):
            return 30.0 + 8.0 * (x - 3.0) - 1.5 * (x - 3.0) ** 2

        def psnr_b(x):
            return 31.0 + 7.5 * (x - 3.0) - 1.2 * (x - 3.0) ** 2

        rates_a = np.array([1000.0, 2000.0, 4000.0, 8000.0])
        rates_b = np.array([1200.0, 2400.0, 4800.0, 9600.0])
        a = curve(rates_a, psnr_a(np.log10(rates_a)))
        b = curve(rates_b, psnr_b(np.log10(rates_b)))
        lo = math.log10(1200.0)
        hi = math.log10(8000.0)
        grid = np.linspace(lo, hi, 200_001)
        want = trapezoid(psnr_b(grid) - psnr_a(grid), grid[1] - grid[0]) / (hi - lo)
        assert bd_psnr(a, b) == pytest.approx(want, abs=1e-6)


class TestRdCsv:
    def test_single_curve_line_count(self):
        data = rd_csv_bytes([("anchor", {"Y": SAMPLE_CURVES["Y"]})])
        lines = data.decode().splitlines()
        assert len(lines) == 5
        assert lines[0] == "label,channel,qp,bitrate_kbps,psnr_db"

    def test_rows_sorted_by_qp_within_channel(self):
        data = rd_csv_bytes([("anchor", {"Y": SAMPLE_CURVES["Y"]})])
        qps = [int(line.split(",")[2]) for line in data.decode().splitlines()[1:]]
        assert qps == [22, 27, 32, 37]

    def test_channels_in_plane_order(self):
        data = rd_csv_bytes([("run", SAMPLE_CURVES)])
        channels = [line.split(",")[1] for line in data.decode().splitlines()[1:]]
        assert channels == ["Y"] * 4 + ["Cb"] * 4

    def test_unknown_channels_follow_plane_order_by_name(self):
        curves = {name: SAMPLE_CURVES["Y"] for name in ("W", "Cr", "A", "Y")}
        data = rd_csv_bytes([("run", curves)])
        channels = [line.split(",")[1] for line in data.decode().splitlines()[1:]]
        assert channels == ["Y"] * 4 + ["Cr"] * 4 + ["A"] * 4 + ["W"] * 4

    def test_two_labels_grouped(self):
        data = rd_csv_bytes(
            [("anchor", {"Y": SAMPLE_CURVES["Y"]}), ("test", {"Y": SAMPLE_CURVES["Y"]})]
        )
        labels = [line.split(",")[0] for line in data.decode().splitlines()[1:]]
        assert labels == ["anchor"] * 4 + ["test"] * 4

    def test_parse_round_trip(self):
        data = rd_csv_bytes([("anchor", SAMPLE_CURVES), ("test", {"Y": SAMPLE_CURVES["Y"]})])
        parsed = parse_rd_csv(data)
        assert set(parsed) == {"anchor", "test"}
        want_y = sorted(SAMPLE_CURVES["Y"])
        assert parsed["anchor"]["Y"] == want_y
        assert parsed["anchor"]["Cb"] == sorted(SAMPLE_CURVES["Cb"])
        assert parsed["test"]["Y"] == want_y

    def test_parse_skips_blank_rows(self):
        data = rd_csv_bytes([("anchor", {"Y": SAMPLE_CURVES["Y"]})])
        head, *rows = data.decode().splitlines(keepends=True)
        spaced = (head + "\n" + "\n".join(rows) + "\n\n").encode()
        assert parse_rd_csv(spaced) == parse_rd_csv(data)

    def test_parse_skips_leading_byte_order_mark(self):
        # Spreadsheets' "CSV UTF-8" export starts the file with one.
        data = rd_csv_bytes([("anchor", SAMPLE_CURVES)])
        assert not data.startswith(codecs.BOM_UTF8)
        assert parse_rd_csv(codecs.BOM_UTF8 + data) == parse_rd_csv(data)

    def test_parse_names_the_byte_that_is_not_utf8(self):
        # Decoding as utf-8-sig keeps the wording of a plain UTF-8 decode.
        message = "^'utf-8' codec can't decode byte 0xff in position 0: invalid start byte$"
        with pytest.raises(ValueError, match=message):
            parse_rd_csv(b"\xff")

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            parse_rd_csv(b"nope,channel,qp,bitrate_kbps,psnr_db\n")

    def test_parse_rejects_oversized_field(self):
        label = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ValueError, match="bad RD CSV"):
            parse_rd_csv(rd_csv_bytes([(label, {"Y": SAMPLE_CURVES["Y"]})]))

    def test_parse_rejects_short_row(self):
        good = rd_csv_bytes([("anchor", {"Y": SAMPLE_CURVES["Y"]})])
        with pytest.raises(ValueError):
            parse_rd_csv(good + b"anchor,Y,22\n")

    def test_parse_rejects_channel_with_a_quote(self):
        # The bdrate table prints the channel unquoted; the corpus covers a comma and a line break.
        with pytest.raises(ValueError, match="a channel cannot hold a comma, a quote or a line break$"):
            parse_rd_csv(rd_csv_bytes([("anchor", {'Y"Z': SAMPLE_CURVES["Y"]})]))

"""Objective evaluation metrics: per-plane PSNR and Bjontegaard deltas.

The rate delta fits log10(bitrate) as a cubic polynomial in PSNR for each
four-point curve, integrates both fits analytically over the overlapping
PSNR span, and converts the mean log offset back to a percentage. The
quality delta is the dual fit, PSNR as a cubic in log10(bitrate). A
negative rate delta means the test curve reaches the same quality with
less bitrate.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .yuv import Channel, ChromaFormat, Plane, VideoFormat

CHANNEL_ORDER = tuple(channel.value for channel in Channel)
RD_CSV_HEADER = ("label", "channel", "qp", "bitrate_kbps", "psnr_db")

# PSNR overlaps narrower than this are useless for integration.
MIN_OVERLAP = 1e-6


class CurveOverlapError(ValueError):
    """The two curves share no span to integrate over."""


class DegenerateCurveError(ValueError):
    """Curve points do not form a strictly monotone rate-quality sweep."""


@dataclass(frozen=True, order=True)
class RdPoint:
    """One rate-distortion measurement, ordered by bitrate, then PSNR."""

    bitrate_kbps: float
    psnr_db: float

    def __post_init__(self) -> None:
        if not (self.bitrate_kbps > 0 and math.isfinite(self.bitrate_kbps)):
            raise DegenerateCurveError(f"bitrate must be finite and > 0, got {self.bitrate_kbps}")
        if not math.isfinite(self.psnr_db):
            raise DegenerateCurveError(f"psnr must be finite, got {self.psnr_db}")


@dataclass(frozen=True)
class RdCurve:
    """A rate-distortion sweep, strictly increasing in bitrate and PSNR."""

    points: tuple[RdPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 4:
            raise DegenerateCurveError(
                f"need at least 4 points for a cubic fit, got {len(self.points)}"
            )
        for a, b in zip(self.points, self.points[1:]):
            if not (b.bitrate_kbps > a.bitrate_kbps and b.psnr_db > a.psnr_db):
                raise DegenerateCurveError(
                    "points must increase strictly in both bitrate and PSNR"
                )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "RdCurve":
        """Build from (bitrate_kbps, psnr_db) pairs, already rate-ordered."""
        return cls(tuple(RdPoint(rate, quality) for rate, quality in pairs))

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.bitrate_kbps for p in self.points])

    @property
    def psnrs(self) -> np.ndarray:
        return np.array([p.psnr_db for p in self.points])


def psnr(reference: Plane, test: Plane, bit_depth: int) -> float:
    """Peak signal-to-noise ratio in dB; math.inf when the planes are identical.

    The squared-error sum is accumulated exactly in integers, so equal
    inputs report infinity rather than a large finite number.
    """
    # VideoFormat, taking the plane as one 4:4:4 channel, refuses it empty or at a depth not 8 or 10.
    peak = VideoFormat(reference.width, reference.height, bit_depth, ChromaFormat.YUV444).max_sample
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"plane dimensions differ: {reference.width}x{reference.height}"
            f" vs {test.width}x{test.height}"
        )
    diff = np.subtract(reference.data, test.data, dtype=np.int64, casting="unsafe").ravel()
    sse = int(np.dot(diff, diff))
    if sse == 0:
        return math.inf
    count = reference.width * reference.height
    return 10.0 * math.log10(peak * peak * count / sse)


def _overlap(anchor: np.ndarray, test: np.ndarray) -> tuple[float, float]:
    """The span both curves' abscissae cover, their PSNRs or their log10 rates."""
    (a_lo, a_hi), (t_lo, t_hi) = ((float(x.min()), float(x.max())) for x in (anchor, test))
    lo, hi = max(a_lo, t_lo), min(a_hi, t_hi)
    if hi < lo:
        raise CurveOverlapError(
            f"curves do not overlap: the anchor spans [{a_lo}, {a_hi}], the test [{t_lo}, {t_hi}]"
        )
    if hi - lo < MIN_OVERLAP:
        raise CurveOverlapError(f"curves overlap on [{lo}, {hi}], narrower than {MIN_OVERLAP}")
    return lo, hi


def _mean_fit_difference(
    x_anchor: np.ndarray,
    y_anchor: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> float:
    """Average (test - anchor) gap between two cubic fits y(x) over the shared x span."""
    lo, hi = _overlap(x_anchor, x_test)
    # Center the abscissa so the quartic Vandermonde system stays well conditioned.
    mid = 0.5 * (lo + hi)
    # Huge abscissae overflow the Vandermonde matrix; stop there, before
    # LAPACK sees the inf and prints to stderr.
    try:
        with np.errstate(over="raise", invalid="raise"):
            fit_anchor = np.polyfit(x_anchor - mid, y_anchor, 3)
            fit_test = np.polyfit(x_test - mid, y_test, 3)
    except FloatingPointError as exc:
        raise DegenerateCurveError(
            "the cubic fit overflows: the curves lie too high to compare"
        ) from exc
    anti = np.polyint(fit_test - fit_anchor)
    a, b = lo - mid, hi - mid
    return float(np.polyval(anti, b) - np.polyval(anti, a)) / (hi - lo)


def _require_finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise DegenerateCurveError(
            f"{name} is {value}: the curves lie too far apart or too high to compare"
        )
    return value


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average bitrate difference of test vs anchor at equal quality, in percent.

    Negative means the test curve needs less bitrate for the same PSNR.
    Raises DegenerateCurveError when the rate ratio overflows a float or
    the fit does not give a finite value.
    """
    diff = _mean_fit_difference(
        anchor.psnrs, np.log10(anchor.rates), test.psnrs, np.log10(test.rates)
    )
    try:
        ratio = 10.0**diff
    except OverflowError:
        ratio = math.inf
    return _require_finite((ratio - 1.0) * 100.0, "BD-Rate")


def bd_psnr(anchor: RdCurve, test: RdCurve) -> float:
    """Average PSNR difference of test vs anchor at equal bitrate, in dB.

    Raises DegenerateCurveError when the fit does not give a finite value.
    """
    diff = _mean_fit_difference(
        np.log10(anchor.rates), anchor.psnrs, np.log10(test.rates), test.psnrs
    )
    return _require_finite(diff, "BD-PSNR")


CurvesByChannel = Mapping[str, Sequence[tuple[int, RdPoint]]]


def _channel_sort_key(channel: str) -> tuple[int, object]:
    try:
        return (0, CHANNEL_ORDER.index(channel))
    except ValueError:
        return (1, channel)


def _check_channel(channel: str) -> None:
    """Raise ValueError unless the bdrate table and its error lines can print channel as it is."""
    if "," in channel or '"' in channel or "".join(channel.splitlines()) != channel:
        raise ValueError("a channel cannot hold a comma, a quote or a line break")


def rd_csv_bytes(runs: Sequence[tuple[str, CurvesByChannel]]) -> bytes:
    """Serialize labeled per-channel RD measurements.

    Rows are grouped by label, channels in Y/Cb/Cr order, QP ascending
    within each channel. Floats use repr so a parse round-trips exactly.
    A channel that parse_rd_csv would refuse raises its ValueError.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RD_CSV_HEADER)
    for label, curves in runs:
        for channel in sorted(curves, key=_channel_sort_key):
            _check_channel(channel)
            for qp, point in sorted(curves[channel], key=lambda entry: entry[0]):
                writer.writerow([label, channel, qp, repr(point.bitrate_kbps), repr(point.psnr_db)])
    return out.getvalue().encode()


def parse_rd_csv(data: bytes) -> dict[str, dict[str, list[tuple[int, RdPoint]]]]:
    """Inverse of rd_csv_bytes: {label: {channel: [(qp, RdPoint), ...]}}."""
    try:
        # utf-8-sig skips the byte-order mark that a spreadsheet's "CSV UTF-8" export starts with.
        rows = list(csv.reader(io.StringIO(data.decode("utf-8-sig"))))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"bad RD CSV: {exc}") from exc
    header = rows[0] if rows else None
    if header is None or tuple(header) != RD_CSV_HEADER:
        raise ValueError(f"bad RD CSV header {header}, expected {list(RD_CSV_HEADER)}")
    parsed: dict[str, dict[str, list[tuple[int, RdPoint]]]] = {}
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(RD_CSV_HEADER):
            raise ValueError(f"bad RD CSV row {row}")
        label, channel, qp, rate, quality = row
        try:
            _check_channel(channel)
            entry = (int(qp), RdPoint(float(rate), float(quality)))
        except ValueError as exc:
            raise ValueError(f"bad RD CSV row {row}: {exc}") from None
        parsed.setdefault(label, {}).setdefault(channel, []).append(entry)
    return parsed

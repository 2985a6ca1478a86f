"""CU-level QP selection from spatial activity.

Two rules share the same machinery. The luma-only rule normalizes each
CU's luma activity against the frame mean; the cross-channel rule does
the same with the summed luma+Cb+Cr activity. Either way the normalized
value n lands in [1/f, f] for f = 2**(range/6), so the QP delta
6*log2(n) is bounded by the adaptation range, and a CU whose activity
equals the frame mean keeps the slice QP exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

from .activity import ActivityRecord, FrameActivity, frame_activity
from .partition import CU_SIZES, grid_dims
from .yuv import Frame, VideoFormat

__all__ = [
    "Mode",
    "QP_MAX",
    "QP_MIN",
    "QpConfig",
    "QpMap",
    "Rounding",
    "TMode",
    "cu_qp",
    "delta_qp",
    "normalized_activity",
    "qp_map",
    "qp_map_from_activity",
    "round_half_away_from_zero",
    "scaling_factor",
]

QP_MIN = 0
QP_MAX = 51


class Mode(enum.Enum):
    """Which activity drives the QP delta."""

    ADAPTIVE_QP = "adaptiveqp"  # luma activity only
    CBAQ = "cbaq"  # summed luma + Cb + Cr activity


class TMode(enum.Enum):
    """Which frame mean normalizes the cross-channel activity."""

    LUMA = "luma"
    CROSS = "cross"


class Rounding(enum.Enum):
    NEAREST = "nearest"  # round half away from zero
    CEILING = "ceiling"


@dataclass(frozen=True)
class QpConfig:
    """Slice QP, adaptation mode and the knobs that shape the delta."""

    slice_qp: int
    mode: Mode
    qp_range: int = 6
    cu_size: int = 64
    t_mode: TMode = TMode.CROSS
    rounding: Rounding = Rounding.NEAREST

    def __post_init__(self) -> None:
        if not QP_MIN <= self.slice_qp <= QP_MAX:
            raise ValueError(f"slice_qp {self.slice_qp} outside [{QP_MIN}, {QP_MAX}]")
        # No CU can move further than the whole QP span, and the bound keeps
        # scaling_factor far from float overflow.
        if not 0 <= self.qp_range <= QP_MAX - QP_MIN:
            raise ValueError(f"qp_range {self.qp_range} outside [0, {QP_MAX - QP_MIN}]")
        if self.cu_size not in CU_SIZES:
            raise ValueError(f"cu_size {self.cu_size} unsupported; choose one of {CU_SIZES}")


def scaling_factor(qp_range: int) -> float:
    """Map the QP adaptation range into activity space: 2**(range/6).

    A range of 6 gives 2.0, one QP-doubling octave in either direction.
    """
    return 2.0 ** (qp_range / 6.0)


def normalized_activity(s: float, t: float, f: float) -> float:
    """Normalize activity s against the frame mean t.

    Returns (f*s + t) / (s + f*t), which is 1 when s == t and approaches
    f (resp. 1/f) as s grows far above (resp. below) t. The result is
    clamped to [1/f, f], which float rounding can leave by an ulp.
    """
    return min(max((f * s + t) / (s + f * t), 1.0 / f), f)


def round_half_away_from_zero(x: float) -> int:
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def delta_qp(n: float, rounding: Rounding = Rounding.NEAREST) -> int:
    """Integer QP offset for a normalized activity: 6*log2(n), rounded."""
    raw = 6.0 * math.log2(n)
    if rounding is Rounding.CEILING:
        return math.ceil(raw)
    return round_half_away_from_zero(raw)


def cu_qp(config: QpConfig, record: ActivityRecord, activity: FrameActivity) -> int:
    """QP for one CU, clipped to the legal [0, 51] range."""
    f = scaling_factor(config.qp_range)
    if config.mode is Mode.ADAPTIVE_QP:
        s, t = record.luma, activity.t_luma
    else:
        s = record.cross
        t = activity.t_cross if config.t_mode is TMode.CROSS else activity.t_luma
    n = normalized_activity(s, t, f)
    qp = config.slice_qp + delta_qp(n, config.rounding)
    return min(QP_MAX, max(QP_MIN, qp))


@dataclass(frozen=True)
class QpMap:
    """Per-frame grid of CU QPs plus the configuration that produced it."""

    frame_index: int
    cols: int
    rows: int
    qps: tuple[tuple[int, ...], ...]
    config: QpConfig

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (cu_x, cu_y, qp) in raster order, coordinates in luma samples."""
        size = self.config.cu_size
        for row, qps in enumerate(self.qps):
            for col, qp in enumerate(qps):
                yield col * size, row * size, qp

    def flat(self) -> list[int]:
        return [qp for row in self.qps for qp in row]


def qp_map_from_activity(
    fmt: VideoFormat,
    activity: FrameActivity,
    config: QpConfig,
    frame_index: int = 0,
) -> QpMap:
    """Second pass of qp_map, reusing a FrameActivity of fmt at config.cu_size."""
    size, count = config.cu_size, len(activity.records)
    cols, rows = grid_dims(fmt, size)
    last = activity.records[-1].cu
    # With count and size right, the last CU's origin tells a transposed grid apart.
    corner = ((cols - 1) * size, (rows - 1) * size)
    if count != cols * rows or activity.records[0].cu.size != size or (last.x, last.y) != corner:
        raise ValueError(
            f"activity of {count} CUs was not computed on the {cols}x{rows} grid"
            f" of CU {size}"
        )
    records = iter(activity.records)
    qps = tuple(
        tuple(cu_qp(config, next(records), activity) for _ in range(cols)) for _ in range(rows)
    )
    return QpMap(frame_index=frame_index, cols=cols, rows=rows, qps=qps, config=config)


def qp_map(frame: Frame, config: QpConfig, frame_index: int = 0) -> QpMap:
    """Compute one QP per CU of a frame.

    Pass 1 gathers frame-level activity statistics, pass 2 converts each
    CU's activity into a QP.
    """
    activity = frame_activity(frame, config.cu_size)
    return qp_map_from_activity(frame.format, activity, config, frame_index=frame_index)

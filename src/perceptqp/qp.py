"""CU-level QP selection from spatial activity.

Two rules share the same machinery. The luma-only rule normalizes each
CU's luma activity against the frame mean; the cross-channel rule does
the same with the summed luma+Cb+Cr activity. Either way the normalized
value n lands in [1/f, f] for f = 2**(range/6), so the QP delta
6*log2(n) is bounded by the adaptation range, and a CU whose activity
equals the frame mean keeps the slice QP exactly.

qp_grid applies a rule to a whole frame's activity arrays at once;
cu_qp is the per-CU reference it must match exactly, and the QpMap
builders wrap qp_grid's result.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .activity import ActivityArrays, ActivityRecord, FrameActivity, activity_arrays
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
# The CU sizes the QP maps support; partition re-exports them and grid_dims.
CU_SIZES = (16, 32, 64)


def grid_dims(fmt: VideoFormat, cu_size: int) -> tuple[int, int]:
    """CU grid shape as (columns, rows)."""
    return -(-fmt.width // cu_size), -(-fmt.height // cu_size)


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
        # A float slice_qp would make cu_qp return a float, and a float cu_size
        # passes the CU_SIZES check but cannot slice a plane.
        for name in ("slice_qp", "qp_range", "cu_size"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} {getattr(self, name)!r} is not an integer")
        if not QP_MIN <= self.slice_qp <= QP_MAX:
            raise ValueError(f"slice_qp {self.slice_qp} outside [{QP_MIN}, {QP_MAX}]")
        # No CU can move further than the whole QP span, and the bound keeps
        # scaling_factor far from float overflow.
        if not 0 <= self.qp_range <= QP_MAX - QP_MIN:
            raise ValueError(f"qp_range {self.qp_range} outside [0, {QP_MAX - QP_MIN}]")
        if self.cu_size not in CU_SIZES:
            raise ValueError(f"cu_size {self.cu_size} unsupported; choose one of {CU_SIZES}")
        # The rules compare by identity, so a string such as "ceiling" would
        # silently select the other branch.
        for name, kind in (("mode", Mode), ("t_mode", TMode), ("rounding", Rounding)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} {getattr(self, name)!r} is not a {kind.__name__}")


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


def _delta_qps(n: np.ndarray, rounding: Rounding) -> np.ndarray:
    """delta_qp of every element of n, as floats holding integers, written over n (1-D or 2-D).

    np.log2 can differ from math.log2 in the last bit, which can move a
    value across a rounding boundary, so math.log2 is mapped over n one row
    at a time, and only one row is boxed as Python floats at once. The other
    steps are delta_qp's IEEE operations, in its order, done in place; the
    nearest rounding computes both of its branches and keeps one per element.
    """
    for row in np.atleast_2d(n):
        row[:] = list(map(math.log2, row.tolist()))
    n *= 6.0
    if rounding is Rounding.CEILING:
        return np.ceil(n, out=n)
    negative = n < 0
    below = np.subtract(n, 0.5)
    np.ceil(below, out=below)
    n += 0.5
    np.floor(n, out=n)
    np.copyto(n, below, where=negative)
    return n


def qp_grid(config: QpConfig, act: ActivityArrays) -> np.ndarray:
    """cu_qp of every CU at once, as a (rows, cols) int64 array.

    Each step is the IEEE operation cu_qp performs, in the same order, so
    every element equals cu_qp exactly. The steps write into buffers of the
    grid's size that this call owns, act.cross among them; act's own arrays
    are only read, since the caller may still render them.
    """
    f = scaling_factor(config.qp_range)
    if config.mode is Mode.ADAPTIVE_QP:
        s, t = act.luma, act.t_luma
    elif act.cb is None:
        raise ValueError(f"the {config.mode.value} rule reads chroma activity; none was computed")
    else:
        s = act.cross
        t = act.t_cross if config.t_mode is TMode.CROSS else act.t_luma
    n = np.multiply(f, s)
    n += t
    if config.mode is Mode.ADAPTIVE_QP:
        n /= s + f * t  # a temporary, since act.luma is the caller's
    else:
        s += f * t  # act.cross is this call's own array
        n /= s
    np.maximum(n, 1.0 / f, out=n)
    np.minimum(n, f, out=n)
    qps = _delta_qps(n, config.rounding)
    qps += config.slice_qp
    return np.clip(qps, QP_MIN, QP_MAX, out=qps).astype(np.int64)


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


def _qp_map(config: QpConfig, act: ActivityArrays, frame_index: int) -> QpMap:
    rows, cols = act.luma.shape
    qps = tuple(map(tuple, qp_grid(config, act).tolist()))
    return QpMap(frame_index=frame_index, cols=cols, rows=rows, qps=qps, config=config)


def qp_map_from_activity(
    fmt: VideoFormat,
    activity: ActivityArrays,
    config: QpConfig,
    frame_index: int = 0,
) -> QpMap:
    """Second pass of qp_map, reusing frame_activity of a frame of fmt at config.cu_size."""
    cols, rows = grid_dims(fmt, config.cu_size)
    # Two CU sizes give one grid shape only to a frame of one clipped CU,
    # whose blocks are the same at both, so the shape is all there is to check.
    if activity.luma.shape != (rows, cols):
        raise ValueError(
            f"activity of {activity.luma.size} CUs was not computed on the {cols}x{rows} grid"
            f" of CU {config.cu_size}"
        )
    return _qp_map(config, activity, frame_index)


def qp_map(frame: Frame, config: QpConfig, frame_index: int = 0) -> QpMap:
    """Compute one QP per CU of a frame.

    Pass 1 gathers frame-level activity statistics, pass 2 converts each
    CU's activity into a QP.
    """
    act = activity_arrays(frame, config.cu_size, chroma=config.mode is Mode.CBAQ)
    return _qp_map(config, act, frame_index)

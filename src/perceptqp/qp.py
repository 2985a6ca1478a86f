"""CU-level QP selection from spatial activity.

Two rules share the same machinery. The luma-only rule normalizes each
CU's luma activity against the frame mean; the cross-channel rule does
the same with the summed luma+Cb+Cr activity. Either way the normalized
value n lands in [1/f, f] for f = 2**(range/6), so the QP delta
6*log2(n) is bounded by the adaptation range, and a CU whose activity
equals the frame mean keeps the slice QP exactly.

qp_grid applies a rule to a whole frame's activity arrays at once and
must equal partition.cu_qp, the per-CU reference, exactly;
qp_map_from_activity, the one QpMap builder, wraps its result.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# CU_SIZES is defined with the activity pass that checks it, and re-exported here.
from .activity import CU_SIZES, ActivityArrays, check_cu_size, frame_activity
from .yuv import Frame, VideoFormat

QP_MIN = 0
QP_MAX = 51


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
        check_cu_size(self.cu_size)
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


def _delta_qps(n: np.ndarray, rounding: Rounding) -> np.ndarray:
    """delta_qp of each element of the (rows, cols) grid n, written over n as floats holding integers.

    np.log2 can differ from math.log2 in the last bit, which can move a
    value across a rounding boundary, so math.log2 is mapped over n one row
    at a time, and only one row is boxed as Python floats at once. The
    scaling and the ceiling are delta_qp's IEEE operations, done in place. The
    nearest rounding takes half away from zero as copysign(floor(|x| + 0.5), x):
    IEEE rounding is symmetric in sign, so for x < 0 floor(|x| + 0.5) is
    exactly -ceil(x - 0.5), the branch round_half_away_from_zero takes there.
    """
    for row in n:
        row[:] = list(map(math.log2, row.tolist()))
    n *= 6.0
    if rounding is Rounding.CEILING:
        return np.ceil(n, out=n)
    magnitude = np.abs(n)
    magnitude += 0.5
    np.floor(magnitude, out=magnitude)
    return np.copysign(magnitude, n, out=n)


def qp_grid(config: QpConfig, act: ActivityArrays) -> np.ndarray:
    """cu_qp of every CU at once, as a (rows, cols) int64 array.

    Each step is the IEEE operation cu_qp performs, in the same order, so
    every element equals cu_qp exactly. The steps write only into buffers
    this call makes; act is only read.
    """
    f = scaling_factor(config.qp_range)
    if config.mode is Mode.ADAPTIVE_QP:
        s, t = act.luma, act.t_luma
    elif act.cross is None:
        raise ValueError(f"the {config.mode.value} rule reads chroma activity; none was computed")
    else:
        s = act.cross
        t = act.t_cross if config.t_mode is TMode.CROSS else act.t_luma
    n = np.multiply(f, s)
    n += t
    n /= s + f * t
    np.clip(n, 1.0 / f, f, out=n)
    qps = _delta_qps(n, config.rounding)
    qps += config.slice_qp
    return np.clip(qps, QP_MIN, QP_MAX, out=qps).astype(np.int64)


@dataclass(frozen=True)
class QpMap:
    """Per-frame grid of CU QPs plus the configuration that produced it."""

    frame_index: int
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
    qps = tuple(map(tuple, qp_grid(config, activity).tolist()))
    return QpMap(frame_index=frame_index, qps=qps, config=config)


def qp_map(frame: Frame, config: QpConfig) -> QpMap:
    """One QP per CU of a frame, as frame 0: frame_activity, then qp_map_from_activity."""
    act = frame_activity(frame, config.cu_size, chroma=config.mode is Mode.CBAQ)
    return qp_map_from_activity(frame.format, act, config)

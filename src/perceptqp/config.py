"""The vocabulary of a run: clip geometry, QP rule and their checks, with no numpy.

The CLI builds its parser from these names alone, so a usage error or
--help never loads numpy. The other modules import them from here, and
yuv and qp re-export the ones perceptqp lists as theirs.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

BIT_DEPTHS = (8, 10)  # the sample bit depths VideoFormat accepts
CU_SIZES = (16, 32, 64)  # the CU sizes the QP maps support
QP_MIN = 0
QP_MAX = 51


class YuvError(ValueError):
    """Invalid geometry or raw YCbCr data."""


class TruncatedInputError(YuvError):
    """The stream ended before a whole frame could be read."""


class SampleRangeError(YuvError):
    """A sample value lies outside the legal range for the bit depth."""


def _integer(name: str, value: object, error: type[ValueError] = YuvError) -> int:
    """value as an int, or error naming it unless it is an integer: a float cannot size a plane."""
    # A numpy integer keeps its width in arithmetic: 1 << np.uint8(10) wraps to 0.
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} {value!r} is not an integer")
    return int(value)


def check_cu_size(cu_size: int) -> int:
    """cu_size as an int, or ValueError unless it is an integer in CU_SIZES."""
    cu_size = _integer("cu_size", cu_size, ValueError)
    if cu_size not in CU_SIZES:
        raise ValueError(f"cu_size {cu_size} unsupported; choose one of {CU_SIZES}")
    return cu_size


class ChromaFormat(enum.Enum):
    """Chroma subsampling layout in the usual J:a:b shorthand."""

    YUV444 = "444"
    YUV422 = "422"
    YUV420 = "420"

    @property
    def sub_x(self) -> int:
        """Horizontal luma-to-chroma subsampling factor."""
        return 1 if self is ChromaFormat.YUV444 else 2

    @property
    def sub_y(self) -> int:
        """Vertical luma-to-chroma subsampling factor."""
        return 2 if self is ChromaFormat.YUV420 else 1


class Channel(enum.Enum):
    Y = "Y"
    CB = "Cb"
    CR = "Cr"


@dataclass(frozen=True)
class VideoFormat:
    """Geometry and sample format of a raw clip.

    Raw files carry no metadata, so all of this must be declared by the
    caller and is validated up front.
    """

    width: int
    height: int
    bit_depth: int = 8
    chroma_format: ChromaFormat = ChromaFormat.YUV420

    def __post_init__(self) -> None:
        for name in ("width", "height", "bit_depth"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not isinstance(self.chroma_format, ChromaFormat):
            raise YuvError(f"chroma_format {self.chroma_format!r} is not a ChromaFormat")
        if self.width < 1 or self.height < 1:
            raise YuvError(f"frame size {self.width}x{self.height} must be positive")
        if self.bit_depth not in BIT_DEPTHS:
            raise YuvError(f"bit depth {self.bit_depth} unsupported (use 8 or 10)")
        cf = self.chroma_format
        if cf.sub_x == 2 and self.width % 2:
            raise YuvError(f"width {self.width} must be even for {cf.value} subsampling")
        if cf.sub_y == 2 and self.height % 2:
            raise YuvError(f"height {self.height} must be even for {cf.value} subsampling")

    @property
    def max_sample(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def bytes_per_sample(self) -> int:
        return self.dtype.itemsize

    @property
    def dtype(self) -> np.dtype:
        """Native in-memory dtype for this bit depth; the first use loads numpy."""
        import numpy as np

        return np.dtype(np.uint8 if self.bit_depth == 8 else np.uint16)


class Mode(enum.Enum):
    """Which activity drives the QP delta."""

    ADAPTIVE_QP = "adaptiveqp"  # luma activity only
    CBAQ = "cbaq"  # summed luma + Cb + Cr activity

    @property
    def reads_chroma(self) -> bool:
        """Whether the rule reads the Cb and Cr blocks, so its activity needs chroma=True."""
        return self is Mode.CBAQ


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
        for name in ("slice_qp", "qp_range", "cu_size"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), ValueError))
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

"""Perceptually adaptive per-CU QP maps for raw YCbCr video.

Pipeline: raw planar frames -> CU grid and per-channel coding blocks ->
sub-block variance activity -> per-CU QP under a luma-only or
cross-channel rule. Plus PSNR and Bjontegaard metrics for comparing the
resulting RD curves.
"""

import os

# numpy's OpenBLAS starts a spinning worker per extra core at import; the
# analysis never calls BLAS, so one thread saves that CPU. An explicit value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .activity import (
    ActivityRecord,
    FrameActivity,
    block_variance,
    cu_activity,
    frame_activity,
)
from .metrics import (
    CurveOverlapError,
    DegenerateCurveError,
    RdCurve,
    RdPoint,
    bd_psnr,
    bd_rate,
    parse_rd_csv,
    psnr,
)
from .partition import CU_SIZES, CbRect, CuRect, cb_rect, cu_grid, grid_dims, sub_blocks
from .qp import (
    Mode,
    QP_MAX,
    QP_MIN,
    QpConfig,
    QpMap,
    Rounding,
    TMode,
    cu_qp,
    delta_qp,
    normalized_activity,
    qp_map,
    qp_map_from_activity,
    round_half_away_from_zero,
    scaling_factor,
)
from .yuv import (
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

__version__ = "0.1.0"

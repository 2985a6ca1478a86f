"""Independent reference for the CLI's outputs on a benchmark clip.

This re-derives every per-CU activity and QP from the raw clip with numpy
summed-area tables and the rule as the README states it, without importing
perceptqp, so the benchmark can check the program's outputs for any seed.
The arithmetic matches the program's exactly: sums and squared sums are
exact integers below 2**53, each variance is one correctly rounded
float division of (n*S2 - S1**2) by n**2, and the frame means are
sequential float sums in raster order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from clips import plane_shapes, storage_dtype

QP_MIN, QP_MAX = 0, 51


def cu_origins(width: int, height: int, cu: int) -> tuple[np.ndarray, ...]:
    """Luma origin and clipped extent of every CU, each as a (rows, cols) array."""
    ys, xs = np.meshgrid(
        np.arange(0, height, cu, dtype=np.int64), np.arange(0, width, cu, dtype=np.int64), indexing="ij"
    )
    return xs, ys, np.minimum(cu, width - xs), np.minimum(cu, height - ys)


def channel_blocks(width: int, height: int, chroma: str, cu: int) -> list[tuple[np.ndarray, ...]]:
    """Coding-block rectangles (x, y, w, h) per channel; chroma extents round up."""
    xs, ys, cw, ch = cu_origins(width, height, cu)
    sub_x = 1 if chroma == "444" else 2
    sub_y = 2 if chroma == "420" else 1
    chroma_block = (xs // sub_x, ys // sub_y, -(-cw // sub_x), -(-ch // sub_y))
    return [(xs, ys, cw, ch), chroma_block, chroma_block]


def quadrants(x, y, w, h) -> list[tuple[np.ndarray, ...]]:
    """The four quadrants of each block; odd extents give the left/top the extra sample."""
    left, top = (w + 1) // 2, (h + 1) // 2
    right, bottom = w - left, h - top
    return [
        (x, y, left, top),
        (x + left, y, right, top),
        (x, y + top, left, bottom),
        (x + left, y + top, right, bottom),
    ]


def subblock_count(width: int, height: int, chroma: str, cu: int) -> int:
    """Non-empty quadrant sub-blocks over all channels of one frame."""
    return sum(
        int(np.count_nonzero((qw > 0) & (qh > 0)))
        for block in channel_blocks(width, height, chroma, cu)
        for _, _, qw, qh in quadrants(*block)
    )


def _box_sum(table: np.ndarray, x, y, w, h) -> np.ndarray:
    return table[y + h, x + w] - table[y, x + w] - table[y + h, x] + table[y, x]


def block_activity(plane: np.ndarray, block) -> np.ndarray:
    """1 + the smallest population variance among each block's non-empty quadrants."""
    rows, cols = plane.shape
    s1 = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    s2 = np.zeros_like(s1)
    s1[1:, 1:] = plane.cumsum(0).cumsum(1)
    s2[1:, 1:] = (plane * plane).cumsum(0).cumsum(1)
    best = np.full(block[0].shape, np.inf)
    for qx, qy, qw, qh in quadrants(*block):
        n = qw * qh
        sum1, sum2 = _box_sum(s1, qx, qy, qw, qh), _box_sum(s2, qx, qy, qw, qh)
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (n * sum2 - sum1 * sum1) / (n * n)
        best = np.minimum(best, np.where(n > 0, var, np.inf))
    return 1.0 + best


def clip_activity(path: Path, width: int, height: int, chroma: str, bit_depth: int, cu: int):
    """Per frame: raster-order luma, Cb, Cr activity lists and the means t_luma, t_cross."""
    shapes = plane_shapes(width, height, chroma)
    dtype = storage_dtype(bit_depth)
    samples = sum(r * c for r, c in shapes)
    blocks = channel_blocks(width, height, chroma, cu)
    raw = np.fromfile(path, dtype=dtype)
    frames = []
    for start in range(0, raw.size, samples):
        offset = start
        per_channel = []
        for (rows, cols), block in zip(shapes, blocks):
            plane = raw[offset : offset + rows * cols].reshape(rows, cols).astype(np.int64)
            per_channel.append(block_activity(plane, block).ravel())
            offset += rows * cols
        luma, cb, cr = per_channel
        cross = luma + cb + cr
        count = luma.size
        frames.append(
            (luma.tolist(), cb.tolist(), cr.tolist(), sum(luma.tolist()) / count, sum(cross.tolist()) / count)
        )
    return frames


def qp_values(activity: list[float], mean: float, slice_qp: int, qp_range: int) -> list[int]:
    """QP = clip(slice_qp + round(6*log2((f*s + t)/(s + f*t)))), f = 2**(range/6)."""
    f = 2.0 ** (qp_range / 6.0)
    out = []
    for s in activity:
        raw = 6.0 * math.log2((f * s + mean) / (s + f * mean))
        delta = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
        out.append(min(QP_MAX, max(QP_MIN, slice_qp + delta)))
    return out


def _mode_qps(mode: str, frame, slice_qp: int, qp_range: int) -> list[int]:
    luma, cb, cr, t_luma, t_cross = frame
    if mode == "adaptiveqp":
        return qp_values(luma, t_luma, slice_qp, qp_range)
    cross = [l + b + d for l, b, d in zip(luma, cb, cr)]
    return qp_values(cross, t_cross, slice_qp, qp_range)


def expected_outputs(workload, clip: Path, width: int, height: int, slice_qp: int, qp_range: int) -> dict:
    """Per output role: the expected data rows (CSV) or frame list (JSON)."""
    cu = workload.cu_size
    frames = clip_activity(clip, width, height, workload.chroma, workload.bit_depth, cu)
    cols = -(-width // cu)
    rows = -(-height // cu)
    cells = [(k % cols * cu, k // cols * cu) for k in range(rows * cols)]
    if workload.command == "compare":
        mode_a, mode_b = workload.modes
        lines = ["frame,cu_x,cu_y,qp_a,qp_b,delta"]
        for index, frame in enumerate(frames):
            qa = _mode_qps(mode_a, frame, slice_qp, qp_range)
            qb = _mode_qps(mode_b, frame, slice_qp, qp_range)
            lines += [f"{index},{x},{y},{a},{b},{b - a}" for (x, y), a, b in zip(cells, qa, qb)]
        return {"diff": lines}

    (mode,) = workload.modes
    maps = [_mode_qps(mode, frame, slice_qp, qp_range) for frame in frames]
    expected: dict = {}
    if workload.out_format == "json":
        expected["map"] = [
            {
                "frame": i,
                "cols": cols,
                "rows": rows,
                "qp": [qps[r * cols : (r + 1) * cols] for r in range(rows)],
            }
            for i, qps in enumerate(maps)
        ]
    else:
        expected["map"] = ["frame,cu_x,cu_y,qp"] + [
            f"{i},{x},{y},{qp}" for i, qps in enumerate(maps) for (x, y), qp in zip(cells, qps)
        ]
    if workload.dump_activity:
        lines = ["frame,cu_x,cu_y,l,b,d,t_luma,t_cross"]
        for i, (luma, cb, cr, t_luma, t_cross) in enumerate(frames):
            lines += [
                f"{i},{x},{y},{l!r},{b!r},{d!r},{t_luma!r},{t_cross!r}"
                for (x, y), l, b, d in zip(cells, luma, cb, cr)
            ]
        expected["activity"] = lines
    return expected


def check_outputs(paths: dict[str, Path], expected: dict) -> list[str]:
    """Problems found comparing output files with the reference; empty when all agree."""
    problems = []
    for role, want in expected.items():
        path = paths[role]
        if not path.is_file():
            problems.append(f"{role}: {path.name} was not written")
            continue
        try:
            text = path.read_text()
            got = json.loads(text)["frames"] if path.suffix == ".json" else text.splitlines()[1:]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{role}: {path.name} is malformed ({exc!r})")
            continue
        if path.suffix != ".json" and not text.startswith("# perceptqp "):
            problems.append(f"{role}: missing '# perceptqp' configuration comment")
        if got != want:
            problems.append(f"{role}: {path.name} differs from the reference")
    return problems

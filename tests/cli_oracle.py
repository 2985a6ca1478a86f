"""A model of the CLI's analyze, compare and dump-activity runs that imports nothing from perceptqp.

run(argv) reads the raw clips argv names with numpy and returns what
perceptqp.cli.main(argv) must print on stdout and stderr and write to
each output.
Per-CU activity comes from perfbench/oracle.py's summed-area tables, loaded
by path, so tests and benchmark share one activity model. The frame means
fold left to right with functools.reduce; the QP rule and layouts are README's.
"""

import importlib.util
import json
import math
import operator
import sys
from collections import Counter, namedtuple
from functools import reduce
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", BENCH / "oracle.py")
_bench = importlib.util.module_from_spec(_spec)
sys.path.insert(0, str(BENCH))  # oracle.py imports its sibling clips.py by name
try:
    _spec.loader.exec_module(_bench)
finally:
    sys.path.remove(str(BENCH))
channel_blocks, block_activity = _bench.channel_blocks, _bench.block_activity

# One frame's per-CU activity, each channel and their sum as (rows, cols) arrays, and its means.
Activity = namedtuple("Activity", "luma cb cr cross t_luma t_cross")


def raster_mean(grid):
    """The mean of grid's values added strictly left to right in raster order."""
    values = grid.ravel().tolist()
    return reduce(operator.add, values) / len(values)


def frame_activity(planes, chroma, cu_size):
    """Activity of a frame given as its Y, Cb and Cr sample arrays."""
    height, width = np.shape(planes[0])
    blocks = channel_blocks(width, height, chroma, cu_size)
    luma, cb, cr = (block_activity(np.asarray(p, dtype=np.int64), b) for p, b in zip(planes, blocks))
    cross = luma + cb + cr
    return Activity(luma, cb, cr, cross, raster_mean(luma), raster_mean(cross))


def read_clip(path, width, height, chroma, bit_depth):
    """Every frame of a raw planar clip, as its Y, Cb and Cr sample arrays."""
    shapes = _bench.plane_shapes(width, height, chroma)
    raw = np.fromfile(path, dtype=_bench.storage_dtype(bit_depth))
    ends = np.cumsum([rows * cols for rows, cols in shapes])
    frames = np.split(raw, raw.size // ends[-1])
    return [[s.reshape(shape) for s, shape in zip(np.split(f, ends[:-1]), shapes)] for f in frames]


def qp(s, t, slice_qp, qp_range, rounding):
    """clip(slice_qp + round(6 * log2(n)), 0, 51), n = (f*s + t) / (s + f*t) clamped to [1/f, f]."""
    f = 2.0 ** (qp_range / 6.0)
    raw = 6.0 * math.log2(min(f, max(1.0 / f, (f * s + t) / (s + f * t))))
    if rounding == "ceiling":
        delta = math.ceil(raw)
    else:  # nearest, half away from zero
        delta = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
    return min(51, max(0, slice_qp + delta))


def csv_text(tag, items, columns, frames):
    """The comment echoing items, the column line, and a row per CU of each (index, cu_size, grids, tail)."""
    lines = ["# perceptqp " + tag + " " + " ".join(f"{k}={v}" for k, v in items), "frame,cu_x,cu_y," + columns]
    for index, cu_size, grids, tail in frames:
        for (row, col), *values in zip(np.ndindex(grids[0].shape), *(g.ravel().tolist() for g in grids)):
            lines.append(",".join(map(repr, [index, col * cu_size, row * cu_size, *values, *tail])))
    return "\n".join(lines) + "\n"


def routed(summary, outputs):
    """(stdout, stderr, files) of a run that prints summary and writes outputs."""
    if "/dev/stdout" in outputs:
        return outputs.pop("/dev/stdout"), summary, outputs
    return summary, "", outputs


def run(argv):
    """(stdout, stderr, {output path as in argv: its text}) of main(argv) for a clip command.

    Every flag in argv takes a value, and a repeated flag takes its last
    one, as argparse gives it. An output of /dev/stdout is stdout, and
    the summary then goes to stderr.
    """
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    assert len(argv) % 2 and all(flag.startswith("--") for flag in flags), argv

    def flag(name, default=None, kind=int):
        return kind(flags.get(name, default))

    width, height, cu_size, skip = flag("--width"), flag("--height"), flag("--cu-size", 64), flag("--skip", 0)
    bit_depth, chroma = flag("--bit-depth", 8), flag("--chroma", "420", str)
    frames = read_clip(flags["--input"], width, height, chroma, bit_depth)[skip:]
    frames = frames[: flag("--frames", len(frames))]
    acts = [frame_activity(f, chroma, cu_size) for f in frames]
    indices = range(skip, skip + len(acts))
    slice_qp, qp_range = flag("--qp", 0), flag("--qp-range", 6)

    def qp_grid(act, suffix=""):
        t_mode, rounding = flag(f"--t-mode{suffix}", "cross", str), flag(f"--rounding{suffix}", "nearest", str)
        if flags[f"--mode{suffix}"] == "adaptiveqp":
            s, t = act.luma, act.t_luma
        else:
            s, t = act.cross, act.t_cross if t_mode == "cross" else act.t_luma
        return np.array([[qp(v, t, slice_qp, qp_range, rounding) for v in row] for row in s.tolist()])

    items = [("width", width), ("height", height), ("bit_depth", bit_depth), ("chroma", chroma)]
    items += [("cu_size", cu_size)]
    activity_rows = [(i, cu_size, a[:3], a[4:]) for i, a in zip(indices, acts)]
    activity = csv_text("activity", items, "l,b,d,t_luma,t_cross", activity_rows)
    if command == "dump-activity":
        summary = f"frames={len(indices)} cus_per_frame={acts[0].luma.size}\n"
        return routed(summary, {flags["--output"]: activity})
    if command == "compare":
        pairs = [(qp_grid(a, "-a"), qp_grid(a, "-b")) for a in acts]
        items += [("qp", slice_qp), ("qp_range", qp_range)]
        items += [("mode_a", flags["--mode-a"]), ("mode_b", flags["--mode-b"])]
        rows = [(i, cu_size, [a, b, b - a], []) for i, (a, b) in zip(indices, pairs)]
        histogram = Counter(np.concatenate([(b - a).ravel() for a, b in pairs]).tolist())
        summary = "".join(f"delta={d:+d} count={histogram[d]}\n" for d in sorted(histogram))
        return routed(summary, {flags["--output"]: csv_text("compare", items, "qp_a,qp_b,delta", rows)})
    assert command == "analyze", command
    maps = [qp_grid(a) for a in acts]
    items += [("mode", flags["--mode"]), ("qp", slice_qp), ("qp_range", qp_range)]
    items += [("t_mode", flag("--t-mode", "cross", str)), ("rounding", flag("--rounding", "nearest", str))]
    if flag("--format", "csv", str) == "json":
        frames = [
            {"frame": i, "cols": m.shape[1], "rows": m.shape[0], "qp": m.tolist()} for i, m in zip(indices, maps)
        ]
        text = json.dumps({"config": dict(items), "frames": frames}, indent=2) + "\n"
    else:
        text = csv_text("qp-map", items, "qp", [(i, cu_size, [m], []) for i, m in zip(indices, maps)])
    outputs = {flags["--output"]: text}
    if "--dump-activity" in flags:
        outputs[flags["--dump-activity"]] = activity
    every = np.concatenate([m.ravel() for m in maps]).tolist()
    mean_delta = (sum(every) - slice_qp * len(every)) / len(every)
    summary = f"frames={len(maps)} cus={len(every)} mean_delta_qp={mean_delta:.4f}"
    return routed(f"{summary} min_qp={min(every)} max_qp={max(every)}\n", outputs)

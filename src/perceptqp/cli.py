"""Command-line front end: raw clips in, QP maps and RD metrics out.

Subcommands:
  analyze        per-CU QP map for every frame of a clip
  compare        per-CU QP difference between two runs
  bdrate         BD-Rate / BD-PSNR between two RD CSV files
  dump-activity  per-CU activity values without QP mapping
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

from .activity import FrameActivity, frame_activity
from .metrics import RdCurve, _channel_sort_key, bd_psnr, bd_rate, parse_rd_csv
from .partition import CU_SIZES
from .qp import Mode, QpConfig, QpMap, Rounding, TMode, qp_map_from_activity
from .yuv import (
    ChromaFormat,
    Frame,
    VideoFormat,
    YuvError,
    probe_frame_count,
    read_frame,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _format_from_args(args: argparse.Namespace) -> VideoFormat:
    return VideoFormat(
        width=args.width,
        height=args.height,
        bit_depth=args.bit_depth,
        chroma_format=ChromaFormat(args.chroma),
    )


def _qp_config(args: argparse.Namespace, suffix: str = "") -> QpConfig:
    """The QP rule from the flags _add_qp_args added with the same suffix."""
    return QpConfig(
        slice_qp=args.qp,
        mode=Mode(getattr(args, f"mode{suffix}")),
        qp_range=args.qp_range,
        cu_size=args.cu_size,
        t_mode=TMode(getattr(args, f"t_mode{suffix}")),
        rounding=Rounding(getattr(args, f"rounding{suffix}")),
    )


def _refuse_to_overwrite(inputs: list[Path | None], outputs: list[Path | None]) -> None:
    """Raise before anything is written if an existing output is one of the inputs."""
    for out in outputs:
        if out is None or not out.exists():
            continue
        for path in inputs:
            if path is not None and path.exists() and os.path.samefile(out, path):
                raise ValueError(f"output {out} is the input {path}; refusing to overwrite it")


def _refuse_shared_output(first: Path, second: Path | None) -> None:
    """Raise before anything is read or written if two outputs name one file."""
    if second is None:
        return
    if first.exists() and second.exists():
        shared = os.path.samefile(first, second)
    else:
        shared = first.resolve() == second.resolve()
    if shared:
        raise ValueError(
            f"outputs {first} and {second} are the same file; one would overwrite the other"
        )


def _frame_range(total: int, skip: int, frames: int | None) -> range:
    if skip < 0:
        raise YuvError(f"--skip must be >= 0, got {skip}")
    if frames is not None and frames < 1:
        raise YuvError(f"--frames must be >= 1, got {frames}")
    if total == 0:
        raise YuvError("input holds no complete frames")
    if skip >= total:
        raise YuvError(f"--skip {skip} is beyond the {total}-frame input")
    count = total - skip if frames is None else frames
    if skip + count > total:
        raise YuvError(
            f"requested frames {skip}..{skip + count - 1} but input has only {total}"
        )
    return range(skip, skip + count)


def load_frames(path: Path, fmt: VideoFormat, skip: int, frames: int | None) -> list[tuple[int, Frame]]:
    """Read the selected frame range; the file size must match the geometry."""
    with open(path, "rb") as stream:
        total = probe_frame_count(stream, fmt)
        return [(i, read_frame(stream, fmt, i)) for i in _frame_range(total, skip, frames)]


def frame_activities(
    path: Path, fmt: VideoFormat, args: argparse.Namespace
) -> Iterator[tuple[int, FrameActivity]]:
    """Yield (index, activity) for every frame the flags select: the CLI's one frame loop."""
    for index, frame in load_frames(path, fmt, args.skip, args.frames):
        yield index, frame_activity(frame, args.cu_size)


def _qp_maps(
    activities: list[tuple[int, FrameActivity]], fmt: VideoFormat, config: QpConfig
) -> list[QpMap]:
    return [qp_map_from_activity(fmt, act, config, frame_index=index) for index, act in activities]


def _echo_items(fmt: VideoFormat, config: QpConfig | None) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("width", fmt.width),
        ("height", fmt.height),
        ("bit_depth", fmt.bit_depth),
        ("chroma", fmt.chroma_format.value),
    ]
    if config is not None:
        items += [
            ("cu_size", config.cu_size),
            ("mode", config.mode.value),
            ("qp", config.slice_qp),
            ("qp_range", config.qp_range),
            ("t_mode", config.t_mode.value),
            ("rounding", config.rounding.value),
        ]
    return items


def _echo_comment(tag: str, items: list[tuple[str, object]]) -> str:
    return "# perceptqp " + tag + " " + " ".join(f"{k}={v}" for k, v in items)


def qp_maps_csv(maps: list[QpMap], fmt: VideoFormat) -> str:
    lines = [_echo_comment("qp-map", _echo_items(fmt, maps[0].config)), "frame,cu_x,cu_y,qp"]
    for m in maps:
        for cu_x, cu_y, qp in m.cells():
            lines.append(f"{m.frame_index},{cu_x},{cu_y},{qp}")
    return "\n".join(lines) + "\n"


def qp_maps_json(maps: list[QpMap], fmt: VideoFormat) -> str:
    payload = {
        "config": dict(_echo_items(fmt, maps[0].config)),
        "frames": [
            {
                "frame": m.frame_index,
                "cols": m.cols,
                "rows": m.rows,
                "qp": [list(row) for row in m.qps],
            }
            for m in maps
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def activity_csv(
    activities: list[tuple[int, FrameActivity]], fmt: VideoFormat, cu_size: int
) -> str:
    header = _echo_comment(
        "activity", _echo_items(fmt, None) + [("cu_size", cu_size)]
    )
    lines = [header, "frame,cu_x,cu_y,l,b,d,t_luma,t_cross"]
    for index, act in activities:
        for rec in act.records:
            lines.append(
                f"{index},{rec.cu.x},{rec.cu.y},{rec.luma!r},{rec.cb!r},{rec.cr!r},"
                f"{act.t_luma!r},{act.t_cross!r}"
            )
    return "\n".join(lines) + "\n"


def _summarize_maps(maps: list[QpMap]) -> str:
    qps = [qp for m in maps for qp in m.flat()]
    slice_qp = maps[0].config.slice_qp
    mean_delta = sum(qp - slice_qp for qp in qps) / len(qps)
    return (
        f"frames={len(maps)} cus={len(qps)} mean_delta_qp={mean_delta:.4f}"
        f" min_qp={min(qps)} max_qp={max(qps)}"
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _qp_config(args)
    fmt = _format_from_args(args)
    _refuse_to_overwrite([args.input], [args.output, args.dump_activity])
    _refuse_shared_output(args.output, args.dump_activity)
    activities = list(frame_activities(args.input, fmt, args))
    maps = _qp_maps(activities, fmt, config)
    render = qp_maps_json if args.format == "json" else qp_maps_csv
    args.output.write_text(render(maps, fmt))
    if args.dump_activity is not None:
        args.dump_activity.write_text(activity_csv(activities, fmt, config.cu_size))
    print(_summarize_maps(maps))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    fmt = _format_from_args(args)
    config_a = _qp_config(args, "_a")
    config_b = _qp_config(args, "_b")
    _refuse_to_overwrite([args.input, args.input_b], [args.output])
    # The QP rules are pure functions of the activity, so one input needs one pass.
    activities = list(frame_activities(args.input, fmt, args))
    maps_a = _qp_maps(activities, fmt, config_a)
    if args.input_b is not None:
        activities = list(frame_activities(args.input_b, fmt, args))
    maps_b = _qp_maps(activities, fmt, config_b)
    if len(maps_a) != len(maps_b):
        raise YuvError(
            f"inputs differ in frame count ({len(maps_a)} vs {len(maps_b)});"
            " pass --frames to pin a common range"
        )

    lines = [
        _echo_comment(
            "compare",
            _echo_items(fmt, None)
            + [
                ("cu_size", args.cu_size),
                ("qp", args.qp),
                ("qp_range", args.qp_range),
                ("mode_a", config_a.mode.value),
                ("mode_b", config_b.mode.value),
            ],
        ),
        "frame,cu_x,cu_y,qp_a,qp_b,delta",
    ]
    histogram: Counter[int] = Counter()
    for map_a, map_b in zip(maps_a, maps_b):
        for (cu_x, cu_y, qp_a), (_, _, qp_b) in zip(map_a.cells(), map_b.cells()):
            delta = qp_b - qp_a
            histogram[delta] += 1
            lines.append(f"{map_a.frame_index},{cu_x},{cu_y},{qp_a},{qp_b},{delta}")
    args.output.write_text("\n".join(lines) + "\n")
    for delta in sorted(histogram):
        print(f"delta={delta:+d} count={histogram[delta]}")
    return EXIT_OK


def _channel_curves(path: Path) -> dict[str, RdCurve]:
    parsed = parse_rd_csv(path.read_bytes())
    if len(parsed) != 1:
        raise ValueError(f"{path}: expected a single label, found {sorted(parsed)}")
    (_, per_channel), = parsed.items()
    curves = {}
    for channel, entries in per_channel.items():
        pairs = sorted((p.bitrate_kbps, p.psnr_db) for _, p in entries)
        curves[channel] = RdCurve.from_pairs(pairs)
    return curves


def cmd_bdrate(args: argparse.Namespace) -> int:
    anchor = _channel_curves(args.anchor)
    test = _channel_curves(args.test)
    shared = sorted(set(anchor) & set(test), key=_channel_sort_key)
    if not shared:
        raise ValueError(
            f"no common channels: anchor has {sorted(anchor)}, test has {sorted(test)}"
        )
    print("channel,bd_rate_pct,bd_psnr_db")
    for channel in shared:
        rate = bd_rate(anchor[channel], test[channel])
        quality = bd_psnr(anchor[channel], test[channel])
        print(f"{channel},{rate:.6f},{quality:.6f}")
    return EXIT_OK


def cmd_dump_activity(args: argparse.Namespace) -> int:
    fmt = _format_from_args(args)
    _refuse_to_overwrite([args.input], [args.output])
    activities = list(frame_activities(args.input, fmt, args))
    args.output.write_text(activity_csv(activities, fmt, args.cu_size))
    print(f"frames={len(activities)} cus_per_frame={len(activities[0][1].records)}")
    return EXIT_OK


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, required=True, help="raw planar YCbCr file")
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--height", type=int, required=True)
    parser.add_argument("--bit-depth", type=int, choices=(8, 10), default=8)
    parser.add_argument("--chroma", choices=("444", "422", "420"), default="420")
    parser.add_argument("--frames", type=int, default=None, help="frames to process (default: all)")
    parser.add_argument("--skip", type=int, default=0, help="frames to skip from the start")


def _add_qp_args(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    parser.add_argument(f"--mode{suffix}", choices=("adaptiveqp", "cbaq"), required=True)
    parser.add_argument(f"--t-mode{suffix}", choices=("luma", "cross"), default="cross")
    parser.add_argument(f"--rounding{suffix}", choices=("nearest", "ceiling"), default="nearest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perceptqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="emit a per-CU QP map for each frame")
    _add_geometry_args(analyze)
    analyze.add_argument("--cu-size", type=int, choices=CU_SIZES, default=64)
    analyze.add_argument("--qp", type=int, required=True, help="slice QP the deltas adapt around")
    analyze.add_argument("--qp-range", type=int, default=6)
    _add_qp_args(analyze)
    analyze.add_argument("--output", type=Path, required=True)
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--dump-activity", type=Path, default=None, metavar="PATH")
    analyze.set_defaults(func=cmd_analyze)

    compare = sub.add_parser("compare", help="diff the QP maps of two runs")
    _add_geometry_args(compare)
    compare.add_argument("--input-b", type=Path, default=None, help="second clip (default: --input)")
    compare.add_argument("--cu-size", type=int, choices=CU_SIZES, default=64)
    compare.add_argument("--qp", type=int, required=True)
    compare.add_argument("--qp-range", type=int, default=6)
    _add_qp_args(compare, "-a")
    _add_qp_args(compare, "-b")
    compare.add_argument("--output", type=Path, required=True)
    compare.set_defaults(func=cmd_compare)

    bdrate_cmd = sub.add_parser("bdrate", help="BD-Rate / BD-PSNR between two RD CSV files")
    bdrate_cmd.add_argument("--anchor", type=Path, required=True)
    bdrate_cmd.add_argument("--test", type=Path, required=True)
    bdrate_cmd.set_defaults(func=cmd_bdrate)

    dump = sub.add_parser("dump-activity", help="emit per-CU activity values")
    _add_geometry_args(dump)
    dump.add_argument("--cu-size", type=int, choices=CU_SIZES, default=64)
    dump.add_argument("--output", type=Path, required=True)
    dump.set_defaults(func=cmd_dump_activity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes YuvError and the metric errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

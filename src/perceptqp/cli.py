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
import stat
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from itertools import combinations
from pathlib import Path
from typing import Iterator, TextIO

from .activity import FrameActivity, frame_activity
from .metrics import RdCurve, _channel_sort_key, bd_psnr, bd_rate, parse_rd_csv
from .partition import CU_SIZES
from .qp import QP_MAX, QP_MIN, Mode, QpConfig, QpMap, Rounding, TMode, qp_map_from_activity
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


def read_frames(
    path: Path, fmt: VideoFormat, skip: int, frames: int | None
) -> Iterator[tuple[int, Frame]]:
    """Yield (index, frame) over the selected range, decoding one frame at a time.

    The file size must match the geometry; the range is checked before the
    first frame is read.
    """
    with open(path, "rb") as stream:
        total = probe_frame_count(stream, fmt)
        for index in _frame_range(total, skip, frames):
            yield index, read_frame(stream, fmt, index)


def load_frames(path: Path, fmt: VideoFormat, skip: int, frames: int | None) -> list[tuple[int, Frame]]:
    """Every selected frame at once; the CLI itself streams through read_frames."""
    return list(read_frames(path, fmt, skip, frames))


def _selected_count(path: Path, fmt: VideoFormat, args: argparse.Namespace) -> int:
    with open(path, "rb") as stream:
        return len(_frame_range(probe_frame_count(stream, fmt), args.skip, args.frames))


def frame_activities(
    path: Path, fmt: VideoFormat, args: argparse.Namespace
) -> Iterator[tuple[int, FrameActivity]]:
    """Yield (index, activity) for every frame the flags select: the CLI's one frame loop."""
    for index, frame in read_frames(path, fmt, args.skip, args.frames):
        activity = frame_activity(frame, args.cu_size)
        # Free the samples before the caller renders this frame's rows.
        del frame
        yield index, activity


def _replaceable(path: Path) -> bool:
    """Whether path is missing or (through any symlinks) a regular file."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


@contextmanager
def _atomic_outputs(paths: list[Path], inputs: list[Path | None]) -> Iterator[list[TextIO]]:
    """One text sink per path; files replace their paths only if the block completes.

    Before anything is opened, an existing path that is an input, or two paths
    naming one file, raise ValueError. A missing or regular-file path is
    written to a hidden partial file beside it, named by 64 random bits, so
    its name neither grows with the path's nor matches one that an earlier,
    killed run left behind. After the block, every sink is closed and then
    each partial file is moved into place, in argument order. On any
    exception the partial files are deleted, so existing files keep their
    bytes. Any other existing path, such as /dev/null, a FIFO or /dev/stdout,
    is opened and written directly, since a device or a pipe must not be
    replaced by a file.
    open(..., "x") gives a new file the umask's mode, as Path.write_text would.
    """
    for out in paths:
        for path in inputs:
            if path is not None and out.exists() and path.exists() and os.path.samefile(out, path):
                raise ValueError(f"output {out} is the input {path}; refusing to overwrite it")
    for first, second in combinations(paths, 2):
        if first.exists() and second.exists():
            shared = os.path.samefile(first, second)
        else:
            # realpath, unlike Path.resolve before Python 3.13, returns on a symlink loop.
            shared = os.path.realpath(first) == os.path.realpath(second)
        if shared:
            raise ValueError(
                f"outputs {first} and {second} are the same file; one would overwrite the other"
            )
    sinks: list[TextIO] = []
    staged: list[tuple[Path, Path]] = []
    try:
        for path in paths:
            if _replaceable(path):
                partial = path.with_name(f".perceptqp.{os.urandom(8).hex()}.partial")
                sinks.append(open(partial, "x"))
                staged.append((partial, path))
            else:
                sinks.append(open(path, "w"))
        yield sinks
        for sink in sinks:
            sink.close()
        for partial, path in staged:
            os.replace(partial, path)
    except BaseException:
        for partial, _ in staged:
            partial.unlink(missing_ok=True)
        for sink in sinks:
            # A failed flush must not mask the error that ended the run.
            with suppress(OSError):
                sink.close()
        raise


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


# Each output is a head, one chunk per frame joined by a separator, and a
# tail; the commands write the chunks as frames arrive, and the whole-clip
# renderers below join the same chunks.


def _qp_csv_head(fmt: VideoFormat, config: QpConfig) -> str:
    return _echo_comment("qp-map", _echo_items(fmt, config)) + "\nframe,cu_x,cu_y,qp\n"


def _qp_csv_frame(m: QpMap) -> str:
    index = m.frame_index
    return "".join(f"{index},{cu_x},{cu_y},{qp}\n" for cu_x, cu_y, qp in m.cells())


# Pieces of json.dumps({"config": ..., "frames": [...]}, indent=2) + "\n":
# each nested value is dumped alone and re-indented to its depth.
_JSON_FRAME_SEP = ",\n    "
_JSON_TAIL = "\n  ]\n}\n"


def _qp_json_head(fmt: VideoFormat, config: QpConfig) -> str:
    echo = json.dumps(dict(_echo_items(fmt, config)), indent=2).replace("\n", "\n  ")
    return '{\n  "config": ' + echo + ',\n  "frames": [\n    '


def _qp_json_frame(m: QpMap) -> str:
    frame = {
        "frame": m.frame_index,
        "cols": m.cols,
        "rows": m.rows,
        "qp": [list(row) for row in m.qps],
    }
    return json.dumps(frame, indent=2).replace("\n", "\n    ")


def _activity_csv_head(fmt: VideoFormat, cu_size: int) -> str:
    echo = _echo_comment("activity", _echo_items(fmt, None) + [("cu_size", cu_size)])
    return echo + "\nframe,cu_x,cu_y,l,b,d,t_luma,t_cross\n"


def _activity_csv_frame(index: int, act: FrameActivity) -> str:
    tail = f",{act.t_luma!r},{act.t_cross!r}\n"
    return "".join(
        f"{index},{rec.cu.x},{rec.cu.y},{rec.luma!r},{rec.cb!r},{rec.cr!r}{tail}"
        for rec in act.records
    )


def _compare_head(fmt: VideoFormat, config_a: QpConfig, config_b: QpConfig) -> str:
    items = _echo_items(fmt, None) + [
        ("cu_size", config_a.cu_size),
        ("qp", config_a.slice_qp),
        ("qp_range", config_a.qp_range),
        ("mode_a", config_a.mode.value),
        ("mode_b", config_b.mode.value),
    ]
    return _echo_comment("compare", items) + "\nframe,cu_x,cu_y,qp_a,qp_b,delta\n"


def _compare_frame(map_a: QpMap, map_b: QpMap, histogram: Counter[int]) -> str:
    """The frame's compare rows; each row's delta is also counted into histogram."""
    index = map_a.frame_index
    rows = []
    for (cu_x, cu_y, qp_a), (_, _, qp_b) in zip(map_a.cells(), map_b.cells()):
        delta = qp_b - qp_a
        histogram[delta] += 1
        rows.append(f"{index},{cu_x},{cu_y},{qp_a},{qp_b},{delta}\n")
    return "".join(rows)


def qp_maps_csv(maps: list[QpMap], fmt: VideoFormat) -> str:
    return _qp_csv_head(fmt, maps[0].config) + "".join(map(_qp_csv_frame, maps))


def qp_maps_json(maps: list[QpMap], fmt: VideoFormat) -> str:
    frames = _JSON_FRAME_SEP.join(map(_qp_json_frame, maps))
    return _qp_json_head(fmt, maps[0].config) + frames + _JSON_TAIL


def activity_csv(
    activities: list[tuple[int, FrameActivity]], fmt: VideoFormat, cu_size: int
) -> str:
    rows = "".join(_activity_csv_frame(index, act) for index, act in activities)
    return _activity_csv_head(fmt, cu_size) + rows


def cmd_analyze(args: argparse.Namespace) -> int:
    fmt = _format_from_args(args)
    config = _qp_config(args)
    if args.format == "json":
        head, sep, tail = _qp_json_head(fmt, config), _JSON_FRAME_SEP, _JSON_TAIL
        render = _qp_json_frame
    else:
        head, sep, tail = _qp_csv_head(fmt, config), "", ""
        render = _qp_csv_frame
    frames = cus = qp_sum = 0
    min_qp, max_qp = QP_MAX, QP_MIN
    # The map is listed first, so it is moved into place before the sidecar.
    paths = [args.output] + ([args.dump_activity] if args.dump_activity is not None else [])
    with _atomic_outputs(paths, [args.input]) as sinks:
        out, dump = sinks[0], sinks[1] if len(sinks) > 1 else None
        out.write(head)
        if dump is not None:
            dump.write(_activity_csv_head(fmt, config.cu_size))
        for index, act in frame_activities(args.input, fmt, args):
            frame_map = qp_map_from_activity(fmt, act, config, frame_index=index)
            if frames:
                out.write(sep)
            out.write(render(frame_map))
            if dump is not None:
                dump.write(_activity_csv_frame(index, act))
            qps = frame_map.flat()
            frames += 1
            cus += len(qps)
            qp_sum += sum(qps)
            min_qp, max_qp = min(min_qp, min(qps)), max(max_qp, max(qps))
        out.write(tail)
    mean_delta = (qp_sum - config.slice_qp * cus) / cus
    print(
        f"frames={frames} cus={cus} mean_delta_qp={mean_delta:.4f}"
        f" min_qp={min_qp} max_qp={max_qp}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    fmt = _format_from_args(args)
    config_a = _qp_config(args, "_a")
    config_b = _qp_config(args, "_b")
    histogram: Counter[int] = Counter()
    # Entered first, so the outputs are checked before any input is probed.
    with _atomic_outputs([args.output], [args.input, args.input_b]) as (out,):
        # The QP rules are pure functions of the activity, so one input needs one pass.
        activities = frame_activities(args.input, fmt, args)
        if args.input_b is None:
            pairs = ((item, item) for item in activities)
        else:
            count_a = _selected_count(args.input, fmt, args)
            count_b = _selected_count(args.input_b, fmt, args)
            if count_a != count_b:
                raise YuvError(
                    f"inputs differ in frame count ({count_a} vs {count_b});"
                    " pass --frames to pin a common range"
                )
            pairs = zip(activities, frame_activities(args.input_b, fmt, args))
        out.write(_compare_head(fmt, config_a, config_b))
        for (index, act_a), (_, act_b) in pairs:
            map_a = qp_map_from_activity(fmt, act_a, config_a, frame_index=index)
            map_b = qp_map_from_activity(fmt, act_b, config_b, frame_index=index)
            out.write(_compare_frame(map_a, map_b, histogram))
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
    frames = cus_per_frame = 0
    with _atomic_outputs([args.output], [args.input]) as (out,):
        out.write(_activity_csv_head(fmt, args.cu_size))
        for index, act in frame_activities(args.input, fmt, args):
            out.write(_activity_csv_frame(index, act))
            frames += 1
            cus_per_frame = len(act.records)
    print(f"frames={frames} cus_per_frame={cus_per_frame}")
    return EXIT_OK


def _add_clip_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, required=True, help="raw planar YCbCr file")
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--height", type=int, required=True)
    parser.add_argument("--bit-depth", type=int, choices=(8, 10), default=8)
    parser.add_argument("--chroma", choices=("444", "422", "420"), default="420")
    parser.add_argument("--frames", type=int, default=None, help="frames to process (default: all)")
    parser.add_argument("--skip", type=int, default=0, help="frames to skip from the start")
    parser.add_argument("--cu-size", type=int, choices=CU_SIZES, default=64)
    parser.add_argument("--output", type=Path, required=True)


def _add_qp_args(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    parser.add_argument(f"--mode{suffix}", choices=("adaptiveqp", "cbaq"), required=True)
    parser.add_argument(f"--t-mode{suffix}", choices=("luma", "cross"), default="cross")
    parser.add_argument(f"--rounding{suffix}", choices=("nearest", "ceiling"), default="nearest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perceptqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="emit a per-CU QP map for each frame")
    _add_clip_args(analyze)
    analyze.add_argument("--qp", type=int, required=True, help="slice QP the deltas adapt around")
    analyze.add_argument("--qp-range", type=int, default=6)
    _add_qp_args(analyze)
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--dump-activity", type=Path, default=None, metavar="PATH")
    analyze.set_defaults(func=cmd_analyze)

    compare = sub.add_parser("compare", help="diff the QP maps of two runs")
    _add_clip_args(compare)
    compare.add_argument("--input-b", type=Path, default=None, help="second clip (default: --input)")
    compare.add_argument("--qp", type=int, required=True)
    compare.add_argument("--qp-range", type=int, default=6)
    _add_qp_args(compare, "-a")
    _add_qp_args(compare, "-b")
    compare.set_defaults(func=cmd_compare)

    bdrate_cmd = sub.add_parser("bdrate", help="BD-Rate / BD-PSNR between two RD CSV files")
    bdrate_cmd.add_argument("--anchor", type=Path, required=True)
    bdrate_cmd.add_argument("--test", type=Path, required=True)
    bdrate_cmd.set_defaults(func=cmd_bdrate)

    dump = sub.add_parser("dump-activity", help="emit per-CU activity values")
    _add_clip_args(dump)
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

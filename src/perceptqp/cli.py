"""Command-line front end: raw clips in, QP maps and RD metrics out.

Subcommands:
  analyze        per-CU QP map for every frame of a clip
  compare        per-CU QP difference between two rules on one clip
  bdrate         BD-Rate / BD-PSNR between two RD CSV files
  dump-activity  per-CU activity values without QP mapping
"""

from __future__ import annotations

import argparse
import enum
import errno
import os
import signal
import stat
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from io import StringIO
from itertools import chain, combinations, count, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NoReturn, TextIO

# Parsing argv needs only config, so a usage error or --help loads no numpy;
# a clip command imports the numpy modules in the functions that call them.
from .config import (
    BIT_DEPTHS,
    CU_SIZES,
    QP_MAX,
    QP_MIN,
    ChromaFormat,
    Mode,
    QpConfig,
    Rounding,
    TMode,
    VideoFormat,
    YuvError,
)

if TYPE_CHECKING:
    import numpy as np

    from .activity import ActivityArrays
    from .qp import QpMap
    from .yuv import Frame

# numpy's OpenBLAS starts a spinning worker per extra core at import; the
# analysis never calls BLAS, so one thread saves that CPU. An explicit value
# wins. Set here, before any command can load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
# A run ended by a signal exits 128 plus its number, as a shell reports it.
EXIT_INTERRUPTED = 128 + signal.SIGINT
EXIT_TERMINATED = 128 + signal.SIGTERM


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
    length = total - skip if frames is None else frames
    if skip + length > total:
        raise YuvError(
            f"requested frames {skip}..{skip + length - 1} but input has only {total}"
        )
    return range(skip, skip + length)


def load_frames(path: Path, fmt: VideoFormat, skip: int, frames: int | None) -> list[tuple[int, Frame]]:
    """(index, frame) for every selected frame, all decoded at once.

    The CLI itself streams through frame_activities; this whole-clip form
    is kept because the benchmark replay still calls it.
    """
    from .yuv import probe_frame_count, read_frame

    with open(path, "rb") as stream:
        selected = _frame_range(probe_frame_count(stream, fmt), skip, frames)
        return [(index, read_frame(stream, fmt, index)) for index in selected]


def frame_activities(
    path: Path, fmt: VideoFormat, args: argparse.Namespace, chroma: bool
) -> Iterator[tuple[int, ActivityArrays]]:
    """Yield (index, activity) for every frame the flags select: the CLI's one frame loop.

    The input is opened and probed once: its size must match the geometry and
    the range lie inside it. It is then read forward only, one CU row of
    samples per plane at a time. Chroma activity is computed only when
    chroma is true; the chroma samples are read and range-checked either way.
    A read's error is prefixed with "frame N: ", the frame's index in the input.
    """
    from .activity import stream_activity
    from .yuv import frame_bytes, probe_frame_count

    with open(path, "rb") as stream:
        selected = _frame_range(probe_frame_count(stream, fmt), args.skip, args.frames)
        stream.seek(selected.start * frame_bytes(fmt))
        for index in selected:
            with _named(f"frame {index}"):
                act = stream_activity(stream, fmt, args.cu_size, chroma)
            yield index, act


def _replaceable(path: Path) -> bool:
    """Whether path is missing or (through any symlinks) a regular file."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _std_fd(path: Path) -> int | None:
    """1 or 2 if path exists and is the file this process's stdout or stderr writes to."""
    for fd in (1, 2):
        with suppress(OSError):
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return fd
    return None


def _flush(stream: TextIO) -> None:
    """Flush stream; if that fails, point its fd at os.devnull and re-raise.

    A later flush of the same stream, such as the interpreter's at exit after
    an in-process main(), then cannot fail again; that failure would print a
    traceback and exit 120 after the run's own error line.
    """
    try:
        stream.flush()
    except OSError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
        raise


@contextmanager
def _atomic_outputs(paths: list[Path], inputs: list[Path]) -> Iterator[tuple[TextIO, list[TextIO]]]:
    """A summary buffer and one text sink per path; files replace their paths only if the block completes.

    Before anything is opened, a path of "-", an existing path that is an
    input, two paths naming one file, or paths that take both stdout and
    stderr, raise ValueError. A path that is this process's stdout or stderr,
    even a regular file a shell redirected it to, is written through that
    descriptor; the summary then goes to stderr, so it never joins the rows,
    and otherwise to stdout, and a stdout closed at start raises OSError
    (EBADF) before anything is opened. Any other existing path that is not a
    regular file, such as /dev/null or a FIFO, is opened and written directly,
    since a device or a pipe must not be replaced by a file. A missing or
    regular-file path is written to a hidden partial file beside it, named by
    64 random bits, so its name neither grows with the path's nor matches one
    that an earlier, killed run left behind; an OSError in creating it names
    the path, unless the partial name was taken (EEXIST). After the block,
    every sink is closed, the summary is written and flushed, so it
    follows the rows on a shared stream, and each partial file is moved into
    place, in argument order. On any exception, a summary that cannot be
    written included, the partial files are deleted, so existing files keep
    their bytes. open(..., "x") gives a new file the umask's mode, as
    Path.write_text would.
    """
    for out in paths:
        if str(out) == "-":
            raise ValueError("output '-' would be a file named '-'; use /dev/stdout to write to stdout")
        for path in inputs:
            if out.exists() and path.exists() and os.path.samefile(out, path):
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
    std_fds = [_std_fd(path) for path in paths]
    if {1, 2} <= set(std_fds):
        both = " and ".join(map(str, paths))
        raise ValueError(f"outputs {both} take both stdout and stderr; the summary would join one of them")
    report = sys.stderr if 1 in std_fds else sys.stdout
    # Python makes sys.stdout None when fd 1 is closed at start; fail as a closed fd does.
    if report is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    summary = StringIO()
    sinks: list[TextIO] = []
    staged: list[tuple[Path, Path]] = []
    try:
        for path, fd in zip(paths, std_fds):
            if fd is not None:
                sinks.append(open(fd, "w", closefd=False))
            elif _replaceable(path):
                partial = path.with_name(f".perceptqp.{os.urandom(8).hex()}.partial")
                try:
                    sinks.append(open(partial, "x"))
                except OSError as exc:
                    if exc.errno == errno.EEXIST:
                        raise
                    raise OSError(exc.errno, exc.strerror, str(path)) from None
                staged.append((partial, path))
            else:
                sinks.append(open(path, "w"))
        yield summary, sinks
        for sink in sinks:
            sink.close()
        report.write(summary.getvalue())
        _flush(report)
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


# Each output is a head, one piece per frame joined by a separator, and a
# tail; the commands write the pieces as frames arrive, and the whole-clip
# renderers below join the same pieces. A piece is one chunk of text per CU
# row, rendered from that row of the frame's (rows, cols) arrays, so no
# frame's text, and no frame's values as Python objects, is held at once.


def _csv_head(tag: str, items: list[tuple[str, object]], columns: str) -> str:
    return f"{_echo_comment(tag, items)}\nframe,cu_x,cu_y,{columns}\n"


def _csv_frame(index: int, cu_size: int, grids: list[np.ndarray], tail: str = "\n") -> Iterator[str]:
    """One chunk per CU row: each CU's "frame,cu_x,cu_y,", the repr of its value in each grid, then tail.

    The grids are (rows, cols) arrays of one shape. Every CSV data row the
    CLI writes comes from here. The "frame,cu_x," heads are built once per
    frame from the analysed grid's shape, never from the flags, so a
    geometry the input does not hold is refused before it costs memory.
    """
    heads = [f"{index},{x * cu_size}," for x in range(grids[0].shape[1])]
    for y, *rows in zip(count(0, cu_size), *grids):
        fields = [heads, repeat(f"{y},")]
        for row in rows:
            fields += [map(repr, row.tolist()), repeat(",")]
        fields[-1] = repeat(tail)
        yield "".join(chain.from_iterable(zip(*fields)))


def _qp_csv_head(fmt: VideoFormat, config: QpConfig) -> str:
    return _csv_head("qp-map", _echo_items(fmt, config), "qp")


# Pieces of json.dumps({"config": ..., "frames": [...]}, indent=2) + "\n",
# joined directly, so a run loads no json module. The config holds only ints
# and words from argparse's choices, none of which needs escaping. A frame
# holds only ints; indent would also make json fall back to its pure-Python
# encoder, which takes about three times as long per frame.
_JSON_FRAME_SEP = ",\n    "
_JSON_TAIL = "\n  ]\n}\n"


def _qp_json_head(fmt: VideoFormat, config: QpConfig) -> str:
    echo = ",\n    ".join(
        f'"{key}": "{value}"' if isinstance(value, str) else f'"{key}": {value}'
        for key, value in _echo_items(fmt, config)
    )
    return '{\n  "config": {\n    ' + echo + '\n  },\n  "frames": [\n    '


def _qp_json_frame(index: int, qps: np.ndarray) -> Iterator[str]:
    rows, cols = qps.shape
    sep = (
        f'{{\n      "frame": {index},\n      "cols": {cols},\n      "rows": {rows},\n'
        '      "qp": [\n        '
    )
    for row in qps:
        yield sep + "[\n          " + ",\n          ".join(map(str, row.tolist())) + "\n        ]"
        sep = ",\n        "
    yield "\n      ]\n    }"


def _activity_csv_head(fmt: VideoFormat, cu_size: int) -> str:
    items = _echo_items(fmt, None) + [("cu_size", cu_size)]
    return _csv_head("activity", items, "l,b,d,t_luma,t_cross")


def _activity_csv_frame(index: int, act: ActivityArrays, cu_size: int) -> Iterator[str]:
    return _csv_frame(index, cu_size, [act.luma, act.cb, act.cr], f",{act.t_luma!r},{act.t_cross!r}\n")


# The whole-clip renderers take what the library's two passes return and
# join the same chunks the commands write.


def qp_maps_csv(maps: list[QpMap], fmt: VideoFormat) -> str:
    import numpy as np

    size = maps[0].config.cu_size
    chunks = chain.from_iterable(_csv_frame(m.frame_index, size, [np.array(m.qps)]) for m in maps)
    return _qp_csv_head(fmt, maps[0].config) + "".join(chunks)


def qp_maps_json(maps: list[QpMap], fmt: VideoFormat) -> str:
    import numpy as np

    frames = _JSON_FRAME_SEP.join("".join(_qp_json_frame(m.frame_index, np.array(m.qps))) for m in maps)
    return _qp_json_head(fmt, maps[0].config) + frames + _JSON_TAIL


def activity_csv(
    activities: list[tuple[int, ActivityArrays]], fmt: VideoFormat, cu_size: int
) -> str:
    chunks = chain.from_iterable(_activity_csv_frame(i, act, cu_size) for i, act in activities)
    return _activity_csv_head(fmt, cu_size) + "".join(chunks)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .qp import qp_grid

    fmt = _format_from_args(args)
    config = _qp_config(args)
    as_json = args.format == "json"
    if as_json:
        head, sep, tail = _qp_json_head(fmt, config), _JSON_FRAME_SEP, _JSON_TAIL
    else:
        head, sep, tail = _qp_csv_head(fmt, config), "", ""
    size = config.cu_size
    frames = cus = qp_sum = 0
    min_qp, max_qp = QP_MAX, QP_MIN
    # The map is listed first, so it is moved into place before the sidecar.
    paths = [args.output] + ([args.dump_activity] if args.dump_activity is not None else [])
    with _atomic_outputs(paths, [args.input]) as (summary, sinks):
        out, dump = sinks[0], sinks[1] if len(sinks) > 1 else None
        out.write(head)
        if dump is not None:
            dump.write(_activity_csv_head(fmt, config.cu_size))
        chroma = config.mode.reads_chroma or dump is not None
        for index, act in frame_activities(args.input, fmt, args, chroma):
            qps = qp_grid(config, act)
            if frames:
                out.write(sep)
            out.writelines(_qp_json_frame(index, qps) if as_json else _csv_frame(index, size, [qps]))
            if dump is not None:
                dump.writelines(_activity_csv_frame(index, act, size))
            frames += 1
            cus += qps.size
            qp_sum += int(qps.sum())
            min_qp, max_qp = min(min_qp, int(qps.min())), max(max_qp, int(qps.max()))
        out.write(tail)
        mean_delta = (qp_sum - config.slice_qp * cus) / cus
        print(
            f"frames={frames} cus={cus} mean_delta_qp={mean_delta:.4f}"
            f" min_qp={min_qp} max_qp={max_qp}",
            file=summary,
        )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .qp import qp_grid

    fmt = _format_from_args(args)
    config_a = _qp_config(args, "_a")
    config_b = _qp_config(args, "_b")
    histogram: Counter[int] = Counter()
    # Entered first, so the output is checked before the input is probed.
    with _atomic_outputs([args.output], [args.input]) as (summary, (out,)):
        # The QP rules are pure functions of the activity, so both share one pass.
        chroma = config_a.mode.reads_chroma or config_b.mode.reads_chroma
        items = _echo_items(fmt, None) + [
            ("cu_size", config_a.cu_size),
            ("qp", config_a.slice_qp),
            ("qp_range", config_a.qp_range),
            ("mode_a", config_a.mode.value),
            ("mode_b", config_b.mode.value),
        ]
        out.write(_csv_head("compare", items, "qp_a,qp_b,delta"))
        for index, act in frame_activities(args.input, fmt, args, chroma):
            qps_a, qps_b = qp_grid(config_a, act), qp_grid(config_b, act)
            deltas = qps_b - qps_a
            out.writelines(_csv_frame(index, args.cu_size, [qps_a, qps_b, deltas]))
            histogram.update(deltas.ravel().tolist())
        for delta in sorted(histogram):
            print(f"delta={delta:+d} count={histogram[delta]}", file=summary)
    return EXIT_OK


@contextmanager
def _named(name: str) -> Iterator[None]:
    """Put "name: " before the message of any ValueError the block raises."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def cmd_bdrate(args: argparse.Namespace) -> int:
    # Only this command reads RD curves, so only it loads metrics (and csv).
    from .metrics import RdCurve, _channel_sort_key, bd_psnr, bd_rate, parse_rd_csv

    # No output file: the table is the summary, written only if every channel succeeds.
    with _atomic_outputs([], [args.anchor, args.test]) as (summary, _):
        anchor: dict[str, RdCurve] = {}
        test: dict[str, RdCurve] = {}
        for path, curves in ((args.anchor, anchor), (args.test, test)):
            with _named(str(path)):
                parsed = parse_rd_csv(path.read_bytes())
                if len(parsed) != 1:
                    raise ValueError(f"expected a single label, found {sorted(parsed)}")
                (per_channel,) = parsed.values()
                for channel, entries in per_channel.items():
                    with _named(f"channel {channel}"):
                        curves[channel] = RdCurve(tuple(sorted(point for _, point in entries)))
        shared = sorted(set(anchor) & set(test), key=_channel_sort_key)
        if not shared:
            raise ValueError(f"no common channels: anchor has {sorted(anchor)}, test has {sorted(test)}")
        print("channel,bd_rate_pct,bd_psnr_db", file=summary)
        for channel in shared:
            with _named(f"channel {channel}"):
                rate = bd_rate(anchor[channel], test[channel])
                quality = bd_psnr(anchor[channel], test[channel])
            print(f"{channel},{rate:.6f},{quality:.6f}", file=summary)
    return EXIT_OK


def cmd_dump_activity(args: argparse.Namespace) -> int:
    fmt = _format_from_args(args)
    frames = cus_per_frame = 0
    with _atomic_outputs([args.output], [args.input]) as (summary, (out,)):
        out.write(_activity_csv_head(fmt, args.cu_size))
        for index, act in frame_activities(args.input, fmt, args, chroma=True):
            out.writelines(_activity_csv_frame(index, act, args.cu_size))
            frames += 1
            cus_per_frame = act.luma.size
        print(f"frames={frames} cus_per_frame={cus_per_frame}", file=summary)
    return EXIT_OK


def _values(members: type[enum.Enum]) -> list[str]:
    """An enum's values in definition order: the CLI words for its members."""
    return [member.value for member in members]


def _add_clip_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, required=True, help="raw planar YCbCr file")
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--height", type=int, required=True)
    parser.add_argument("--bit-depth", type=int, choices=BIT_DEPTHS, default=VideoFormat.bit_depth)
    parser.add_argument("--chroma", choices=_values(ChromaFormat), default=VideoFormat.chroma_format.value)
    parser.add_argument("--frames", type=int, default=None, help="frames to process (default: all)")
    parser.add_argument("--skip", type=int, default=0, help="frames to skip from the start")
    parser.add_argument("--cu-size", type=int, choices=CU_SIZES, default=QpConfig.cu_size)
    parser.add_argument("--output", type=Path, required=True)


def _add_qp_args(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    parser.add_argument(f"--mode{suffix}", choices=_values(Mode), required=True)
    parser.add_argument(f"--t-mode{suffix}", choices=_values(TMode), default=QpConfig.t_mode.value)
    parser.add_argument(f"--rounding{suffix}", choices=_values(Rounding), default=QpConfig.rounding.value)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file: TextIO | None = None) -> None:
        # argparse sends help to stderr when sys.stdout is None (fd 1 closed at
        # start); fail instead, as a closed fd and every command do.
        if file is None and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    # argparse lists the subcommands itself, and would reflow the docstring's list.
    parser = _Parser(prog="perceptqp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="emit a per-CU QP map for each frame")
    _add_clip_args(analyze)
    analyze.add_argument("--qp", type=int, required=True, help="slice QP the deltas adapt around")
    analyze.add_argument("--qp-range", type=int, default=QpConfig.qp_range)
    _add_qp_args(analyze)
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--dump-activity", type=Path, default=None, metavar="PATH")
    analyze.set_defaults(func=cmd_analyze)

    compare = sub.add_parser("compare", help="diff the QP maps of two rules on one clip")
    _add_clip_args(compare)
    compare.add_argument("--qp", type=int, required=True)
    compare.add_argument("--qp-range", type=int, default=QpConfig.qp_range)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage error (2) and --help (0), SIGTERM (143)
        return exc.code
    except ValueError as exc:  # includes YuvError and the metric errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(EXIT_TERMINATED)


def _exit(code: int) -> NoReturn:
    """Flush stdout, then stderr, and end the process with code, skipping interpreter teardown.

    Teardown frees every loaded module, numpy's among them, and collects
    garbage: tens of milliseconds of a run that needs none of it. atexit
    handlers do not run. A flush that fails ends in EXIT_IO with one
    "i/o error:" line; _flush has pointed the failed fd at os.devnull.
    """
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                _flush(stream)
    except OSError as exc:
        code = EXIT_IO
        with suppress(OSError):
            print(f"i/o error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


def entry() -> NoReturn:
    """The console script: main() with the process's argv, and signals ending in exit codes.

    SIGTERM raises inside the run, so staged outputs are removed as on any
    failure, and exits 143; SIGINT does the same and exits 130 after one
    "interrupted" line on stderr. Every exit goes through _exit; an
    unexpected exception propagates with its traceback.
    """
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    _exit(code)


if __name__ == "__main__":
    entry()

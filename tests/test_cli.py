"""End-to-end CLI behaviour: every subcommand through cli.main."""

import ast
import errno
import functools
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stdout, suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perceptqp import ChromaFormat, VideoFormat, frame_bytes, write_frame
import perceptqp
from perceptqp import activity, cli
from perceptqp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
import cli_matrix
from strategies import random_frame, stored, video_formats

FMT = VideoFormat(128, 64, 8, ChromaFormat.YUV420)


def write_clip(path, frames):
    with open(path, "wb") as sink:
        for frame in frames:
            write_frame(sink, frame)
    return path


def constant_clip(path, fmt=FMT, value=100, count=2):
    return write_clip(path, [random_frame(fmt, 0, lo=value, hi=value)] * count)


COMMAND_DEFAULTS = {
    "analyze": ["--qp", "32", "--mode", "cbaq"],
    "compare": ["--qp", "32", "--mode-a", "cbaq", "--mode-b", "cbaq"],
    "dump-activity": [],
}


def cli_args(command, clip, out, fmt=FMT, **flags):
    """argv for one clip command; each flag replaces a value already in argv, or is appended."""
    args = [
        command,
        "--input", str(clip),
        "--width", str(fmt.width),
        "--height", str(fmt.height),
        "--chroma", fmt.chroma_format.value,
        *COMMAND_DEFAULTS[command],
        "--output", str(out),
    ]
    for key, value in flags.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in args:
            args[args.index(flag) + 1] = str(value)
        else:
            args += [flag, str(value)]
    return args


analyze_args = functools.partial(cli_args, "analyze")
compare_args = functools.partial(cli_args, "compare")
dump_args = functools.partial(cli_args, "dump-activity")


def count_activity_calls(monkeypatch):
    """Wrap cli.stream_activity so that each call appends its CU size to the returned list."""
    calls = []
    real = cli.stream_activity

    def counting(stream, fmt, cu_size, chroma=True):
        calls.append(cu_size)
        return real(stream, fmt, cu_size, chroma)

    monkeypatch.setattr(cli, "stream_activity", counting)
    return calls


class TestCompare:
    def test_single_input_is_analysed_once(self, tmp_path, monkeypatch, capsys):
        frames = 3
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(frames)])
        calls = count_activity_calls(monkeypatch)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(compare_args(clip, one, mode_a="adaptiveqp", mode_b="cbaq")) == EXIT_OK
        assert len(calls) == frames
        args = compare_args(clip, two, mode_a="adaptiveqp", mode_b="cbaq", input_b=clip)
        assert main(args) == EXIT_OK
        assert len(calls) == 3 * frames
        assert one.read_bytes() == two.read_bytes()
        capsys.readouterr()

    def test_frame_count_mismatch_is_validation_error(self, tmp_path, monkeypatch, capsys):
        clip_a = write_clip(tmp_path / "a.yuv", [random_frame(FMT, 1)] * 2)
        clip_b = write_clip(tmp_path / "b.yuv", [random_frame(FMT, 1)])
        calls = count_activity_calls(monkeypatch)
        args = compare_args(clip_a, tmp_path / "d.csv", input_b=clip_b)
        assert main(args) == EXIT_VALIDATION
        assert "frame count" in capsys.readouterr().err
        assert calls == []  # refused before any frame was analysed

    def test_each_input_is_opened_and_probed_once(self, tmp_path, monkeypatch, capsys):
        clip_a = write_clip(tmp_path / "a.yuv", [random_frame(FMT, 1)] * 2)
        clip_b = write_clip(tmp_path / "b.yuv", [random_frame(FMT, 2)] * 2)
        probed = []
        real = cli.probe_frame_count
        monkeypatch.setattr(
            cli, "probe_frame_count", lambda stream, fmt: probed.append(stream.name) or real(stream, fmt)
        )
        assert main(compare_args(clip_a, tmp_path / "d.csv", input_b=clip_b)) == EXIT_OK
        assert probed == [str(clip_a), str(clip_b)]
        capsys.readouterr()


def count_plane_passes(monkeypatch):
    """Wrap activity._plane_activity so that each plane it analyses appends its shape to the list."""
    calls = []
    real = activity._plane_activity

    def counting(strips, *rest):
        # Copies: a reader's strips share one buffer, valid only until the next.
        strips = [strip.copy() for strip in strips]
        calls.append(np.concatenate(strips).shape)
        return real(strips, *rest)

    monkeypatch.setattr(activity, "_plane_activity", counting)
    return calls


class TestHalvesPerFrame:
    """Each frame works out its own halves: x and y for luma, and x and y both chroma planes share."""

    @pytest.mark.parametrize(
        "command, inputs",
        [
            (lambda clip, out, frames: analyze_args(clip, out, frames=frames), 1),
            (lambda clip, out, frames: compare_args(clip, out, frames=frames, input_b=clip), 2),
            (lambda clip, out, frames: dump_args(clip, out, frames=frames), 1),
        ],
        ids=["analyze", "compare-input-b", "dump-activity"],
    )
    def test_plans_are_built_per_frame(self, tmp_path, capsys, monkeypatch, command, inputs):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, seed) for seed in range(6)])
        calls = []
        real = activity._halves
        monkeypatch.setattr(activity, "_halves", lambda *args: calls.append(args) or real(*args))
        builds = []
        for frames in (1, 6):
            calls.clear()
            assert main(command(clip, tmp_path / "out.csv", frames)) == EXIT_OK
            builds.append(len(calls))
        capsys.readouterr()
        assert builds == [4 * inputs, 24 * inputs]


# Plane passes per frame: chroma is analysed only where an output reads it.
PLANE_PASSES = [
    ("analyze-adaptiveqp", lambda clip, out: analyze_args(clip, out, mode="adaptiveqp"), 1),
    ("compare-adaptiveqp-adaptiveqp", lambda clip, out: compare_args(
        clip, out, mode_a="adaptiveqp", mode_b="adaptiveqp"), 1),
    ("analyze-cbaq", lambda clip, out: analyze_args(clip, out, mode="cbaq"), 3),
    ("analyze-adaptiveqp-dump-activity", lambda clip, out: analyze_args(
        clip, out, mode="adaptiveqp", dump_activity=out.with_name("act.csv")), 3),
    ("dump-activity", lambda clip, out: dump_args(clip, out), 3),
    ("compare-adaptiveqp-cbaq", lambda clip, out: compare_args(
        clip, out, mode_a="adaptiveqp", mode_b="cbaq"), 3),
    ("compare-cbaq-adaptiveqp", lambda clip, out: compare_args(
        clip, out, mode_a="cbaq", mode_b="adaptiveqp"), 3),
]


class TestLumaOnlyPath:
    @pytest.mark.parametrize(
        "make_args, passes", [case[1:] for case in PLANE_PASSES], ids=[case[0] for case in PLANE_PASSES]
    )
    def test_plane_passes_per_frame(self, tmp_path, monkeypatch, capsys, make_args, passes):
        frames = 2
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(frames)])
        calls = count_plane_passes(monkeypatch)
        assert main(make_args(clip, tmp_path / "out.csv")) == EXIT_OK
        capsys.readouterr()
        luma, chroma = (FMT.height, FMT.width), (FMT.height // 2, FMT.width // 2)
        assert calls == ([luma] + [chroma] * (passes - 1)) * frames


class TestStreaming:
    """One CU row of samples at a time, rows written as they come, outputs moved in at the end."""

    def test_stale_partial_file_is_left_alone(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
        (tmp_path / "fresh").mkdir()
        fresh = tmp_path / "fresh" / "m.csv"
        assert main(analyze_args(clip, fresh, dump_activity=fresh.with_name("a.csv"))) == EXIT_OK
        # What a run killed by SIGKILL leaves behind.
        stale = [tmp_path / f".perceptqp.{k:016x}.partial" for k in (0, 1)]
        for path in stale:
            path.write_text("left by a killed run\n")
        before = [path.stat() for path in stale]
        out, side = tmp_path / "m.csv", tmp_path / "a.csv"
        assert main(analyze_args(clip, out, dump_activity=side)) == EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == fresh.read_bytes()
        assert side.read_bytes() == fresh.with_name("a.csv").read_bytes()
        for path, stat_before in zip(stale, before):
            assert path.read_text() == "left by a killed run\n"
            assert path.stat().st_mtime_ns == stat_before.st_mtime_ns
        partials = sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".partial"))
        assert partials == sorted(path.name for path in stale)

    @pytest.mark.parametrize("collides", ["output", "dump-activity"])
    def test_partial_name_collision_is_io_error(self, tmp_path, capsys, monkeypatch, collides):
        clip = constant_clip(tmp_path / "in.yuv")
        out, side = tmp_path / "map.csv", tmp_path / "act.csv"
        out.write_text("old output\n")
        stale = tmp_path / f".perceptqp.{'ab' * 8}.partial"
        stale.write_text("left by a killed run\n")
        # The output's partial name is drawn first, the sidecar's second.
        draws = iter(["ab" * 8] if collides == "output" else ["01" * 8, "ab" * 8])
        monkeypatch.setattr(os, "urandom", lambda n: bytes.fromhex(next(draws)))
        assert main(analyze_args(clip, out, dump_activity=side)) == EXIT_IO
        exists = f"i/o error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{stale}'\n"
        assert capsys.readouterr() == ("", exists)
        assert stale.read_text() == "left by a killed run\n"
        assert out.read_text() == "old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "in.yuv", "map.csv"]

    @pytest.mark.parametrize("loop_at", ["output", "dump-activity"])
    def test_symlink_loop_output_is_io_error(self, tmp_path, capsys, loop_at):
        clip = constant_clip(tmp_path / "in.yuv")
        loop, other = tmp_path / "loop", tmp_path / "other.csv"
        loop.symlink_to(loop.name)
        out, side = (loop, other) if loop_at == "output" else (other, loop)
        assert main(analyze_args(clip, out, dump_activity=side)) == EXIT_IO
        assert os.strerror(errno.ELOOP) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.yuv", "loop"]

    def test_new_output_mode_follows_umask(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        out = tmp_path / "map.csv"
        previous = os.umask(0o027)
        try:
            assert main(analyze_args(clip, out)) == EXIT_OK
        finally:
            os.umask(previous)
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_fifo_output_is_written_through(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
        regular, fifo = tmp_path / "act.csv", tmp_path / "pipe"
        assert main(dump_args(clip, regular)) == EXIT_OK
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(dump_args(clip, fifo)) == EXIT_OK
        reader.join(timeout=30)
        capsys.readouterr()
        assert received == [regular.read_text()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["act.csv", "in.yuv", "pipe"]

    def test_frame_missing_after_the_probe_is_named_by_the_frame_loop(self, tmp_path, capsys, monkeypatch):
        # As when the input shrinks during a run: the reader names the plane, the frame loop the frame.
        clip = constant_clip(tmp_path / "in.yuv", count=2)
        out = tmp_path / "map.csv"
        out.write_text("old output\n")
        real = cli.probe_frame_count
        monkeypatch.setattr(cli, "probe_frame_count", lambda stream, fmt: real(stream, fmt) + 1)
        assert main(analyze_args(clip, out)) == EXIT_VALIDATION
        luma = FMT.width * FMT.height
        assert capsys.readouterr() == ("", f"error: frame 2: the Y plane needed {luma} bytes, stream had 0\n")
        assert out.read_text() == "old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.yuv", "map.csv"]

    def test_fifo_input_is_refused_as_not_seekable(self, tmp_path, capsys):
        # The size probe seeks, which a pipe cannot, so the probe fails
        # before --skip is checked. The writer unblocks the run's open of the
        # FIFO; a run that never opens it leaves the writer blocked, so its
        # join is bounded.
        fifo = tmp_path / "in.yuv"
        os.mkfifo(fifo)

        def write():
            with suppress(BrokenPipeError), open(fifo, "wb") as sink:
                sink.write(bytes(frame_bytes(FMT)))

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        assert main(analyze_args(fifo, tmp_path / "map.csv", skip=-1)) == EXIT_VALIDATION
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert capsys.readouterr() == ("", "error: File or stream is not seekable.\n")
        assert [p.name for p in tmp_path.iterdir()] == ["in.yuv"]


LONG_FMT = VideoFormat(512, 512, 10, ChromaFormat.YUV420)


@pytest.fixture(scope="module")
def long_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "in.yuv"
    return write_clip(path, (random_frame(LONG_FMT, s) for s in range(16)))


def traced_peak(args):
    """Peak bytes tracemalloc (which sees numpy buffers) records during one main() call."""
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make_args",
    [
        lambda clip, out: analyze_args(
            clip, out / "m.csv", fmt=LONG_FMT, bit_depth=10, cu_size=16, dump_activity=out / "a.csv"
        ),
        lambda clip, out: compare_args(
            clip, out / "d.csv", fmt=LONG_FMT, mode_a="adaptiveqp", bit_depth=10, cu_size=16
        ),
        lambda clip, out: compare_args(
            clip, out / "d.csv", fmt=LONG_FMT, bit_depth=10, cu_size=16, input_b=clip
        ),
        lambda clip, out: dump_args(clip, out / "a.csv", fmt=LONG_FMT, bit_depth=10, cu_size=16),
    ],
    ids=["analyze", "compare", "compare-input-b", "dump-activity"],
)
def test_peak_memory_does_not_grow_with_clip_length(tmp_path, capsys, long_clip, make_args):
    args = make_args(long_clip, tmp_path)
    assert main(args + ["--frames", "1"]) == EXIT_OK  # untraced warm-up: one-time allocations
    short, long = (traced_peak(args + ["--frames", str(n)]) for n in (2, 16))
    capsys.readouterr()
    assert long < short + frame_bytes(LONG_FMT), (short, long)


HD = {
    "420": VideoFormat(1920, 1080, 8, ChromaFormat.YUV420),
    "420-10": VideoFormat(1920, 1080, 10, ChromaFormat.YUV420),
    "444": VideoFormat(1920, 1080, 8, ChromaFormat.YUV444),
}


@pytest.fixture(scope="module")
def hd_clips(tmp_path_factory):
    """A folder with NAME.yuv, two frames of random samples, for each NAME of HD."""
    folder = tmp_path_factory.mktemp("hd")
    rng = np.random.default_rng(11)
    for name, fmt in HD.items():
        samples = rng.integers(0, fmt.max_sample + 1, size=2 * frame_bytes(fmt) // fmt.bytes_per_sample)
        (folder / f"{name}.yuv").write_bytes(stored(samples, fmt))
    return folder


@pytest.mark.parametrize(
    "name, make_args",
    [
        ("420", lambda clip, out, fmt: analyze_args(
            clip, out / "m.csv", fmt=fmt, mode="adaptiveqp", cu_size=16, dump_activity=out / "a.csv")),
        ("420-10", lambda clip, out, fmt: analyze_args(
            clip, out / "m.json", fmt=fmt, bit_depth=10, cu_size=64, format="json")),
        ("444", lambda clip, out, fmt: compare_args(
            clip, out / "d.csv", fmt=fmt, mode_a="adaptiveqp", cu_size=32)),
        ("444", lambda clip, out, fmt: compare_args(
            clip, out / "d.csv", fmt=fmt, mode_a="adaptiveqp", cu_size=32, input_b=clip)),
        ("420", lambda clip, out, fmt: dump_args(clip, out / "a.csv", fmt=fmt, cu_size=16)),
    ],
    ids=["analyze-csv-cu16-dump-activity", "analyze-json-10bit-cu64", "compare", "compare-input-b",
         "dump-activity"],
)
def test_peak_memory_stays_below_half_a_frame(tmp_path, capsys, hd_clips, name, make_args):
    args = make_args(hd_clips / f"{name}.yuv", tmp_path, HD[name])
    assert main(args + ["--frames", "1"]) == EXIT_OK  # untraced warm-up: one-time allocations
    peak = traced_peak(args)
    capsys.readouterr()
    # A decoded frame of the native dtype occupies frame_bytes.
    assert peak < frame_bytes(HD[name]) / 2, peak


def test_memory_held_after_a_run_does_not_grow_with_cu_count(tmp_path, capsys):
    """What one run leaves allocated (a run caches nothing) is the same for a frame of 4x the CUs.

    Each measured geometry runs cold: the warm-up runs a third, tiny one, so
    it takes only the process's one-time allocations and caches nothing the
    measured runs could reuse.
    """
    def args(width, height):
        fmt = VideoFormat(width, height, 8, ChromaFormat.YUV420)
        clip = write_clip(tmp_path / f"{width}x{height}.yuv", [random_frame(fmt, 0)])
        return analyze_args(clip, tmp_path / "m.csv", fmt=fmt, cu_size=16, dump_activity=tmp_path / "a.csv")

    assert main(args(32, 32)) == EXIT_OK
    held = []
    for argv in (args(640, 360), args(1280, 720)):
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    # 3600 CUs against 920: a table of one string per CU holds 50-70 bytes per added CU.
    assert held[1] - held[0] < 8 * (3600 - 920), held


NUMERIC_FLAGS = ("--width", "--height", "--skip", "--frames", "--qp", "--qp-range", "--cu-size")


@st.composite
def tiny_clips(draw):
    """A clip of at most 600 bytes and its geometry, maybe truncated, emptied or out of range."""
    fmt = draw(video_formats(max_dim=8))
    count = draw(st.integers(0, 600 // frame_bytes(fmt)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, fmt.max_sample + 1, size=count * frame_bytes(fmt) // fmt.bytes_per_sample)
    data = bytearray(stored(samples, fmt))
    damage = draw(st.sampled_from(["none", "none", "truncated", "empty", "above-1023"]))
    if damage == "truncated" and data:
        del data[draw(st.integers(0, len(data) - 1)):]
    elif damage == "empty":
        data.clear()
    elif damage == "above-1023" and len(data) >= 2:
        at = 2 * draw(st.integers(0, len(data) // 2 - 1))
        data[at : at + 2] = draw(st.integers(1024, 0xFFFF)).to_bytes(2, "little")
    return fmt, bytes(data)


def rd_csv_files():
    """The matrix corpus's RD CSVs, valid and faulty, a truncated anchor and arbitrary bytes."""
    anchor = cli_matrix.RD_FILES["anchor"]
    return st.one_of(
        st.sampled_from(sorted(cli_matrix.RD_FILES)).map(cli_matrix.RD_FILES.get),
        st.integers(0, len(anchor) - 1).map(lambda n: anchor[:n]),
        st.binary(max_size=600),
    )


OUTPUT_KINDS = ("plain", "symlink-loop", "directory", "stale-partial")


@st.composite
def cli_runs(draw):
    """(files to write, output kind, argv) for one CLI call; {NAME} in argv is the path of NAME.

    A few numeric flags get an arbitrary integer, the rest their right value.
    The output kind says what already sits at {out}, or beside it.
    """
    command = draw(st.sampled_from(["analyze", "compare", "dump-activity", "bdrate"]))
    if command == "bdrate":
        files = {"anchor": draw(rd_csv_files()), "test": draw(rd_csv_files())}
        return files, "plain", ["bdrate", "--anchor", "{anchor}", "--test", "{test}"]
    fmt, clip = draw(tiny_clips())
    files = {"clip": clip}
    wrong = draw(st.lists(st.sampled_from(NUMERIC_FLAGS), max_size=3))
    right = {"--width": fmt.width, "--height": fmt.height, "--skip": 0, "--frames": 1,
             "--qp": 32, "--qp-range": 6, "--cu-size": draw(st.sampled_from([16, 32, 64]))}
    if command == "dump-activity":
        del right["--qp"], right["--qp-range"]
    for flag in ("--skip", "--frames"):
        if draw(st.booleans()) and flag not in wrong:
            del right[flag]
    argv = [command, "--input", "{clip}", "--output", "{out}",
            "--bit-depth", fmt.bit_depth, "--chroma", fmt.chroma_format.value]
    for flag, value in right.items():
        argv += [flag, draw(st.integers()) if flag in wrong else value]
    if command == "analyze":
        argv += ["--mode", "cbaq", "--format", draw(st.sampled_from(["csv", "json"]))]
        if draw(st.booleans()):
            argv += ["--dump-activity", "{side}"]
    if command == "compare":
        argv += ["--mode-a", "adaptiveqp", "--mode-b", "cbaq"]
        if draw(st.booleans()):
            argv += ["--input-b", "{other}"]
            if draw(st.booleans()):  # else a missing file
                files["other"] = draw(tiny_clips())[1]
    return files, draw(st.sampled_from(OUTPUT_KINDS)), [str(arg) for arg in argv]


@settings(max_examples=200, deadline=None)
@given(cli_runs())
@example(({"clip": bytes(96)}, "symlink-loop", [  # one 8x8 4:2:0 frame, map and sidecar
    "analyze", "--input", "{clip}", "--output", "{out}", "--dump-activity", "{side}",
    "--width", "8", "--height", "8", "--qp", "32", "--mode", "cbaq"]))
@example((  # Y fits and Cb does not: a failure after the first table row
    {"anchor": cli_matrix.RD_FILES["anchor"], "test": cli_matrix.RD_FILES["cb-apart"]},
    "plain", ["bdrate", "--anchor", "{anchor}", "--test", "{test}"]))
def test_every_argv_ends_in_a_documented_exit_code(run):
    files, kind, argv = run
    with tempfile.TemporaryDirectory() as scratch:
        paths = {name: os.path.join(scratch, name) for name in ("out", "side", "other", *files)}
        for name, data in files.items():
            with open(paths[name], "wb") as sink:
                sink.write(data)
        stale = os.path.join(scratch, ".perceptqp.0123456789abcdef.partial")
        if kind == "symlink-loop":
            os.symlink("out", paths["out"])
        elif kind == "directory":
            os.mkdir(paths["out"])
        elif kind == "stale-partial":
            with open(stale, "w") as sink:
                sink.write("left by a killed run\n")
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main([arg.format(**paths) for arg in argv])
        # No output here is stdout, so a run that fails writes nothing to it: no summary, no table row.
        assert code == EXIT_OK or stdout.getvalue() == ""
        # Whatever the outcome, no partial file is left but one the run did not make.
        partials = [name for name in os.listdir(scratch) if name.endswith(".partial")]
        assert partials == ([os.path.basename(stale)] if kind == "stale-partial" else [])
        if kind == "stale-partial":
            with open(stale) as source:
                assert source.read() == "left by a killed run\n"
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_IO)


def child_env(**env):
    """This process's environment with perceptqp importable and OPENBLAS_NUM_THREADS as given.

    PYTHONUNBUFFERED is dropped, so a child's stdout is buffered as a user's is.
    """
    environ = {
        k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")
    }
    src = os.path.dirname(os.path.dirname(perceptqp.__file__))
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    environ.update(env)
    return environ


def fresh_interpreter(code, **env):
    """Run code in a new Python with perceptqp importable and OPENBLAS_NUM_THREADS as given."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**env), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestOpenblasDefault:
    """The CLI pins numpy's OpenBLAS to one thread unless the caller chose; the library leaves it."""

    def test_library_import_leaves_the_variable_unset(self):
        code = (
            "import os, perceptqp, perceptqp.activity, perceptqp.qp, perceptqp.yuv, perceptqp.metrics;"
            " print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert fresh_interpreter(code) == "None"

    def test_import_sets_one_thread(self):
        code = "import os, perceptqp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_interpreter(code) == "1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_process_runs_one_thread(self):
        code = "import os, perceptqp.cli; print(len(os.listdir('/proc/self/task')))"
        assert fresh_interpreter(code) == "1"

    def test_explicit_value_wins(self):
        code = "import os, perceptqp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == "2"


# Every name the package exported when its __init__ imported all submodules up front.
EXPORTS = [
    (module, name)
    for module, names in {
        "activity": "frame_activity",
        "metrics": "CurveOverlapError DegenerateCurveError RdCurve RdPoint bd_psnr bd_rate"
        " parse_rd_csv psnr",
        "partition": "ActivityRecord CbRect CuRect FrameActivity block_variance cb_rect cu_activity"
        " cu_grid cu_qp delta_qp normalized_activity round_half_away_from_zero sub_blocks",
        "qp": "CU_SIZES Mode QP_MAX QP_MIN QpConfig QpMap Rounding TMode grid_dims qp_map"
        " qp_map_from_activity scaling_factor",
        "yuv": "Channel ChromaFormat Frame Plane SampleRangeError TruncatedInputError VideoFormat"
        " YuvError frame_bytes plane_dims probe_frame_count read_frame write_frame",
    }.items()
    for name in names.split()
]


# What start-up may load besides perceptqp: numpy, the stdlib modules the clip path imports,
# and what building and using an argparse parser pulls in.
STARTUP_BASELINE = (
    "import __future__, argparse, collections, contextlib, dataclasses, enum, errno, io,"
    " itertools, math, numbers, os, pathlib, signal, stat, sys, typing\n"
    "import numpy\n"
    "parser = argparse.ArgumentParser(prog='p')\n"
    "run = parser.add_subparsers(dest='command', required=True).add_parser('run')\n"
    "run.add_argument('--n', type=int, default=1)\n"
    "run.add_argument('--path', type=pathlib.Path)\n"
    "run.add_argument('--pick', choices=['a', 'b'], default='a')\n"
    "parser.parse_args(['run', '--n', '2', '--path', 'x', '--pick', 'b'])\n"
    "print(*sys.modules)\n"
)


class TestLazyExports:
    """perceptqp's names load their submodule on first use, so the CLI loads only its own path."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            (None, {}),
            ("analyze", {"dump_activity": "act.csv"}),
            ("compare", {"mode_a": "adaptiveqp", "mode_b": "cbaq"}),
            ("dump-activity", {}),
        ],
        ids=["import", "analyze-dump-activity", "compare", "dump-activity"],
    )
    def test_cli_import_leaves_out_metrics_csv_and_json(self, tmp_path, command, flags):
        """Neither the import nor a run of a clip command loads partition, metrics, csv or json.

        Nor does it load any other module that STARTUP_BASELINE does not. Both
        sets are taken on the running Python, so its own stdlib internals never count.
        """
        code = f"import os, sys, perceptqp.cli\nos.chdir({str(tmp_path)!r})\n"
        if command is not None:
            fmt = VideoFormat(64, 32, 8, ChromaFormat.YUV420)
            clip = constant_clip(tmp_path / "in.yuv", fmt=fmt)
            argv = cli_args(command, clip, "out.csv", fmt=fmt, **flags)
            code += f"assert perceptqp.cli.main({argv!r}) == {EXIT_OK}\n"
        code += "print(*sys.modules)"
        loaded = set(fresh_interpreter(code).splitlines()[-1].split())
        ours = {name for name in loaded if name.partition(".")[0] == "perceptqp"}
        assert sorted({"csv", "json"} & loaded) == []
        clip_path = {"perceptqp", "perceptqp.cli", "perceptqp.activity", "perceptqp.qp", "perceptqp.yuv"}
        assert sorted(ours - clip_path) == []
        assert sorted(loaded - ours - set(fresh_interpreter(STARTUP_BASELINE).split())) == []

    def test_json_analyze_loads_no_json_module(self, tmp_path):
        clip = constant_clip(tmp_path / "in.yuv")
        out = tmp_path / "map.json"
        argv = analyze_args(clip, out, format="json")
        code = f"import sys; from perceptqp.cli import main; print(main({argv!r})); print('json' in sys.modules)"
        assert fresh_interpreter(code).splitlines()[-2:] == [str(EXIT_OK), "False"]
        assert json.loads(out.read_text())["config"]["mode"] == "cbaq"

    def test_two_pass_library_path_loads_no_partition(self):
        code = (
            "import io, sys\n"
            "from perceptqp import ChromaFormat, Mode, QpConfig, VideoFormat, frame_activity, frame_bytes,"
            " qp_map_from_activity, read_frame\n"
            "fmt = VideoFormat(96, 64, 8, ChromaFormat.YUV420)\n"
            "frame = read_frame(io.BytesIO(bytes(range(256)) * (frame_bytes(fmt) // 256)), fmt)\n"
            "config = QpConfig(slice_qp=32, mode=Mode.CBAQ, cu_size=32)\n"
            "qps = qp_map_from_activity(fmt, frame_activity(frame, 32), config)\n"
            "print((len(qps.qps[0]), len(qps.qps)), 'perceptqp.partition' in sys.modules)\n"
        )
        assert fresh_interpreter(code) == "(3, 2) False"

    def test_every_export_is_listed_and_is_its_submodules_object(self):
        code = (
            "import importlib, perceptqp\n"
            f"exports = {EXPORTS!r}\n"
            "listed = set(dir(perceptqp))\n"
            "print([n for _, n in exports if n not in listed])\n"
            "print([n for m, n in exports if getattr(perceptqp, n) is not"
            " getattr(importlib.import_module('perceptqp.' + m), n)])\n"
            "print(sorted(perceptqp.__all__) == sorted(n for _, n in exports))\n"
        )
        assert fresh_interpreter(code).splitlines() == ["[]", "[]", "True"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="'perceptqp' has no attribute 'no_such_name'"):
            perceptqp.no_such_name
        with pytest.raises(ImportError):
            from perceptqp import no_such_name  # noqa: F401

    def test_submodules_import_by_name(self):
        code = (
            "import sys; from perceptqp import activity, cli;"
            " print(activity is sys.modules['perceptqp.activity'], cli is sys.modules['perceptqp.cli'])"
        )
        assert fresh_interpreter(code) == "True True"


def test_every_import_is_used_or_re_exported():
    """No module of the package or of scripts/ imports a name it never uses.

    A name a module imports only so that _SUBMODULE can export it from there counts as used.
    """
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    unused = []
    for directory in ("src/perceptqp", "scripts"):
        for name in sorted(os.listdir(os.path.join(root, directory))):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, directory, name), encoding="utf-8") as source:
                tree = ast.parse(source.read())
            module = name.removesuffix(".py")
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            used |= {n for n, m in perceptqp._SUBMODULE.items() if m == module}
            imports = (node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)))
            for node in imports:
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                if getattr(node, "module", None) != "__future__":
                    unused += [f"{directory}/{name}:{node.lineno} {b}" for b in bound if b not in used]
    assert unused == []


SYNTHETIC_CLIP_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "make_synthetic_clip.py")


def test_synthetic_clip_script_writes_whole_frames_analyze_reads(tmp_path, capsys):
    """README's clip generator runs as a script and writes exactly the frames it is asked for."""
    fmt = VideoFormat(64, 48, 10, ChromaFormat.YUV422)
    clip = tmp_path / "clip.yuv"
    argv = [
        sys.executable, SYNTHETIC_CLIP_SCRIPT, "--output", str(clip), "--width", "64", "--height", "48",
        "--bit-depth", "10", "--chroma", "422", "--frames", "2", "--pattern", "mixed",
    ]
    subprocess.run(argv, env=child_env(), check=True, capture_output=True, timeout=60)
    assert clip.stat().st_size == 2 * frame_bytes(fmt)
    assert main(analyze_args(clip, tmp_path / "map.csv", fmt=fmt, bit_depth=10)) == EXIT_OK


def cli_child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen):
    """The console script's entry() on argv in a new process, by default with stdout and stderr piped.

    SIGINT is handled as in a foreground job: a test run in the background
    inherits an ignored SIGINT, which Python would leave ignored. Any other
    keyword goes to Popen.
    """
    code = (
        "import signal; signal.signal(signal.SIGINT, signal.default_int_handler);"
        " from perceptqp.cli import entry; entry()"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], env=child_env(), stdout=stdout, stderr=stderr, **popen
    )


@pytest.mark.parametrize(
    "signum, code, err",
    [(signal.SIGINT, cli.EXIT_INTERRUPTED, b"interrupted\n"), (signal.SIGTERM, cli.EXIT_TERMINATED, b"")],
    ids=["SIGINT", "SIGTERM"],
)
def test_signal_mid_clip_removes_partial_files(tmp_path, long_clip, signum, code, err):
    # The sidecar is a FIFO that this test stops reading once frame 2's rows
    # begin, so the run is held mid-clip, its map staged in a partial file,
    # until the signal arrives; 13 frames of sidecar rows are still to come.
    side = tmp_path / "side"
    os.mkfifo(side)
    # Read and write, so the run's open of the FIFO never waits for this reader.
    fifo = os.open(side, os.O_RDWR | os.O_NONBLOCK)
    received = bytearray()
    deadline = time.monotonic() + 60

    def drain():
        try:
            received.extend(os.read(fifo, 1 << 16))
        except BlockingIOError:
            time.sleep(0.005)

    try:
        child = cli_child(analyze_args(
            long_clip, tmp_path / "map.csv", fmt=LONG_FMT, bit_depth=10, cu_size=16, dump_activity=side
        ))
        while b"\n2," not in received:
            assert child.poll() is None and time.monotonic() < deadline
            drain()
        assert len([p for p in tmp_path.iterdir() if p.name.endswith(".partial")]) == 1
        child.send_signal(signum)
        while child.poll() is None:  # keep reading, so no write of the clean-up can block
            assert time.monotonic() < deadline
            drain()
        out, stderr = child.communicate(timeout=60)
    finally:
        os.close(fifo)
    assert (child.returncode, out, stderr) == (code, b"", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["side"]


def test_broken_pipe_is_one_io_error_line(long_clip):
    # As `perceptqp analyze --output /dev/stdout | head -1`: about 210 KB of
    # rows, far more than the pipe holds, so the run is still writing.
    child = cli_child(analyze_args(long_clip, "/dev/stdout", fmt=LONG_FMT, bit_depth=10, cu_size=16))
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert first.startswith(b"# perceptqp qp-map ")
    assert (child.returncode, err) == (EXIT_IO, b"i/o error: [Errno 32] Broken pipe\n")


# A command of each kind that writes to stdout, on the matrix corpus's clip and RD CSVs, which read cleanly.
SUMMARY_ARGV = {
    "analyze": cli_matrix.analyze(cli_matrix.SMALL, "--output", "old.csv"),
    "compare": cli_matrix.compare(cli_matrix.SMALL, "--output", "old.csv"),
    "dump-activity": cli_matrix.dump(cli_matrix.SMALL, "--output", "old.csv"),
    "bdrate": cli_matrix.bdrate(cli_matrix.rd("anchor"), cli_matrix.rd("test")),
    "help": ["--help"],
    "analyze-help": ["analyze", "--help"],
}


@pytest.mark.parametrize("command", SUMMARY_ARGV)
def test_unwritable_summary_is_one_io_error_and_replaces_nothing(corpus, command):
    run = corpus.parent / "run"
    cli_matrix.fresh_run_directory(run)
    # stdout is a pipe no one reads: the summary or help, buffered as in a shell, fails when flushed.
    read, write = os.pipe()
    os.close(read)
    try:
        child = cli_child(SUMMARY_ARGV[command], stdout=write, cwd=run)
    finally:
        os.close(write)
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (EXIT_IO, b"i/o error: [Errno 32] Broken pipe\n")
    assert cli_matrix.contents(run) == {"dir": None, "old.csv": cli_matrix.OLD_OUTPUT}


def test_outputs_on_one_file_as_stdout_and_stderr_are_refused(tmp_path):
    # As `analyze --output /dev/stdout --dump-activity /dev/stderr 2>&1`: the two
    # outputs name one file, which is refused before the input is opened.
    argv = analyze_args(tmp_path / "absent.yuv", "/dev/stdout", dump_activity="/dev/stderr")
    child = cli_child(argv, stderr=subprocess.STDOUT)
    out, _ = child.communicate(timeout=60)
    assert (child.returncode, out) == (
        EXIT_VALIDATION,
        b"error: outputs /dev/stdout and /dev/stderr are the same file; one would overwrite the other\n",
    )


@pytest.mark.parametrize(
    "case, code",
    [("bdrate", EXIT_OK), ("help", EXIT_OK), ("usage", EXIT_USAGE), ("validation", EXIT_VALIDATION), ("io", EXIT_IO)],
)
def test_console_script_exit_loses_no_byte(corpus, capsys, monkeypatch, case, code):
    # The help's width follows COLUMNS, which the child inherits.
    monkeypatch.setenv("COLUMNS", "80")
    run = corpus.parent / "run"
    cli_matrix.fresh_run_directory(run)
    monkeypatch.chdir(run)
    argv = {
        "bdrate": cli_matrix.bdrate(cli_matrix.rd("anchor"), cli_matrix.rd("test")),
        "help": ["--help"],
        "usage": cli_matrix.analyze(cli_matrix.SMALL, "--qp", "x"),
        "validation": cli_matrix.analyze(cli_matrix.SMALL, "--qp-range", "52"),
        "io": cli_matrix.analyze(cli_matrix.SMALL, "--input", cli_matrix.ABSENT),
    }[case]
    assert main(argv) == code
    expected = (code, *capsys.readouterr())
    child = cli_child(argv, cwd=run)
    out, err = child.communicate(timeout=60)
    assert (child.returncode, out.decode(), err.decode()) == expected
    assert cli_matrix.contents(run) == {"dir": None, "old.csv": cli_matrix.OLD_OUTPUT}


def test_console_script_skips_atexit_handlers():
    code = "import atexit; atexit.register(print, 'atexit ran'); from perceptqp.cli import entry; entry()"
    done = subprocess.run(
        [sys.executable, "-c", code, "--help"], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert "atexit ran" not in done.stdout and done.stdout.startswith("usage: perceptqp")


@pytest.mark.parametrize(
    "make_args",
    [functools.partial(analyze_args, format="json"), compare_args, dump_args],
    ids=["analyze-json", "compare", "dump-activity"],
)
def test_summary_stays_out_of_rows_streamed_to_stdout(tmp_path, capsys, make_args):
    clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
    regular = tmp_path / "out"
    assert main(make_args(clip, regular)) == EXIT_OK
    summary = capsys.readouterr().out
    child = cli_child(make_args(clip, "/dev/stdout"))  # stdout is a pipe
    out, err = child.communicate(timeout=60)
    assert (child.returncode, out, err.decode()) == (EXIT_OK, regular.read_bytes(), summary)
    if "json" in make_args.keywords.get("format", ""):
        assert len(json.loads(out)["frames"]) == 2
    # As `2>&1`: on one stream, the summary still follows the rows.
    child = cli_child(make_args(clip, "/dev/stdout"), stderr=subprocess.STDOUT)
    assert child.communicate(timeout=60)[0] == regular.read_bytes() + summary.encode()


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")), reason="needs Linux /proc and /dev/full"
)
def test_failed_summary_flush_leaves_no_descriptor_open(tmp_path, monkeypatch, capsys):
    clip = constant_clip(tmp_path / "in.yuv")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(analyze_args(clip, tmp_path / "out.csv")) == EXIT_IO
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("i/o error:") == 3


@pytest.mark.skipif(not os.path.exists("/proc/self/fd/1"), reason="needs Linux /proc")
def test_output_that_is_stdout_redirected_to_a_file_is_written_through(tmp_path, capsys):
    # As `analyze --output /dev/stdout > map.csv`, with a stand-in for /dev/stdout.
    clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
    regular = tmp_path / "regular.csv"
    assert main(analyze_args(clip, regular)) == EXIT_OK
    summary = capsys.readouterr().out
    link, redirected = tmp_path / "stdout", tmp_path / "map.csv"
    link.symlink_to("/proc/self/fd/1")
    with open(redirected, "wb") as sink:
        child = cli_child(analyze_args(clip, link), stdout=sink)
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err.decode()) == (EXIT_OK, summary)
    assert os.readlink(link) == "/proc/self/fd/1"
    assert redirected.read_bytes() == regular.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.yuv", "map.csv", "regular.csv", "stdout"]

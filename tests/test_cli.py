"""End-to-end CLI behaviour: every subcommand through cli.main."""

import csv
import errno
import json
import os
import stat
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perceptqp import (
    ChromaFormat,
    Frame,
    Mode,
    Plane,
    QpConfig,
    RdPoint,
    VideoFormat,
    frame_activity,
    frame_bytes,
    qp_map_from_activity,
    write_frame,
)
from perceptqp import cli
from perceptqp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from perceptqp.metrics import rd_csv_bytes
from strategies import random_frame, video_formats

FMT = VideoFormat(128, 64, 8, ChromaFormat.YUV420)


def write_clip(path, frames):
    with open(path, "wb") as sink:
        for frame in frames:
            write_frame(sink, frame)
    return path


def constant_clip(path, fmt=FMT, value=100, count=2):
    return write_clip(path, [random_frame(fmt, 0, lo=value, hi=value)] * count)


def checkerboard(h, w, lo, hi):
    grid = np.add.outer(np.arange(h), np.arange(w)) % 2
    return np.where(grid.astype(bool), hi, lo).astype(np.uint8)


def tiled_frame():
    """Every CU carries identical texture, so both rules stay at the slice QP."""
    y = np.tile(checkerboard(64, 64, 60, 196), (1, 2))
    cb = np.tile(checkerboard(32, 32, 100, 140), (1, 2))
    cr = np.tile(checkerboard(32, 32, 90, 150), (1, 2))
    return Frame(Plane(y), Plane(cb), Plane(cr), FMT)


def chroma_contrast_frame():
    """Uniform luma texture; one CU carries much busier chroma than the rest."""
    fmt = VideoFormat(128, 128, 8, ChromaFormat.YUV420)
    y = np.tile(checkerboard(64, 64, 50, 200), (2, 2))
    cb = np.full((64, 64), 128, dtype=np.uint8)
    cr = np.full((64, 64), 128, dtype=np.uint8)
    cb[0:32, 0:32] = checkerboard(32, 32, 0, 255)
    cr[0:32, 0:32] = checkerboard(32, 32, 0, 255)
    return Frame(Plane(y), Plane(cb), Plane(cr), fmt)


def analyze_args(clip, out, fmt=FMT, **extra):
    args = [
        "analyze",
        "--input", str(clip),
        "--width", str(fmt.width),
        "--height", str(fmt.height),
        "--chroma", fmt.chroma_format.value,
        "--qp", "32",
        "--mode", "cbaq",
        "--output", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestAnalyze:
    def test_constant_clip_keeps_slice_qp(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        out = tmp_path / "map.csv"
        assert main(analyze_args(clip, out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# perceptqp qp-map ")
        assert "mode=cbaq" in lines[0] and "qp=32" in lines[0]
        assert lines[1] == "frame,cu_x,cu_y,qp"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4  # 2 frames x 2 CUs
        assert all(row[3] == "32" for row in rows)
        assert [row[0] for row in rows] == ["0", "0", "1", "1"]
        summary = capsys.readouterr().out.strip()
        assert summary == "frames=2 cus=4 mean_delta_qp=0.0000 min_qp=32 max_qp=32"

    def test_reruns_are_byte_identical(self, tmp_path):
        clip = write_clip(
            tmp_path / "in.yuv", [random_frame(FMT, seed) for seed in (5, 6, 7)]
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(analyze_args(clip, out_a)) == EXIT_OK
        assert main(analyze_args(clip, out_b)) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_output_structure(self, tmp_path):
        clip = constant_clip(tmp_path / "in.yuv", count=1)
        out = tmp_path / "map.json"
        assert main(analyze_args(clip, out, format="json")) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "cbaq"
        assert payload["config"]["width"] == 128
        (frame,) = payload["frames"]
        assert frame["frame"] == 0
        assert (frame["cols"], frame["rows"]) == (2, 1)
        assert frame["qp"] == [[32, 32]]
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_skip_and_frames_select_range(self, tmp_path):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(4)])
        out = tmp_path / "map.csv"
        assert main(analyze_args(clip, out, skip=1, frames=2)) == EXIT_OK
        frames = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert frames == {"1", "2"}

    def test_dump_activity_sidecar(self, tmp_path):
        clip = constant_clip(tmp_path / "in.yuv", count=1)
        out = tmp_path / "map.csv"
        side = tmp_path / "act.csv"
        assert main(analyze_args(clip, out, dump_activity=side)) == EXIT_OK
        lines = side.read_text().splitlines()
        assert lines[0].startswith("# perceptqp activity ")
        assert lines[1] == "frame,cu_x,cu_y,l,b,d,t_luma,t_cross"
        assert lines[2] == "0,0,0,1.0,1.0,1.0,1.0,3.0"

    def test_wrong_geometry_is_validation_error(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        out = tmp_path / "map.csv"
        fmt = VideoFormat(126, 64, 8, ChromaFormat.YUV420)
        assert main(analyze_args(clip, out, fmt=fmt)) == EXIT_VALIDATION
        assert "geometry" in capsys.readouterr().err

    def test_odd_width_is_validation_error(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        args = analyze_args(clip, tmp_path / "map.csv")
        args[args.index("--width") + 1] = "127"
        assert main(args) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_skip_beyond_input_is_validation_error(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv", count=2)
        assert main(analyze_args(clip, tmp_path / "o.csv", skip=2)) == EXIT_VALIDATION
        capsys.readouterr()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        args = analyze_args(tmp_path / "absent.yuv", tmp_path / "map.csv")
        assert main(args) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.yuv"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_illegal_slice_qp_is_validation_error(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        args = analyze_args(clip, tmp_path / "map.csv")
        args[args.index("--qp") + 1] = "99"
        assert main(args) == EXIT_VALIDATION
        capsys.readouterr()

    def test_huge_qp_range_is_validation_error(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        assert main(analyze_args(clip, tmp_path / "map.csv", qp_range=10000)) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


def compare_args(clip, out, fmt=FMT, mode_a="cbaq", mode_b="cbaq", **extra):
    args = [
        "compare",
        "--input", str(clip),
        "--width", str(fmt.width),
        "--height", str(fmt.height),
        "--chroma", fmt.chroma_format.value,
        "--qp", "32",
        "--mode-a", mode_a,
        "--mode-b", mode_b,
        "--output", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def count_activity_calls(monkeypatch):
    """Wrap cli.frame_activity so that each call appends its CU size to the returned list."""
    calls = []
    real = cli.frame_activity

    def counting(frame, cu_size):
        calls.append(cu_size)
        return real(frame, cu_size)

    monkeypatch.setattr(cli, "frame_activity", counting)
    return calls


class TestCompare:
    def test_self_comparison_is_all_zero(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in (1, 2)])
        out = tmp_path / "diff.csv"
        assert main(compare_args(clip, out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "frame,cu_x,cu_y,qp_a,qp_b,delta"
        assert all(line.endswith(",0") for line in lines[2:])
        assert capsys.readouterr().out.strip() == "delta=+0 count=4"

    def test_modes_agree_on_tiled_clip(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [tiled_frame()])
        out = tmp_path / "diff.csv"
        args = compare_args(clip, out, mode_a="adaptiveqp", mode_b="cbaq")
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.strip() == "delta=+0 count=2"
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert all(row[3] == row[4] == "32" for row in rows)

    def test_chroma_contrast_splits_modes(self, tmp_path, capsys):
        frame = chroma_contrast_frame()
        clip = write_clip(tmp_path / "in.yuv", [frame])
        out = tmp_path / "diff.csv"
        args = compare_args(clip, out, fmt=frame.format, mode_a="adaptiveqp", mode_b="cbaq")
        assert main(args) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert all(row[3] == "32" for row in rows)  # luma rule sees nothing
        deltas = [int(row[5]) for row in rows]
        # the busy-chroma CU pays more QP and, through the frame mean,
        # the quiet CUs gain some back
        assert max(deltas) > 0 > min(deltas)
        assert len(capsys.readouterr().out.strip().splitlines()) > 1

    def test_second_input_may_differ(self, tmp_path, capsys):
        clip_a = write_clip(tmp_path / "a.yuv", [random_frame(FMT, 9)])
        clip_b = write_clip(tmp_path / "b.yuv", [random_frame(FMT, 9)])
        out = tmp_path / "diff.csv"
        args = compare_args(clip_a, out, input_b=clip_b)
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.strip() == "delta=+0 count=2"

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


def dump_args(clip, out, fmt=FMT, **extra):
    args = [
        "dump-activity",
        "--input", str(clip),
        "--width", str(fmt.width),
        "--height", str(fmt.height),
        "--chroma", fmt.chroma_format.value,
        "--output", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.mark.parametrize(
    "make_args",
    [
        lambda clip, other, scratch: analyze_args(clip, clip),
        lambda clip, other, scratch: analyze_args(clip, scratch, dump_activity=clip),
        lambda clip, other, scratch: compare_args(clip, clip),
        lambda clip, other, scratch: compare_args(other, clip, input_b=clip),
        lambda clip, other, scratch: dump_args(clip, clip),
    ],
    ids=["analyze-output", "analyze-dump-activity", "compare-input", "compare-input-b", "dump-activity"],
)
def test_output_naming_an_input_is_refused(tmp_path, capsys, make_args):
    clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, 3)])
    other = write_clip(tmp_path / "other.yuv", [random_frame(FMT, 4)])
    before = clip.read_bytes()
    assert main(make_args(clip, other, tmp_path / "out.csv")) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert clip.read_bytes() == before


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
def test_shared_output_and_dump_activity_is_refused(tmp_path, capsys, exists):
    clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, 3)])
    (tmp_path / "sub").mkdir()
    out = tmp_path / "x.csv"
    if exists:
        out.write_text("keep me\n")
    alias = tmp_path / "sub" / ".." / "x.csv"
    for dump in (out, alias):
        assert main(analyze_args(clip, out, dump_activity=dump)) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err
        if exists:
            assert out.read_text() == "keep me\n"
        else:
            assert not out.exists()


TEN_BIT = VideoFormat(128, 64, 10, ChromaFormat.YUV420)


def ten_bit_clip(path, count, bad_frame=None, tail=b""):
    """count mid-grey 10-bit frames, a 1024 sample leading bad_frame, tail appended."""
    words = np.full((count, frame_bytes(TEN_BIT) // 2), 512, dtype="<u2")
    if bad_frame is not None:
        words[bad_frame, 0] = 1024
    path.write_bytes(words.tobytes() + tail)
    return path


def set_flags(args, **flags):
    """args with each --flag set to its value, replacing any value it already has."""
    args = list(args)
    for key, value in flags.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in args:
            args[args.index(flag) + 1] = str(value)
        else:
            args += [flag, str(value)]
    return args


def ten_bit_analyze(f, **flags):
    return set_flags(analyze_args(f["clip"], f["out"], fmt=TEN_BIT, bit_depth=10), **flags)


# One case per row of the README's precedence table: the row's fault plus the
# next row's, and what the error must name. The clip itself holds the last
# row's fault, a 10-bit sample of 1024 in frame 0.
PRECEDENCE = [
    ("usage", lambda f: ten_bit_analyze(f, format="xml", width=15), EXIT_USAGE, "invalid choice"),
    ("geometry", lambda f: ten_bit_analyze(f, width=15, qp=99), EXIT_VALIDATION, "width 15"),
    ("geometry-compare", lambda f: set_flags(
        compare_args(f["clip"], f["out"], fmt=TEN_BIT, bit_depth=10), width=15, qp=99),
     EXIT_VALIDATION, "width 15"),
    ("qp-rule", lambda f: ten_bit_analyze(f, qp=99, output=f["clip"]), EXIT_VALIDATION, "slice_qp 99"),
    ("output-is-input", lambda f: ten_bit_analyze(f, output=f["clip"], dump_activity=f["dir"]),
     EXIT_VALIDATION, "refusing"),
    ("output-unopenable", lambda f: ten_bit_analyze(f, output=f["dir"], input=f["absent"]),
     EXIT_IO, os.strerror(errno.EISDIR)),
    ("input-unopenable", lambda f: ten_bit_analyze(f, input=f["absent"], skip=-1),
     EXIT_IO, os.strerror(errno.ENOENT)),
    ("input-size", lambda f: ten_bit_analyze(f, input=f["ragged"], skip=-1),
     EXIT_VALIDATION, "not a multiple"),
    ("frame-range", lambda f: ten_bit_analyze(f, frames=3), EXIT_VALIDATION, "input has only 2"),
    ("frame-count", lambda f: set_flags(
        compare_args(f["clip"], f["out"], fmt=TEN_BIT, bit_depth=10), input_b=f["one"]),
     EXIT_VALIDATION, "differ in frame count"),
    ("sample-range", lambda f: ten_bit_analyze(f), EXIT_VALIDATION, "out of range"),
]


@pytest.mark.parametrize(
    "make_args, code, names", [case[1:] for case in PRECEDENCE], ids=[case[0] for case in PRECEDENCE]
)
def test_first_fault_in_precedence_order_wins(tmp_path, capsys, make_args, code, names):
    f = {
        "clip": ten_bit_clip(tmp_path / "in.yuv", 2, bad_frame=0),
        "one": ten_bit_clip(tmp_path / "one.yuv", 1),
        "ragged": ten_bit_clip(tmp_path / "ragged.yuv", 2, tail=b"\0"),
        "absent": tmp_path / "absent.yuv",
        "dir": tmp_path / "dir",
        "out": tmp_path / "out.csv",
    }
    f["dir"].mkdir()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    try:
        got = main(make_args(f))
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code
    assert names in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert sorted(tmp_path.rglob("*")) == sorted([*before, f["dir"]])


ANCHOR_POINTS = {
    "Y": [(22, RdPoint(8000.0, 36.5)), (27, RdPoint(4000.0, 35.0)),
          (32, RdPoint(2000.0, 33.0)), (37, RdPoint(1000.0, 30.0))],
    "Cb": [(22, RdPoint(900.0, 38.0)), (27, RdPoint(500.0, 36.0)),
           (32, RdPoint(260.0, 34.2)), (37, RdPoint(130.0, 32.1))],
}


def scaled_points(points, c):
    return {
        ch: [(qp, RdPoint(p.bitrate_kbps * c, p.psnr_db)) for qp, p in entries]
        for ch, entries in points.items()
    }


class TestBdrateCommand:
    def test_identical_curves_report_zero(self, tmp_path, capsys):
        anchor = tmp_path / "anchor.csv"
        anchor.write_bytes(rd_csv_bytes([("anchor", ANCHOR_POINTS)]))
        test = tmp_path / "test.csv"
        test.write_bytes(rd_csv_bytes([("test", ANCHOR_POINTS)]))
        assert main(["bdrate", "--anchor", str(anchor), "--test", str(test)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "channel,bd_rate_pct,bd_psnr_db"
        assert [line.split(",")[0] for line in lines[1:]] == ["Y", "Cb"]
        for line in lines[1:]:
            _, rate, quality = line.split(",")
            assert float(rate) == pytest.approx(0.0, abs=1e-6)
            assert float(quality) == pytest.approx(0.0, abs=1e-6)

    def test_ten_percent_rate_increase(self, tmp_path, capsys):
        anchor = tmp_path / "anchor.csv"
        anchor.write_bytes(rd_csv_bytes([("anchor", {"Y": ANCHOR_POINTS["Y"]})]))
        test = tmp_path / "test.csv"
        test.write_bytes(rd_csv_bytes([("test", scaled_points({"Y": ANCHOR_POINTS["Y"]}, 1.10))]))
        assert main(["bdrate", "--anchor", str(anchor), "--test", str(test)]) == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[1]
        channel, rate, quality = line.split(",")
        assert channel == "Y"
        assert float(rate) == pytest.approx(10.0, abs=1e-4)
        assert float(quality) < 0.0  # more bits for the same quality

    def test_overflowing_bd_rate_is_validation_error(self, tmp_path, capsys):
        # rates 600 decades apart: the BD-Rate ratio 10**600 overflows a float
        def rd_file(name, scale):
            points = [(42 - 5 * k, RdPoint(k * scale, 29.0 + k)) for k in range(1, 5)]
            path = tmp_path / f"{name}.csv"
            path.write_bytes(rd_csv_bytes([(name, {"Y": points})]))
            return path

        anchor, test = rd_file("anchor", 1e-300), rd_file("test", 1e300)
        args = ["bdrate", "--anchor", str(anchor), "--test", str(test)]
        assert main(args) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: BD-Rate")

    def test_huge_psnrs_are_validation_error_without_lapack_noise(self, tmp_path, capfd):
        def rd_file(name, base):
            points = [(42 - 5 * k, RdPoint(100.0 * k, base + 1e300 * (k - 1))) for k in range(1, 5)]
            path = tmp_path / f"{name}.csv"
            path.write_bytes(rd_csv_bytes([(name, {"Y": points})]))
            return path

        anchor, test = rd_file("anchor", 1e300), rd_file("test", 1.5e300)
        args = ["bdrate", "--anchor", str(anchor), "--test", str(test)]
        assert main(args) == EXIT_VALIDATION
        out, err = capfd.readouterr()
        assert out == "channel,bd_rate_pct,bd_psnr_db\n"
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversized_field_is_validation_error(self, tmp_path, capfd):
        label = "x" * (csv.field_size_limit() + 1)
        anchor = tmp_path / "anchor.csv"
        anchor.write_bytes(rd_csv_bytes([(label, {"Y": ANCHOR_POINTS["Y"]})]))
        assert main(["bdrate", "--anchor", str(anchor), "--test", str(anchor)]) == EXIT_VALIDATION
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: bad RD CSV") and err.count("\n") == 1

    def test_no_common_channel_is_validation_error(self, tmp_path, capsys):
        anchor, test = tmp_path / "anchor.csv", tmp_path / "test.csv"
        anchor.write_bytes(rd_csv_bytes([("anchor", {"Y": ANCHOR_POINTS["Y"]})]))
        test.write_bytes(rd_csv_bytes([("test", {"Cb": ANCHOR_POINTS["Cb"]})]))
        assert main(["bdrate", "--anchor", str(anchor), "--test", str(test)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "no common channels" in err

    def test_multi_label_file_is_validation_error(self, tmp_path, capsys):
        both = rd_csv_bytes(
            [("a", {"Y": ANCHOR_POINTS["Y"]}), ("b", {"Y": ANCHOR_POINTS["Y"]})]
        )
        anchor = tmp_path / "anchor.csv"
        anchor.write_bytes(both)
        assert main(["bdrate", "--anchor", str(anchor), "--test", str(anchor)]) == EXIT_VALIDATION
        assert "single label" in capsys.readouterr().err


class TestDumpActivity:
    def test_constant_clip_activity(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv", count=1)
        out = tmp_path / "act.csv"
        args = [
            "dump-activity",
            "--input", str(clip),
            "--width", "128",
            "--height", "64",
            "--output", str(out),
        ]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.strip() == "frames=1 cus_per_frame=2"
        lines = out.read_text().splitlines()
        assert lines[1] == "frame,cu_x,cu_y,l,b,d,t_luma,t_cross"
        assert lines[2:] == ["0,0,0,1.0,1.0,1.0,1.0,3.0", "0,64,0,1.0,1.0,1.0,1.0,3.0"]

    def test_matches_analyze_sidecar(self, tmp_path):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, 31)])
        direct = tmp_path / "direct.csv"
        sidecar = tmp_path / "side.csv"
        args = [
            "dump-activity",
            "--input", str(clip),
            "--width", "128",
            "--height", "64",
            "--cu-size", "32",
            "--output", str(direct),
        ]
        assert main(args) == EXIT_OK
        assert main(analyze_args(clip, tmp_path / "m.csv", cu_size=32, dump_activity=sidecar)) == EXIT_OK
        assert direct.read_text() == sidecar.read_text()


class TestStreaming:
    """One decoded frame at a time, rows written as they come, outputs moved in at the end."""

    def test_streamed_outputs_equal_whole_clip_renderers(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(4)])
        csv_out, json_out, side = tmp_path / "m.csv", tmp_path / "m.json", tmp_path / "a.csv"
        assert main(analyze_args(clip, csv_out, skip=1, cu_size=32, dump_activity=side)) == EXIT_OK
        assert main(analyze_args(clip, json_out, skip=1, cu_size=32, format="json")) == EXIT_OK
        capsys.readouterr()
        config = QpConfig(slice_qp=32, mode=Mode.CBAQ, cu_size=32)
        activities = [(i, frame_activity(f, 32)) for i, f in cli.load_frames(clip, FMT, 1, None)]
        maps = [qp_map_from_activity(FMT, act, config, frame_index=i) for i, act in activities]
        assert [m.frame_index for m in maps] == [1, 2, 3]
        assert csv_out.read_text() == cli.qp_maps_csv(maps, FMT)
        assert json_out.read_text() == cli.qp_maps_json(maps, FMT)
        assert side.read_text() == cli.activity_csv(activities, FMT, 32)
        payload = {
            "config": dict(cli._echo_items(FMT, config)),
            "frames": [
                {"frame": m.frame_index, "cols": m.cols, "rows": m.rows, "qp": list(map(list, m.qps))}
                for m in maps
            ],
        }
        assert json_out.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_long_output_name_is_written(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
        short, long = tmp_path / "m.csv", tmp_path / ("m" * 246 + ".csv")
        assert main(analyze_args(clip, short, dump_activity=tmp_path / "a.csv")) == EXIT_OK
        assert main(analyze_args(clip, long, dump_activity=tmp_path / ("a" * 250))) == EXIT_OK
        capsys.readouterr()
        assert long.read_bytes() == short.read_bytes()
        assert (tmp_path / ("a" * 250)).read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".partial")]

    def test_stale_partial_file_is_left_alone(self, tmp_path, capsys):
        clip = write_clip(tmp_path / "in.yuv", [random_frame(FMT, s) for s in range(2)])
        (tmp_path / "fresh").mkdir()
        fresh = tmp_path / "fresh" / "m.csv"
        assert main(analyze_args(clip, fresh, dump_activity=fresh.with_name("a.csv"))) == EXIT_OK
        # What a run killed by SIGKILL leaves behind, under a PID this run now holds.
        stale = [tmp_path / f".perceptqp.{os.getpid()}.{k}.partial" for k in (0, 1)]
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

    @pytest.mark.parametrize("command", ["analyze", "compare", "dump-activity"])
    def test_failed_run_leaves_existing_outputs_untouched(self, tmp_path, capsys, command):
        fmt = VideoFormat(128, 64, 10, ChromaFormat.YUV420)
        clip = tmp_path / "in.yuv"
        with open(clip, "wb") as sink:
            for seed in (1, 2):
                write_frame(sink, random_frame(fmt, seed))
            last = np.full(frame_bytes(fmt) // 2, 512, dtype="<u2")
            last[-1] = 1024  # not a 10-bit sample
            sink.write(last.tobytes())
        out, side = tmp_path / "out.csv", tmp_path / "side.csv"
        out.write_text("old output\n")
        side.write_text("old sidecar\n")
        args = {
            "analyze": analyze_args(clip, out, fmt=fmt, bit_depth=10, dump_activity=side),
            "compare": compare_args(clip, out, fmt=fmt, bit_depth=10),
            "dump-activity": dump_args(clip, out, fmt=fmt, bit_depth=10),
        }[command]
        assert main(args) == EXIT_VALIDATION
        assert "out of range" in capsys.readouterr().err
        assert out.read_text() == "old output\n"
        assert side.read_text() == "old sidecar\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.yuv", "out.csv", "side.csv"]

    def test_unwritable_sidecar_leaves_output_untouched(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        out = tmp_path / "map.csv"
        out.write_text("old output\n")
        args = analyze_args(clip, out, dump_activity=tmp_path / "absent" / "act.csv")
        assert main(args) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert out.read_text() == "old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.yuv", "map.csv"]

    def test_output_directory_leaves_sidecar_untouched(self, tmp_path, capsys):
        clip = constant_clip(tmp_path / "in.yuv")
        (tmp_path / "map.csv").mkdir()
        side = tmp_path / "act.csv"
        side.write_text("old sidecar\n")
        assert main(analyze_args(clip, tmp_path / "map.csv", dump_activity=side)) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert side.read_text() == "old sidecar\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["act.csv", "in.yuv", "map.csv"]

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


NUMERIC_FLAGS = ("--width", "--height", "--skip", "--frames", "--qp", "--qp-range", "--cu-size")


@st.composite
def tiny_clips(draw):
    """A clip of at most 600 bytes and its geometry, maybe truncated, emptied or out of range."""
    fmt = draw(video_formats(max_dim=8))
    count = draw(st.integers(0, 600 // frame_bytes(fmt)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, fmt.max_sample + 1, size=count * frame_bytes(fmt) // fmt.bytes_per_sample)
    data = bytearray(samples.astype("<u2" if fmt.bit_depth == 10 else np.uint8).tobytes())
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
    """Valid RD CSVs, one with an oversized field, a truncated one and arbitrary bytes."""
    valid = rd_csv_bytes([("run", ANCHOR_POINTS)])
    return st.one_of(
        st.just(valid),
        st.just(rd_csv_bytes([("run", scaled_points(ANCHOR_POINTS, 1.1))])),
        st.just(rd_csv_bytes([("x" * (csv.field_size_limit() + 1), ANCHOR_POINTS)])),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
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
def test_every_argv_ends_in_a_documented_exit_code(run):
    files, kind, argv = run
    with tempfile.TemporaryDirectory() as scratch:
        paths = {name: os.path.join(scratch, name) for name in ("out", "side", "other", *files)}
        for name, data in files.items():
            with open(paths[name], "wb") as sink:
                sink.write(data)
        stale = os.path.join(scratch, f".perceptqp.{os.getpid()}.0.partial")
        if kind == "symlink-loop":
            os.symlink("out", paths["out"])
        elif kind == "directory":
            os.mkdir(paths["out"])
        elif kind == "stale-partial":
            with open(stale, "w") as sink:
                sink.write("left by a killed run\n")
        try:
            code = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        # Whatever the outcome, no partial file is left but one the run did not make.
        partials = [name for name in os.listdir(scratch) if name.endswith(".partial")]
        assert partials == ([os.path.basename(stale)] if kind == "stale-partial" else [])
        if kind == "stale-partial":
            with open(stale) as source:
                assert source.read() == "left by a killed run\n"
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_IO)

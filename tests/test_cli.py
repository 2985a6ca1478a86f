"""End-to-end CLI behaviour: every subcommand through cli.main."""

import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from perceptqp import (
    ChromaFormat,
    Frame,
    Mode,
    Plane,
    QpConfig,
    RdPoint,
    VideoFormat,
    emit_rd_csv,
    frame_activity,
    frame_bytes,
    qp_map_from_activity,
    write_frame,
)
from perceptqp import cli
from perceptqp.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from perceptqp.metrics import rd_csv_bytes
from strategies import random_frame

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
        anchor.write_bytes(emit_rd_csv("anchor", ANCHOR_POINTS))
        test = tmp_path / "test.csv"
        test.write_bytes(emit_rd_csv("test", ANCHOR_POINTS))
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
        anchor.write_bytes(emit_rd_csv("anchor", {"Y": ANCHOR_POINTS["Y"]}))
        test = tmp_path / "test.csv"
        test.write_bytes(emit_rd_csv("test", scaled_points({"Y": ANCHOR_POINTS["Y"]}, 1.10)))
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
            path.write_bytes(emit_rd_csv(name, {"Y": points}))
            return path

        anchor, test = rd_file("anchor", 1e-300), rd_file("test", 1e300)
        args = ["bdrate", "--anchor", str(anchor), "--test", str(test)]
        assert main(args) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: BD-Rate")

    def test_huge_psnrs_are_validation_error_without_lapack_noise(self, tmp_path, capfd):
        def rd_file(name, base):
            points = [(42 - 5 * k, RdPoint(100.0 * k, base + 1e300 * (k - 1))) for k in range(1, 5)]
            path = tmp_path / f"{name}.csv"
            path.write_bytes(emit_rd_csv(name, {"Y": points}))
            return path

        anchor, test = rd_file("anchor", 1e300), rd_file("test", 1.5e300)
        args = ["bdrate", "--anchor", str(anchor), "--test", str(test)]
        assert main(args) == EXIT_VALIDATION
        out, err = capfd.readouterr()
        assert out == "channel,bd_rate_pct,bd_psnr_db\n"
        assert err.startswith("error: ") and err.count("\n") == 1

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

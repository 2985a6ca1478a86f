"""End-to-end CLI behaviour: every subcommand through cli.main."""

import json

import numpy as np
import pytest

from perceptqp import ChromaFormat, Frame, Plane, RdPoint, VideoFormat, emit_rd_csv, write_frame
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
        calls = []
        real = cli.frame_activity

        def counting(frame, cu_size):
            calls.append(cu_size)
            return real(frame, cu_size)

        monkeypatch.setattr(cli, "frame_activity", counting)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(compare_args(clip, one, mode_a="adaptiveqp", mode_b="cbaq")) == EXIT_OK
        assert len(calls) == frames
        args = compare_args(clip, two, mode_a="adaptiveqp", mode_b="cbaq", input_b=clip)
        assert main(args) == EXIT_OK
        assert len(calls) == 3 * frames
        assert one.read_bytes() == two.read_bytes()
        capsys.readouterr()

    def test_frame_count_mismatch_is_validation_error(self, tmp_path, capsys):
        clip_a = write_clip(tmp_path / "a.yuv", [random_frame(FMT, 1)] * 2)
        clip_b = write_clip(tmp_path / "b.yuv", [random_frame(FMT, 1)])
        args = compare_args(clip_a, tmp_path / "d.csv", input_b=clip_b)
        assert main(args) == EXIT_VALIDATION
        assert "frame count" in capsys.readouterr().err


def dump_args(clip, out, fmt=FMT):
    return [
        "dump-activity",
        "--input", str(clip),
        "--width", str(fmt.width),
        "--height", str(fmt.height),
        "--output", str(out),
    ]


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

"""The CLI's argv matrix: a fixed, seeded corpus of raw clips and RD CSVs, and the argv run on it.

Every run starts in the same fresh directory, which holds an existing
output `old.csv` and a directory `dir`, with the corpus beside it in
`../corpus`, and must leave both as it found them.
tests/test_cli_matrix.py pins each argv once: a clip command that
succeeds against tests/cli_oracle.py, any other by its row of OUTCOMES.
The clip commands are the suite's only fixed clip cases, and between
them they give every option and choice. `run` runs a
closed-stdout argv in a child, as `python -m perceptqp.cli` with this
checkout's src first on PYTHONPATH, since a run in process cannot start
with fd 1 closed.
"""

from __future__ import annotations

import codecs
import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Paths in the argv are relative to the run directory, so messages that name them do
# not depend on where the corpus is built.
CORPUS = "../corpus"
OLD_OUTPUT = b"old output\n"
FRAMES = 3


class Clip(NamedTuple):
    name: str
    width: int
    height: int
    chroma: str
    bit_depth: int

    @property
    def flags(self) -> list[str]:
        return [
            "--input", f"{CORPUS}/{self.name}.yuv", "--width", str(self.width),
            "--height", str(self.height), "--bit-depth", str(self.bit_depth), "--chroma", self.chroma,
        ]  # fmt: skip


# 72x40 and 200x130 clip the last CU row and column at every CU size.
CLIPS = [
    Clip(f"c{chroma}-{depth}-{width}x{height}", width, height, chroma, depth)
    for width, height in ((72, 40), (200, 130))
    for chroma in ("420", "422", "444")
    for depth in (8, 10)
]
# 66x34 4:2:0: the last CU column is 2 luma samples wide at every CU size and the
# last CU row 2 tall at CU 16 and 32, so their chroma blocks are 1 sample across,
# with an empty right or bottom quadrant half.
NARROW = [Clip(f"c420-{depth}-66x34", 66, 34, "420", depth) for depth in (8, 10)]
SMALL = CLIPS[0]  # 4:2:0, 8-bit, 72x40
LARGE = CLIPS[9]  # 4:2:2, 10-bit, 200x130
# At CU 16 the last CU column is 14 wide, so its 7x8 quadrants have variances
# that are not dyadic, and the frame means depend on the order of their fold.
FOLD = Clip("fold-444-10-190x122", 190, 122, "444", 10)
# 10-bit 4:2:0 72x40: ILLEGAL's last Cr sample of its last frame is 1024;
# FIRST_FRAME's last luma sample of its first frame is 1024, so the range error
# names frame 0, and NO_LEGAL's first frame has a Cr plane of 1024s only;
# FIRST_STRIP's last frame has a 1024 in its first luma strip, so the error
# is raised on that strip, before any is analysed; RAGGED ends half way
# through its third frame.
ILLEGAL = Clip("illegal-420-10-72x40", 72, 40, "420", 10)
FIRST_FRAME = ILLEGAL._replace(name="first-frame-420-10-72x40")
FIRST_STRIP = ILLEGAL._replace(name="first-strip-420-10-72x40")
NO_LEGAL = ILLEGAL._replace(name="no-legal-420-10-72x40")
RAGGED = ILLEGAL._replace(name="ragged-420-10-72x40")
EMPTY = SMALL._replace(name="empty-420-8-72x40")  # no bytes at all
ABSENT = f"{CORPUS}/absent.yuv"


def plane_shapes(clip: Clip) -> list[tuple[int, int]]:
    sub_x = 1 if clip.chroma == "444" else 2
    sub_y = 2 if clip.chroma == "420" else 1
    return [(clip.height, clip.width)] + [(clip.height // sub_y, clip.width // sub_x)] * 2


def clip_samples(clip: Clip, frames: int, seed: int) -> np.ndarray:
    """frames of noise whose amplitude grows to the right, under a flat top-left quarter.

    The quarter's level drifts per frame, so CUs span flat to busy and
    frames differ.
    """
    rng = np.random.default_rng(seed)
    peak = (1 << clip.bit_depth) - 1
    planes = []
    for index in range(frames):
        for rows, cols in plane_shapes(clip):
            half_range = (np.arange(cols) + 1) * (peak // 2) // cols
            plane = peak // 2 + rng.integers(-half_range, half_range + 1, size=(rows, cols))
            plane[: rows // 2, : cols // 2] = (peak // 3 + 5 * index) % (peak + 1)
            planes.append(plane.ravel())
    return np.concatenate(planes)


def clip_bytes(clip: Clip, samples: np.ndarray) -> bytes:
    return samples.astype(np.uint8 if clip.bit_depth == 8 else "<u2").tobytes()


# (qp, bitrate_kbps, psnr_db) per channel.
ANCHOR_CURVES = {
    "Y": [(22, 8000.0, 36.5), (27, 4000.0, 35.0), (32, 2000.0, 33.0), (37, 1000.0, 30.0)],
    "Cb": [(22, 900.0, 38.0), (27, 500.0, 36.0), (32, 260.0, 34.2), (37, 130.0, 32.1)],
    "Cr": [(22, 850.0, 39.1), (27, 470.0, 37.2), (32, 250.0, 35.0), (37, 120.0, 33.3)],
}


def scaled(curves: dict, rate: float = 1.0, psnr: float = 0.0) -> dict:
    return {
        channel: [(qp, kbps * rate, db + psnr) for qp, kbps, db in points]
        for channel, points in curves.items()
    }


def rd_csv(label: str, curves: dict) -> bytes:
    rows = ["label,channel,qp,bitrate_kbps,psnr_db"] + [
        f"{label},{channel},{qp},{kbps!r},{db!r}"
        for channel, points in curves.items()
        for qp, kbps, db in points
    ]
    return ("\n".join(rows) + "\n").encode()


# Cb 100 dB above the anchor's: the two Cb curves share no PSNR span.
CB_APART = scaled(ANCHOR_CURVES, psnr=100.0)["Cb"]
# Y PSNRs of 1e300 to 4e300, rising with the bitrate.
HUGE_PSNR = {"Y": [(42 - 5 * k, 100.0 * k, k * 1e300) for k in range(1, 5)]}
ANCHOR_ROWS = rd_csv("anchor", ANCHOR_CURVES).splitlines(keepends=True)
RD_FILES = {
    "anchor": rd_csv("anchor", ANCHOR_CURVES),
    # The header, then anchor's rows in an order sorted by neither QP nor bitrate.
    "anchor-shuffled": b"".join(ANCHOR_ROWS[:1] + ANCHOR_ROWS[2::2] + ANCHOR_ROWS[1::2]),
    "test": rd_csv("test", {
        "Y": scaled(ANCHOR_CURVES, 1.1)["Y"],
        "Cb": scaled(ANCHOR_CURVES, 0.9, 0.2)["Cb"],
        "Cr": scaled(ANCHOR_CURVES, 1.02, -0.1)["Cr"],
    }),
    "y-only": rd_csv("y", {"Y": ANCHOR_CURVES["Y"]}),
    "cb-only": rd_csv("cb", {"Cb": ANCHOR_CURVES["Cb"]}),
    "three": rd_csv("three", {"Y": ANCHOR_CURVES["Y"][:3]}),
    "cb-apart": rd_csv("apart", {"Y": ANCHOR_CURVES["Y"], "Cb": CB_APART}),
    # Y starts at the anchor's top PSNR: the curves share one point, an empty span.
    "y-touching": rd_csv("touch", {"Y": scaled(ANCHOR_CURVES, psnr=6.5)["Y"]}),
    # Y rates 600 decades apart overflow the BD-Rate ratio and leave Y's BD-PSNR,
    # computed next, no shared rate span; Cb, computed after Y, has no shared PSNR span.
    "y-low": rd_csv("low", {**scaled({"Y": ANCHOR_CURVES["Y"]}, 1e-300), "Cb": ANCHOR_CURVES["Cb"]}),
    "y-high": rd_csv("high", {**scaled({"Y": ANCHOR_CURVES["Y"]}, 1e300), "Cb": CB_APART}),
    "two-labels": rd_csv("a", ANCHOR_CURVES) + rd_csv("b", ANCHOR_CURVES).split(b"\n", 1)[1],
    "truncated": rd_csv("anchor", ANCHOR_CURVES)[:100],
    # As a spreadsheet's "CSV UTF-8" export writes it.
    "anchor-bom": codecs.BOM_UTF8 + rd_csv("anchor", ANCHOR_CURVES),
    # The anchor with its first bitrate not a number.
    "bad-rate": rd_csv("anchor", ANCHOR_CURVES).replace(b",8000.0,", b",x,"),
    # The anchor with its first QP not an integer.
    "qp-not-int": rd_csv("anchor", ANCHOR_CURVES).replace(b",22,8000.0,", b",2.5,8000.0,"),
    # Y's top-rate point below the others' PSNR.
    "y-not-monotone": rd_csv("bumpy", {"Y": ANCHOR_CURVES["Y"][1:] + [(22, 8000.0, 29.0)]}),
    # The anchor's rows by rising bitrate, the channels interleaved.
    "anchor-rising": b"".join(
        ANCHOR_ROWS[:1] + sorted(ANCHOR_ROWS[1:], key=lambda row: float(row.split(b",")[3]))
    ),
    # A label one character longer than the csv module's default field limit of 131072.
    "oversized-label": rd_csv("x" * 131073, {"Y": ANCHOR_CURVES["Y"]}),
    # PSNRs near 1e300: the cubic fit of either curve overflows.
    "huge-psnr-anchor": rd_csv("anchor", HUGE_PSNR),
    "huge-psnr-test": rd_csv("test", scaled(HUGE_PSNR, psnr=5e299)),
    # Channel names that would break the bdrate table's one line of three fields.
    "channel-comma": rd_csv("comma", {'"Y,Z"': ANCHOR_CURVES["Y"]}),
    "channel-line-break": rd_csv("break", {'"Y\nZ"': ANCHOR_CURVES["Y"][:3]}),
}


def build_corpus(corpus: Path) -> None:
    corpus.mkdir()
    for seed, clip in enumerate(CLIPS + NARROW):
        (corpus / f"{clip.name}.yuv").write_bytes(clip_bytes(clip, clip_samples(clip, FRAMES, seed)))
    illegal = clip_samples(ILLEGAL, FRAMES, 101)
    illegal[-1] = 1024
    (corpus / f"{ILLEGAL.name}.yuv").write_bytes(clip_bytes(ILLEGAL, illegal))
    luma, chroma = (rows * cols for rows, cols in plane_shapes(ILLEGAL)[:2])
    first_frame = clip_samples(FIRST_FRAME, FRAMES, 104)
    first_frame[luma - 1] = 1024
    (corpus / f"{FIRST_FRAME.name}.yuv").write_bytes(clip_bytes(FIRST_FRAME, first_frame))
    no_legal = clip_samples(NO_LEGAL, FRAMES, 105)
    no_legal[luma + chroma : luma + 2 * chroma] = 1024
    (corpus / f"{NO_LEGAL.name}.yuv").write_bytes(clip_bytes(NO_LEGAL, no_legal))
    first_strip = clip_samples(FIRST_STRIP, FRAMES, 106)
    first_strip[(FRAMES - 1) * (luma + 2 * chroma) + 5] = 1024
    (corpus / f"{FIRST_STRIP.name}.yuv").write_bytes(clip_bytes(FIRST_STRIP, first_strip))
    ragged = clip_bytes(RAGGED, clip_samples(RAGGED, FRAMES, 103))
    (corpus / f"{RAGGED.name}.yuv").write_bytes(ragged[: len(ragged) * 5 // 6])
    (corpus / f"{EMPTY.name}.yuv").write_bytes(b"")
    (corpus / f"{FOLD.name}.yuv").write_bytes(clip_bytes(FOLD, clip_samples(FOLD, FRAMES, 107)))
    for name, data in RD_FILES.items():
        (corpus / f"{name}.csv").write_bytes(data)


class Case(NamedTuple):
    name: str
    argv: list[str]
    closed_stdout: bool = False


def analyze(clip: Clip, *flags: str, cu: int = 16) -> list[str]:
    return ["analyze", *clip.flags, "--cu-size", str(cu), "--qp", "32", "--mode", "cbaq",
            "--output", "map.csv", *flags]  # fmt: skip


def compare(clip: Clip, *flags: str, cu: int = 16) -> list[str]:
    return ["compare", *clip.flags, "--cu-size", str(cu), "--qp", "32", "--mode-a", "adaptiveqp",
            "--mode-b", "cbaq", "--output", "cmp.csv", *flags]  # fmt: skip


def dump(clip: Clip, *flags: str, cu: int = 16) -> list[str]:
    return ["dump-activity", *clip.flags, "--cu-size", str(cu), "--output", "act.csv", *flags]


def bdrate(anchor: str, test: str) -> list[str]:
    return ["bdrate", "--anchor", anchor, "--test", test]


def rd(name: str) -> str:
    return f"{CORPUS}/{name}.csv"


# One flag set per knob of analyze, run on a small and a large clip.
ANALYZE_VARIANTS = {
    "adaptiveqp": ["--mode", "adaptiveqp"],
    "json": ["--format", "json", "--output", "map.json"],
    "json-sidecar": ["--format", "json", "--output", "map.json", "--dump-activity", "act.csv"],
    # The sidecar makes the run analyse chroma, which the adaptiveqp map must not read.
    "adaptiveqp-sidecar": ["--mode", "adaptiveqp", "--dump-activity", "act.csv"],
    "adaptiveqp-json-sidecar": [
        "--mode", "adaptiveqp", "--format", "json", "--output", "map.json", "--dump-activity", "act.csv"
    ],  # fmt: skip
    "ceiling": ["--rounding", "ceiling"],
    "t-luma": ["--t-mode", "luma"],
    "range0": ["--qp-range", "0"],
    "range51": ["--qp-range", "51"],
    "qp0": ["--qp", "0"],
    "qp51": ["--qp", "51"],
    "skip1-frames1": ["--skip", "1", "--frames", "1"],
    "skip2": ["--skip", "2"],
    "frames2": ["--frames", "2"],
    "stdout": ["--output", "/dev/stdout"],
    "stdout-sidecar": ["--output", "/dev/stdout", "--dump-activity", "act.csv"],
    # The activity rows on stdout, the summary on stderr.
    "sidecar-stdout": ["--dump-activity", "/dev/stdout"],
}

# The fault rows of the README's precedence table: each argv holds its row's
# fault and the next row's, and ILLEGAL holds the last row's fault.
PRECEDENCE = {
    "usage": analyze(ILLEGAL, "--format", "xml", "--width", "15"),
    "geometry": analyze(ILLEGAL, "--width", "15", "--qp", "99"),
    "geometry-compare": compare(ILLEGAL, "--width", "15", "--qp", "99"),
    "qp-rule": analyze(ILLEGAL, "--qp", "99", "--output", f"{CORPUS}/{ILLEGAL.name}.yuv"),
    "output-is-input": analyze(
        ILLEGAL, "--output", f"{CORPUS}/{ILLEGAL.name}.yuv", "--dump-activity", "dir"
    ),
    "output-is-dash": analyze(ILLEGAL, "--output", "-", "--dump-activity", "dir"),
    "dump-is-dash": analyze(ILLEGAL, "--dump-activity", "-", "--output", "dir"),
    "outputs-are-stdout-and-stderr": analyze(
        ILLEGAL, "--output", "/dev/stdout", "--dump-activity", "/dev/stderr", "--input", ABSENT
    ),
    "outputs-are-stderr-and-stdout": analyze(
        ILLEGAL, "--output", "/dev/stderr", "--dump-activity", "/dev/stdout", "--input", ABSENT
    ),
    "output-unopenable": analyze(ILLEGAL, "--output", "dir", "--input", ABSENT),
    "input-unopenable": analyze(ILLEGAL, "--input", ABSENT, "--skip", "-1"),
    "input-size": analyze(ILLEGAL, "--input", f"{CORPUS}/{RAGGED.name}.yuv", "--skip", "-1"),
    "frame-range": analyze(ILLEGAL, "--skip", "1", "--frames", str(FRAMES)),
    "sample-range": analyze(ILLEGAL),
    "bdrate-usage": bdrate(ABSENT, rd("anchor")) + ["--qp", "32"],
    "bdrate-anchor-unopenable": bdrate(ABSENT, rd("anchor")),
    "bdrate-anchor-rd-csv": bdrate(rd("three"), ABSENT),
    "bdrate-channel-order": bdrate(rd("y-low"), rd("y-high")),
}

BDRATE_PAIRS = {
    "valid": ("anchor", "test"),
    "reversed": ("test", "anchor"),
    "same": ("anchor", "anchor"),
    "y-shared": ("anchor", "y-only"),
    "no-common": ("y-only", "cb-only"),
    "three-points": ("anchor", "three"),
    "cb-apart": ("anchor", "cb-apart"),
    "cb-apart-reversed": ("cb-apart", "anchor"),
    "y-touching": ("anchor", "y-touching"),
    "overflow": ("y-low", "y-high"),
    "two-labels": ("two-labels", "anchor"),
    "truncated": ("anchor", "truncated"),
    "bom": ("anchor-bom", "test"),
    "shuffled": ("anchor-shuffled", "test"),
    "bad-rate": ("bad-rate", "test"),
    "qp-not-int": ("qp-not-int", "test"),
    "y-not-monotone": ("anchor", "y-not-monotone"),
    "rising": ("anchor-rising", "test"),
    "oversized-label": ("oversized-label", "anchor"),
    "huge-psnr": ("huge-psnr-anchor", "huge-psnr-test"),
    "channel-comma": ("channel-comma", "channel-comma"),
    "channel-line-break": ("channel-line-break", "anchor"),
}


def matrix() -> list[Case]:
    cases = [
        Case(f"analyze-{clip.name}-cu{cu}", analyze(clip, "--dump-activity", "act.csv", cu=cu))
        for clip in CLIPS + NARROW
        for cu in (16, 32, 64)
    ]
    cases += [
        Case(f"analyze-{clip.name}-{variant}", analyze(clip, *flags))
        for clip in (SMALL, LARGE)
        for variant, flags in ANALYZE_VARIANTS.items()
    ]
    cases += [Case(f"compare-{clip.name}-cu32", compare(clip, cu=32)) for clip in CLIPS[6:]]
    cases += [
        Case(f"compare-{clip.name}-cu{cu}", compare(clip, cu=cu)) for clip in NARROW for cu in (16, 32, 64)
    ]
    # Both rules cbaq: two QP maps from one activity pass, so a rule that wrote
    # into the shared cross sum would change the other's map on the clipped edges.
    cases += [
        Case(f"compare-{clip.name}-cbaq-cu{cu}", compare(
            clip, "--mode-a", "cbaq", "--t-mode-a", "luma", "--rounding-b", "ceiling", cu=cu))
        for clip in NARROW
        for cu in (16, 32, 64)
    ]  # fmt: skip
    cases += [
        Case(f"compare-{SMALL.name}-rules", compare(
            SMALL, "--mode-a", "cbaq", "--rounding-a", "ceiling", "--t-mode-b", "luma", cu=64)),
        Case(f"compare-{SMALL.name}-range12-qp40", compare(SMALL, "--qp-range", "12", "--qp", "40")),
        Case(f"compare-{SMALL.name}-skip1", compare(SMALL, "--skip", "1")),
    ]  # fmt: skip
    cases += [Case(f"dump-{clip.name}-cu16", dump(clip)) for clip in CLIPS + [FOLD]]
    cases += [
        Case(f"dump-{LARGE.name}-skip1-frames2-cu64", dump(LARGE, "--skip", "1", "--frames", "2", cu=64)),
        Case(f"dump-{NARROW[1].name}-cu32", dump(NARROW[1], cu=32)),
    ]
    # Flag combinations that no loop above gives. The JSON frames keep their
    # clip's index under --skip, and output names of 250 characters, near the
    # file system's limit of 255, are written, as their partial names are short.
    cases += [
        Case(f"analyze-{CLIPS[6].name}-json-skip1-frames1", analyze(
            CLIPS[6], "--skip", "1", "--frames", "1", "--qp", "0", "--qp-range", "51", "--t-mode", "luma",
            "--rounding", "ceiling", "--format", "json", "--output", "map.json")),
        Case(f"analyze-{CLIPS[3].name}-cu32-qp51-range0-sidecar", analyze(
            CLIPS[3], "--qp", "51", "--qp-range", "0", "--t-mode", "cross", "--rounding", "nearest",
            "--dump-activity", "act.csv", cu=32)),
        Case(f"analyze-{SMALL.name}-long-names", analyze(
            SMALL, "--output", "m" * 246 + ".csv", "--dump-activity", "a" * 250)),
        Case(f"compare-{SMALL.name}-qp51-range51", compare(
            SMALL, "--qp", "51", "--qp-range", "51", "--t-mode-b", "luma", "--rounding-b", "ceiling")),
        Case(f"compare-{LARGE.name}-frames2-cbaq-adaptiveqp", compare(
            LARGE, "--frames", "2", "--mode-a", "cbaq", "--mode-b", "adaptiveqp")),
    ]  # fmt: skip
    # A 72x40 clip's bytes declared as 48x60, 144x20 and 24x120, as many samples a
    # frame: at CU 64 a map of one CU, one row of three and one column of two. One
    # clip of each chroma format, analysed as JSON and as CSV with its sidecar, and compared.
    declared = [
        (clip, clip._replace(width=width, height=height), f"as-{width}x{height}-cu64")
        for clip in (SMALL, CLIPS[3], CLIPS[5])
        for width, height in ((48, 60), (144, 20), (24, 120))
    ]
    kinds = {"json": ["--format", "json", "--output", "map.json"], "sidecar": ["--dump-activity", "act.csv"]}
    cases += [
        Case(f"analyze-{clip.name}-{tag}-{kind}", analyze(shape, *flags, cu=64))
        for clip, shape, tag in declared
        for kind, flags in kinds.items()
    ]
    cases += [Case(f"compare-{clip.name}-{tag}", compare(shape, cu=64)) for clip, shape, tag in declared]
    cases += [Case(f"bdrate-{name}", bdrate(rd(a), rd(b))) for name, (a, b) in BDRATE_PAIRS.items()]
    cases += [
        Case(f"help-{command}", [command, "--help"] if command else ["--help"])
        for command in ("", "analyze", "compare", "bdrate", "dump-activity")
    ]
    # Every clip command takes one input; a second, as --input-b, is a usage error.
    cases += [
        Case(f"usage-{name}-input-b", command(SMALL, "--input-b", f"{CORPUS}/{SMALL.name}.yuv"))
        for name, command in (("analyze", analyze), ("compare", compare), ("dump", dump))
    ]
    # A fault in the last frame, with an output already present. The
    # adaptiveqp runs analyse no chroma, but still read and range-check it.
    old, sidecar = ["--output", "old.csv"], ["--dump-activity", "act.csv"]
    luma_only = ["--mode", "adaptiveqp"]
    cases += [
        Case("late-fault-analyze", analyze(ILLEGAL, *old, *sidecar)),
        Case("late-fault-analyze-adaptiveqp", analyze(ILLEGAL, *old, *luma_only)),
        Case("late-fault-compare", compare(ILLEGAL, *old)),
        Case("late-fault-compare-adaptiveqp", compare(ILLEGAL, *old, "--mode-b", "adaptiveqp")),
        Case("late-fault-dump", dump(ILLEGAL, *old)),
        Case("late-fault-first-strip", analyze(FIRST_STRIP, *old, *sidecar)),
        Case("late-fault-first-strip-adaptiveqp", analyze(FIRST_STRIP, *old, *luma_only)),
    ]
    cases += [Case(f"fault-{name}", argv) for name, argv in PRECEDENCE.items()]
    small = f"{CORPUS}/{SMALL.name}.yuv"
    commands = {"": analyze, "-compare": compare, "-dump": dump}
    # Faults that no precedence row reaches, on a readable input.
    cases += [
        Case("fault-missing-flags", ["analyze", "--input", small]),
        Case("fault-qp-range", analyze(SMALL, "--qp-range", "10000")),
        Case("fault-dump-activity-is-input", analyze(SMALL, "--dump-activity", small)),
        Case("fault-output-is-input-compare", compare(SMALL, "--output", small)),
        Case("fault-output-is-input-dump", dump(SMALL, "--output", small)),
        # One file named two ways, existing and new.
        Case("fault-outputs-shared-existing", analyze(SMALL, *old, "--dump-activity", "dir/../old.csv")),
        Case("fault-outputs-shared-new", analyze(
            SMALL, "--output", "new.csv", "--dump-activity", "dir/../new.csv")),
        Case("fault-output-directory-sidecar", analyze(
            SMALL, "--output", "dir", "--dump-activity", "old.csv")),
        # An output, then a sidecar, in a directory that does not exist.
        Case("fault-output-dir-missing", analyze(SMALL, "--output", "absent/m.csv")),
        Case("fault-dump-dir-missing", analyze(SMALL, *old, "--dump-activity", "absent/act.csv")),
        Case("fault-skip-negative", analyze(SMALL, "--skip", "-1")),
        Case("fault-frames-zero", analyze(SMALL, "--frames", "0")),
        Case("fault-skip-beyond", analyze(SMALL, "--skip", str(FRAMES))),
        # compare and dump-activity check the range in analyze's one frame loop.
        Case("fault-frame-range-compare", compare(SMALL, "--skip", "1", "--frames", str(FRAMES))),
        Case("fault-frame-range-dump", dump(SMALL, "--skip", "1", "--frames", str(FRAMES))),
        Case("fault-no-frames", analyze(EMPTY)),
    ]  # fmt: skip
    # A geometry of 2**80 samples a plane, which a grid built from the flags would not fit in memory.
    cases += [
        Case(f"fault-geometry-huge{suffix}", command(SMALL, "--width", str(2**40), "--height", str(2**40)))
        for suffix, command in commands.items()
    ]
    # The range error names the frame that holds the sample: the first, in its luma
    # plane's last strip, and the first again, in a Cr plane with no legal sample.
    cases += [
        Case(f"fault-sample-{name}{suffix}", command(clip))
        for name, clip in (("first-frame", FIRST_FRAME), ("no-legal", NO_LEGAL))
        for suffix, command in commands.items()
    ]
    # As `perceptqp ... >&-`: fd 1 closed when the child starts. FIRST_FRAME's
    # first frame, and the same clip as an RD CSV, hold faults that a run
    # which read its input would report instead.
    first_frame = f"{CORPUS}/{FIRST_FRAME.name}.yuv"
    closed = {
        "analyze": analyze(FIRST_FRAME, *old),
        "compare": compare(FIRST_FRAME, *old),
        "dump": dump(FIRST_FRAME, *old),
        "bdrate": bdrate(first_frame, first_frame),
        "help": ["--help"],
        "analyze-help": ["analyze", "--help"],
        "usage": [],
        "analyze-usage": ["analyze"],
    }
    cases += [Case(f"closed-stdout-{name}", argv, closed_stdout=True) for name, argv in closed.items()]
    return cases


def fresh_run_directory(directory: Path) -> None:
    """Make directory anew, holding only an existing output old.csv and an empty directory dir."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    (directory / "old.csv").write_bytes(OLD_OUTPUT)
    (directory / "dir").mkdir()


def contents(directory: Path) -> dict[str, bytes | None]:
    """The bytes of every file under directory by relative name, None for a directory."""
    return {
        str(path.relative_to(directory)): None if path.is_dir() else path.read_bytes()
        for path in sorted(directory.rglob("*"))
    }


def run(case: Case, directory: Path) -> subprocess.CompletedProcess:
    """Run case through this checkout's CLI in a child with fd 1 closed, as `perceptqp ... >&-`.

    The child starts in a fresh run directory, with stderr captured.
    """
    fresh_run_directory(directory)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "perceptqp.cli", *case.argv],
        cwd=directory,
        env=env,
        stdin=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=functools.partial(os.close, 1),
        timeout=300,
    )

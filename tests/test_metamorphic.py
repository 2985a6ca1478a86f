"""Exact metamorphic relations: pairs of CLI runs whose outputs must agree, with no oracle.

Each test transforms a random clip in a way the paper's activity cannot
see, runs main() on both clips and compares output bytes, or rows parsed
from them. Every relation is exact: the quadrant variances come from
integer sums, the activity is a minimum over quadrants, and the frame
means and QPs repeat the same IEEE operations in the same order, so no
tolerance is needed and none is used. They hold for any kernel, reader or
renderer, so they keep guarding a rewrite of any of them.
"""

import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perceptqp import ChromaFormat, VideoFormat, grid_dims
from perceptqp.cli import EXIT_OK, main
from strategies import clips, textured_plane, write_clip

RELATION = settings(max_examples=10, deadline=None)


# {dir} is the run's scratch directory; each run of a relation writes the same names there.
RUNS = {
    "analyze": ["analyze", "--qp", "32", "--mode", "cbaq", "--output", "{dir}/map.csv",
                "--dump-activity", "{dir}/act.csv"],
    "json": ["analyze", "--qp", "27", "--mode", "cbaq", "--t-mode", "luma", "--format", "json",
             "--output", "{dir}/map.json"],
    "compare": ["compare", "--qp", "37", "--mode-a", "adaptiveqp", "--mode-b", "cbaq",
                "--rounding-b", "ceiling", "--output", "{dir}/cmp.csv"],
}
ADAPTIVE_RUNS = {
    "analyze": ["analyze", "--qp", "22", "--mode", "adaptiveqp", "--output", "{dir}/map.csv"],
    "json": ["analyze", "--qp", "32", "--mode", "adaptiveqp", "--format", "json",
             "--output", "{dir}/map.json"],
}
DUMP_RUNS = {"dump": ["dump-activity", "--output", "{dir}/act.csv"]}


def run_all(fmt, cu_size, frames, runs=RUNS, flags=()):
    """{output name: bytes} and {run: stdout} of every run in runs on one clip of frames."""
    outputs, stdouts = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        clip = os.path.join(scratch, "clip.yuv")
        write_clip(clip, fmt, frames)
        for name, argv in runs.items():
            geometry = ["--input", clip, "--width", str(fmt.width), "--height", str(fmt.height),
                        "--bit-depth", str(fmt.bit_depth), "--chroma", fmt.chroma_format.value,
                        "--cu-size", str(cu_size), *flags]
            with redirect_stdout(StringIO()) as stdout:
                assert main([arg.format(dir=scratch) for arg in argv] + geometry) == EXIT_OK
            stdouts[name] = stdout.getvalue()
        for name in os.listdir(scratch):
            if not name.endswith(".yuv"):
                with open(os.path.join(scratch, name), "rb") as source:
                    outputs[name] = source.read()
    return outputs, stdouts


def csv_frames(data):
    """The two header lines of a CSV output, and its rows grouped by frame, frame field dropped."""
    lines = data.decode().splitlines()
    rows = {}
    for line in lines[2:]:
        frame, rest = line.split(",", 1)
        rows.setdefault(int(frame), []).append(rest)
    return lines[:2], rows


def json_frames(data):
    """The config of a JSON output, and its frames by index, index dropped."""
    doc = json.loads(data)
    return doc["config"], {f.pop("frame"): f for f in doc["frames"]}


def parsed(outputs):
    return {
        name: json_frames(data) if name.endswith(".json") else csv_frames(data)
        for name, data in outputs.items()
    }


@RELATION
@given(clips(), st.sampled_from([0, 1, 2]), st.data())
def test_shifting_a_plane_changes_no_output_byte(clip, plane, data):
    """n*sum(s^2) - sum(s)^2 is shift-invariant in integers, so every variance is unchanged."""
    fmt, cu_size, frames = clip
    low = min(int(f[plane].min()) for f in frames)
    high = max(int(f[plane].max()) for f in frames)
    # Each frame's band leaves room, but two frames' bands can cover the range together.
    assume(low > 0 or high < fmt.max_sample)
    shift = data.draw(st.integers(-low, fmt.max_sample - high).filter(bool), label="shift")
    shifted = [[p + shift if i == plane else p for i, p in enumerate(f)] for f in frames]
    assert run_all(fmt, cu_size, shifted) == run_all(fmt, cu_size, frames)


@RELATION
@given(clips(frames=(2, 3)), st.data())
def test_frames_are_analysed_independently(clip, data):
    """A permuted clip gives each frame's rows under its new index, and --skip 1 --frames 1 frame 1's."""
    fmt, cu_size, frames = clip
    order = data.draw(st.permutations(range(len(frames))), label="order")
    outputs, stdouts = run_all(fmt, cu_size, frames)
    permuted, permuted_stdouts = run_all(fmt, cu_size, [frames[i] for i in order])
    # Each summary is a count, an integer sum or a histogram over all CUs.
    assert permuted_stdouts == stdouts
    full = parsed(outputs)
    for name, (head, rows) in parsed(permuted).items():
        assert head == full[name][0]
        assert rows == {new: full[name][1][old] for new, old in enumerate(order)}
    second, _ = run_all(fmt, cu_size, frames, flags=["--skip", "1", "--frames", "1"])
    for name, (head, rows) in parsed(second).items():
        assert (head, rows) == (full[name][0], {1: full[name][1][1]})


@RELATION
@given(clips(bit_depths=(8,)))
def test_ten_bit_storage_of_eight_bit_samples_changes_only_the_bit_depth(clip):
    """The uint8 and uint16 read paths give the same sums, so only the header's bit_depth differs."""
    fmt, cu_size, frames = clip
    outputs, stdouts = run_all(fmt, cu_size, frames)
    wide = VideoFormat(fmt.width, fmt.height, 10, fmt.chroma_format)
    wide_outputs, wide_stdouts = run_all(wide, cu_size, frames)
    assert wide_stdouts == stdouts
    assert wide_outputs.keys() == outputs.keys()
    for name, data in outputs.items():
        relabelled = data.replace(b" bit_depth=8 ", b" bit_depth=10 ")
        relabelled = relabelled.replace(b'"bit_depth": 8,', b'"bit_depth": 10,')
        assert relabelled != data
        assert wide_outputs[name] == relabelled, name


def activity_rows(data):
    """{(frame, cu_x, cu_y): (l, b, d) as written} from an activity CSV."""
    _, rows = csv_frames(data)
    table = {}
    for frame, lines in rows.items():
        for line in lines:
            x, y, l, b, d, _, _ = line.split(",")
            table[frame, int(x), int(y)] = (l, b, d)
    return table


@RELATION
@given(clips(chroma=(ChromaFormat.YUV444, ChromaFormat.YUV420)))
def test_transposing_the_clip_transposes_the_activity(clip):
    """CU (x, y) of a clip has the l,b,d of CU (y, x) of its transpose.

    The means and QPs are not compared: transposing changes the order of
    the raster fold, which can move a mean's last bit.
    """
    fmt, cu_size, frames = clip
    outputs, _ = run_all(fmt, cu_size, frames, DUMP_RUNS)
    flipped = VideoFormat(fmt.height, fmt.width, fmt.bit_depth, fmt.chroma_format)
    transposed, _ = run_all(flipped, cu_size, [[p.T for p in f] for f in frames], DUMP_RUNS)
    expected = {(f, y, x): lbd for (f, x, y), lbd in activity_rows(outputs["act.csv"]).items()}
    assert activity_rows(transposed["act.csv"]) == expected


@RELATION
@given(clips(), st.integers(0, 2**32 - 1))
def test_luma_only_rule_ignores_chroma(clip, seed):
    """adaptiveqp maps are unchanged by any legal chroma, and swapping Cb and Cr swaps b and d.

    t_cross and cbaq are not compared: (l + b) + d and (l + d) + b can
    differ in the last bit.
    """
    fmt, cu_size, frames = clip
    rng = np.random.default_rng(seed)
    other = [[f[0]] + [textured_plane(rng, *p.shape, fmt.max_sample) for p in f[1:]] for f in frames]
    assert run_all(fmt, cu_size, other, ADAPTIVE_RUNS) == run_all(fmt, cu_size, frames, ADAPTIVE_RUNS)
    outputs, _ = run_all(fmt, cu_size, frames, DUMP_RUNS)
    swapped, _ = run_all(fmt, cu_size, [[y, cr, cb] for y, cb, cr in frames], DUMP_RUNS)
    expected = {cu: (l, d, b) for cu, (l, b, d) in activity_rows(outputs["act.csv"]).items()}
    assert activity_rows(swapped["act.csv"]) == expected
    t_luma = [line.split(",")[-2] for line in outputs["act.csv"].decode().splitlines()[2:]]
    assert [line.split(",")[-2] for line in swapped["act.csv"].decode().splitlines()[2:]] == t_luma


@RELATION
@given(clips(), st.data())
def test_changing_one_cu_changes_no_other_cus_activity(clip, data):
    """New samples in one CU's blocks, a clipped edge CU's included, reach no other CU's l,b,d."""
    fmt, cu_size, frames = clip
    cols, rows = grid_dims(fmt, cu_size)
    frame = data.draw(st.integers(0, len(frames) - 1), label="frame")
    col, row = data.draw(st.integers(0, cols - 1), label="col"), data.draw(st.integers(0, rows - 1), label="row")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cf = fmt.chroma_format
    changed = [list(f) for f in frames]
    for channel, (sub_x, sub_y) in enumerate([(1, 1), (cf.sub_x, cf.sub_y), (cf.sub_x, cf.sub_y)]):
        plane = changed[frame][channel] = frames[frame][channel].copy()
        x, y = col * cu_size // sub_x, row * cu_size // sub_y
        block = plane[y : y + cu_size // sub_y, x : x + cu_size // sub_x]
        block[...] = textured_plane(rng, *block.shape, fmt.max_sample)
    before = activity_rows(run_all(fmt, cu_size, frames, DUMP_RUNS)[0]["act.csv"])
    after = activity_rows(run_all(fmt, cu_size, changed, DUMP_RUNS)[0]["act.csv"])
    for table in (before, after):
        del table[frame, col * cu_size, row * cu_size]
    assert after == before


@RELATION
@given(clips(), st.sampled_from(["adaptiveqp", "cbaq"]))
def test_one_rule_compare_holds_analyzes_map(clip, mode):
    """compare with one rule on both sides gives analyze's QPs in both qp columns, and delta 0 in every row."""
    fmt, cu_size, frames = clip
    runs = {"compare": ["compare", "--qp", "32", "--mode-a", mode, "--mode-b", mode, "--output", "{dir}/cmp.csv"],
            "analyze": ["analyze", "--qp", "32", "--mode", mode, "--output", "{dir}/map.csv"]}
    outputs, _ = run_all(fmt, cu_size, frames, runs)
    rows = [line.split(",") for line in outputs["cmp.csv"].decode().splitlines()[2:]]
    assert {row[5] for row in rows} == {"0"}
    mapped = outputs["map.csv"].decode().splitlines()[2:]
    for side in (3, 4):
        assert [",".join(row[:3] + row[side : side + 1]) for row in rows] == mapped


@RELATION
@given(clips())
def test_compare_columns_are_each_rules_analyze_map(clip):
    """compare's qp_a and qp_b columns are analyze's QPs under rule a and rule b, and delta is qp_b - qp_a."""
    fmt, cu_size, frames = clip
    runs = {"compare": RUNS["compare"],
            "a": ["analyze", "--qp", "37", "--mode", "adaptiveqp", "--output", "{dir}/map_a.csv"],
            "b": ["analyze", "--qp", "37", "--mode", "cbaq", "--rounding", "ceiling", "--output", "{dir}/map_b.csv"]}
    outputs, _ = run_all(fmt, cu_size, frames, runs)
    rows = [line.split(",") for line in outputs["cmp.csv"].decode().splitlines()[2:]]
    assert [int(row[5]) for row in rows] == [int(row[4]) - int(row[3]) for row in rows]
    for side, name in ((3, "map_a.csv"), (4, "map_b.csv")):
        mapped = outputs[name].decode().splitlines()[2:]
        assert [",".join(row[:3] + row[side : side + 1]) for row in rows] == mapped

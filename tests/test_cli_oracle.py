"""Every clip command's stdout and output files against tests/cli_oracle.py, byte for byte.

Hypothesis draws a clip, writes it with numpy, draws a command and its
flags, and runs main() in process. The oracle shares no code with
perceptqp, so a fault in the reader, the activity pass, the frame means,
the QP rule, frame selection or a renderer shows as a difference. Each
command gets its own draws. The fixed clip cases are argv of
tests/cli_matrix.py, which tests/test_cli_matrix.py checks against the
same oracle, and which reach every option and choice between them. The
oracle's QP rule is also checked against the library's per-CU
reference, cu_qp, on any activities.
"""

import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
from perceptqp import (
    ActivityRecord,
    CuRect,
    FrameActivity,
    Mode,
    QpConfig,
    Rounding,
    TMode,
    cu_qp,
)
from perceptqp.cli import EXIT_OK, main
from strategies import clips, write_clip


def optional(draw, flag, values, default):
    """[flag, value] for a drawn value; a value equal to default is left out half the time."""
    value = draw(st.sampled_from(values))
    return [] if value == default and draw(st.booleans()) else [flag, str(value)]


def rule_flags(draw, suffix=""):
    mode = [f"--mode{suffix}", draw(st.sampled_from(["adaptiveqp", "cbaq"]))]
    t_mode = optional(draw, f"--t-mode{suffix}", ["luma", "cross"], "cross")
    return mode + t_mode + optional(draw, f"--rounding{suffix}", ["nearest", "ceiling"], "nearest")


@st.composite
def cli_cases(draw, command):
    """(fmt, frames, argv) for command: argv puts its files in "{dir}",
    and the test adds --input, --width and --height."""
    fmt, cu_size, frames = draw(clips())
    argv = [command, "--output", "{dir}/out"]
    argv += optional(draw, "--bit-depth", [fmt.bit_depth], 8)
    argv += optional(draw, "--chroma", [fmt.chroma_format.value], "420")
    argv += optional(draw, "--cu-size", [cu_size], 64)
    skip = draw(st.integers(0, len(frames) - 1))
    argv += optional(draw, "--skip", [skip], 0)
    if draw(st.booleans()):
        argv += ["--frames", str(draw(st.integers(1, len(frames) - skip)))]
    if command != "dump-activity":
        argv += ["--qp", str(draw(st.integers(0, 51)))]
        argv += optional(draw, "--qp-range", [draw(st.integers(0, 51))], 6)
    if command == "analyze":
        argv += rule_flags(draw) + optional(draw, "--format", ["csv", "json"], "csv")
        if draw(st.booleans()):
            argv += ["--dump-activity", "{dir}/act.csv"]
    elif command == "compare":
        argv += rule_flags(draw, "-a") + rule_flags(draw, "-b")
    return fmt, frames, argv


@pytest.mark.parametrize("command", ["analyze", "compare", "dump-activity"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_output_equals_the_oracle(command, data):
    """main() on a drawn case in a fresh directory: its stdout, stderr and files must be the oracle's."""
    fmt, frames, argv = data.draw(cli_cases(command))
    with tempfile.TemporaryDirectory() as scratch:
        write_clip(os.path.join(scratch, "a.yuv"), fmt, frames)
        argv = [arg.format(dir=scratch) for arg in argv] + ["--input", os.path.join(scratch, "a.yuv")]
        argv += ["--width", str(fmt.width), "--height", str(fmt.height)]
        with redirect_stdout(StringIO()) as stdout, redirect_stderr(StringIO()) as stderr:
            code = main(argv)
        want_out, want_err, outputs = cli_oracle.run(argv)
        assert (code, stdout.getvalue(), stderr.getvalue()) == (EXIT_OK, want_out, want_err)
        assert set(os.listdir(scratch)) == {"a.yuv"} | {os.path.basename(path) for path in outputs}
        for path, text in outputs.items():
            with open(path, "rb") as written:
                assert written.read() == text.encode(), os.path.basename(path)


positive = st.floats(min_value=1.0, max_value=1e9, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    positive, positive, positive, positive, positive,
    st.integers(0, 51), st.integers(0, 51), st.sampled_from(Mode), st.sampled_from(TMode), st.sampled_from(Rounding),
)
def test_oracle_rule_equals_cu_qp(luma, cb, cr, t_luma, t_cross, slice_qp, qp_range, mode, t_mode, rounding):
    """The oracle's README rule and the library's per-CU reference agree on any activities."""
    config = QpConfig(slice_qp=slice_qp, mode=mode, qp_range=qp_range, t_mode=t_mode, rounding=rounding)
    rec = ActivityRecord(CuRect(0, 0, 16, 16, 16), luma, cb, cr)
    want = cu_qp(config, rec, FrameActivity((rec,), t_luma, t_cross))
    if mode is Mode.ADAPTIVE_QP:
        s, t = luma, t_luma
    else:
        s, t = rec.cross, t_cross if t_mode is TMode.CROSS else t_luma
    assert cli_oracle.qp(s, t, slice_qp, qp_range, rounding.value) == want


def test_oracle_imports_no_perceptqp():
    code = "import sys, cli_oracle; print(sorted(m for m in sys.modules if m.split('.')[0] == 'perceptqp'))"
    tests = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", code], cwd=tests, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"

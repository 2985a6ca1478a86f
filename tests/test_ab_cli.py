"""scripts/ab_cli.py: its corpus and matrix pin the CLI's faults, and its A/B runs on reduced matrices."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

from perceptqp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_cli.py")
_spec = importlib.util.spec_from_file_location("ab_cli", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# Every fault and bdrate argv of the matrix that runs with stdout open. The
# precedence table's closed stdout and FIFO input need a child process or a
# writer thread, so tests/test_cli.py tests them.
FAULTS = [
    case for case in ab.matrix()
    if re.match(r"(fault|late-fault|bdrate)-", case.name) and not case.closed_stdout
]  # fmt: skip


def error(line, code=EXIT_VALIDATION):
    """The outcome of a run that fails with one line on stderr."""
    return code, "", f"{line}\n"


TABLE = "channel,bd_rate_pct,bd_psnr_db\nY,10.000000,-0.295669\nCb,-15.757149,0.517451\nCr,5.479301,-0.158877\n"
NO_FILE = f"i/o error: [Errno 2] No such file or directory: '{ab.ABSENT}'"
CR_1024 = "error: Cr sample out of range 0..1023 (saw 31..1024)"
NOT_OVERLAPPING = "error: channel Cb: curves do not overlap: the anchor spans [{}], the test [{}]"
INF = "error: channel Y: BD-Rate is inf: the curves lie too far apart or too high to compare"
DASH = "error: output '-' would be a file named '-'; use /dev/stdout to write to stdout"
BOTH_STD = "error: outputs {} take both stdout and stderr; the summary would join one of them"
# (exit code, stdout, stderr) of each argv in FAULTS. A usage error's stderr
# is argparse's usage text, which wraps with the terminal's width, so its
# entry holds only what the last line, argparse's error, must contain.
OUTCOMES = {
    "bdrate-valid": (EXIT_OK, TABLE, ""),
    "bdrate-reversed": (EXIT_OK, (
        "channel,bd_rate_pct,bd_psnr_db\nY,-9.090909,0.295669\nCb,18.704435,-0.517451\nCr,-5.194670,0.158877\n"
    ), ""),
    "bdrate-same": (EXIT_OK, (
        "channel,bd_rate_pct,bd_psnr_db\nY,0.000000,0.000000\nCb,0.000000,0.000000\nCr,0.000000,0.000000\n"
    ), ""),
    "bdrate-y-shared": (EXIT_OK, "channel,bd_rate_pct,bd_psnr_db\nY,0.000000,0.000000\n", ""),
    "bdrate-no-common": error("error: no common channels: anchor has ['Y'], test has ['Cb']"),
    "bdrate-three-points": error(
        "error: ../corpus/three.csv: channel Y: need at least 4 points for a cubic fit, got 3"
    ),
    "bdrate-cb-apart": error(NOT_OVERLAPPING.format("32.1, 38.0", "132.1, 138.0")),
    "bdrate-cb-apart-reversed": error(NOT_OVERLAPPING.format("132.1, 138.0", "32.1, 38.0")),
    "bdrate-y-touching": error("error: channel Y: curves overlap on [36.5, 36.5], narrower than 1e-06"),
    "bdrate-overflow": error(INF),
    "bdrate-two-labels": error("error: ../corpus/two-labels.csv: expected a single label, found ['a', 'b']"),
    "bdrate-truncated": error("error: ../corpus/truncated.csv: bad RD CSV row ['anchor', 'Y', '32', '20']"),
    "bdrate-bom": (EXIT_OK, TABLE, ""),
    "bdrate-shuffled": (EXIT_OK, TABLE, ""),
    "bdrate-bad-rate": error(
        "error: ../corpus/bad-rate.csv: bad RD CSV row ['anchor', 'Y', '22', 'x', '36.5']:"
        " could not convert string to float: 'x'"
    ),
    "bdrate-qp-not-int": error(
        "error: ../corpus/qp-not-int.csv: bad RD CSV row ['anchor', 'Y', '2.5', '8000.0', '36.5']:"
        " invalid literal for int() with base 10: '2.5'"
    ),
    "bdrate-y-not-monotone": error(
        "error: ../corpus/y-not-monotone.csv: channel Y: points must increase strictly in both bitrate and PSNR"
    ),
    "late-fault-analyze": error(CR_1024),
    "late-fault-compare": error(CR_1024),
    "late-fault-dump": error(CR_1024),
    "fault-usage": (EXIT_USAGE, "", "argument --format: invalid choice: 'xml'"),
    "fault-geometry": error("error: width 15 must be even for 420 subsampling"),
    "fault-geometry-compare": error("error: width 15 must be even for 420 subsampling"),
    "fault-qp-rule": error("error: slice_qp 99 outside [0, 51]"),
    "fault-output-is-input": error(
        "error: output ../corpus/illegal-420-10-72x40.yuv is the input ../corpus/illegal-420-10-72x40.yuv;"
        " refusing to overwrite it"
    ),
    "fault-output-is-dash": error(DASH),
    "fault-dump-is-dash": error(DASH),
    "fault-outputs-are-stdout-and-stderr": error(BOTH_STD.format("/dev/stdout and /dev/stderr")),
    "fault-outputs-are-stderr-and-stdout": error(BOTH_STD.format("/dev/stderr and /dev/stdout")),
    "fault-output-unopenable": error("i/o error: [Errno 21] Is a directory: 'dir'", EXIT_IO),
    "fault-input-unopenable": error(NO_FILE, EXIT_IO),
    "fault-input-size": error(
        "error: stream size 21600 is not a multiple of the 8640-byte frame size; declared geometry is wrong"
    ),
    "fault-frame-range": error("error: requested frames 1..3 but input has only 3"),
    "fault-frame-count": error(
        "error: inputs differ in frame count (3 vs 1); pass --frames to pin a common range"
    ),
    "fault-sample-range": error(CR_1024),
    "fault-bdrate-usage": (EXIT_USAGE, "", "unrecognized arguments: --qp 32"),
    "fault-bdrate-anchor-unopenable": error(NO_FILE, EXIT_IO),
    "fault-bdrate-anchor-rd-csv": error(
        "error: ../corpus/three.csv: channel Y: need at least 4 points for a cubic fit, got 3"
    ),
    "fault-bdrate-channel-order": error(INF),
    "fault-skip-negative": error("error: --skip must be >= 0, got -1"),
    "fault-frames-zero": error("error: --frames must be >= 1, got 0"),
    "fault-skip-beyond": error("error: --skip 3 is beyond the 3-frame input"),
    "fault-no-frames": error("error: input holds no complete frames"),
    "fault-sample-min-earlier": error("error: Y sample out of range 0..1023 (saw 0..1024)"),
    "fault-sample-no-legal": error("error: Cr sample out of range 0..1023 (saw 1024..1024)"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The harness's corpus, built once per module."""
    corpus = tmp_path_factory.mktemp("ab_cli") / "corpus"
    ab.build_corpus(corpus)
    return corpus


def test_every_fault_argv_has_one_outcome():
    assert sorted(OUTCOMES) == sorted(case.name for case in FAULTS)


@pytest.mark.parametrize("case", FAULTS, ids=[case.name for case in FAULTS])
def test_fault_argv_ends_in_its_outcome(corpus, monkeypatch, capfd, case):
    # capfd gives fd 1 and fd 2 a file each whatever the capture mode, so the
    # outputs /dev/stdout and /dev/stderr are two files, as with 2> err.txt.
    before = ab.contents(corpus)
    run = corpus.parent / "run"
    ab.fresh_run_directory(run)
    monkeypatch.chdir(run)
    code = main(case.argv)
    out, err = capfd.readouterr()
    want_code, want_out, want_err = OUTCOMES[case.name]
    if want_code == EXIT_USAGE:
        assert (code, out, err.startswith("usage: perceptqp")) == (want_code, want_out, True)
        assert want_err in err.splitlines()[-1]
    else:
        assert (code, out, err) == (want_code, want_out, want_err)
    assert ab.contents(run) == {"dir": None, "old.csv": ab.OLD_OUTPUT}
    assert ab.contents(corpus) == before


# One argv of each command, a fault and a closed stdout.
REDUCED = (
    r"^(analyze-c420-8-72x40-(cu16|json)|compare-c420-8-72x40-input-b|dump-c420-8-72x40-cu16"
    r"|bdrate-valid|fault-sample-range|closed-stdout-analyze) "
)


def ab_cli(*args):
    done = subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=120
    )
    assert done.stderr == ""
    return done.returncode, done.stdout.splitlines()


def test_same_tree_on_both_sides_differs_nowhere():
    code, lines = ab_cli("--parent-tree", ROOT, "--only", REDUCED)
    assert (code, lines) == (
        0, ["7 argv (exit 0: 5, 3: 1, 4: 1), 14 runs: 0 differ (0 expected, 0 unexpected)"]
    )


def test_one_byte_in_a_renderer_is_reported(tmp_path):
    copy = tmp_path / "src" / "perceptqp"
    shutil.copytree(os.path.join(ROOT, "src", "perceptqp"), copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "cli.py"
    source = cli.read_text()
    row = 'tail: str = "\\n"'
    assert source.count(row) == 1
    # Each QP CSV row ends in \r, not \n, in the copy.
    cli.write_text(source.replace(row, row.replace("\\n", "\\r")))
    code, lines = ab_cli(
        "--parent-tree", str(tmp_path), "--only", r"^analyze-c420-8-72x40-(cu16|adaptiveqp|json) ",
        "--expect-diff", "adaptiveqp",
    )
    assert code == 1
    assert [line.split(" [")[0] for line in lines[:-1]] == [
        "DIFF analyze-c420-8-72x40-cu16", "expected analyze-c420-8-72x40-adaptiveqp"
    ]
    assert lines[0].split("]: ")[1].startswith("map.csv line 3: b'0,0,0,26\\r0,16,0,26\\r")
    assert lines[-1] == "3 argv (exit 0: 3), 6 runs: 2 differ (1 expected, 1 unexpected)"

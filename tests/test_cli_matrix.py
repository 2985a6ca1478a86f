"""tests/cli_matrix.py's argv: each is pinned once, by its OUTCOMES row or by the CLI oracle."""

import argparse

import pytest

import cli_matrix
import cli_oracle
from perceptqp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, build_parser, main


def error(line, code=EXIT_VALIDATION):
    """The outcome of a run that fails with one line on stderr."""
    return code, "", f"{line}\n"


TABLE = "channel,bd_rate_pct,bd_psnr_db\nY,10.000000,-0.295669\nCb,-15.757149,0.517451\nCr,5.479301,-0.158877\n"
NO_FILE = f"i/o error: [Errno 2] No such file or directory: '{cli_matrix.ABSENT}'"
# A run with stdout closed that is not a usage error.
CLOSED = (EXIT_IO, None, "i/o error: [Errno 9] Bad file descriptor\n")
# A 10-bit sample of 1024, by frame and plane.
RANGE = "error: frame {}: {} sample out of range 0..1023 (saw 1024)"
IS_INPUT = "error: output ../corpus/c420-8-72x40.yuv is the input ../corpus/c420-8-72x40.yuv; refusing to overwrite it"
SAME_FILE = "error: outputs {0} and dir/../{0} are the same file; one would overwrite the other"
HUGE = (
    "error: stream size 12960 is not a multiple of the 1813388729421943762059264-byte frame size;"
    " declared geometry is wrong"
)
NOT_OVERLAPPING = "error: channel Cb: curves do not overlap: the anchor spans [{}], the test [{}]"
INF = "error: channel Y: BD-Rate is inf: the curves lie too far apart or too high to compare"
DASH = "error: output '-' would be a file named '-'; use /dev/stdout to write to stdout"
CHANNEL = "a channel cannot hold a comma, a quote or a line break"
BOTH_STD = "error: outputs {} take both stdout and stderr; the summary would join one of them"
# (exit code, stdout, stderr) of each argv that the oracle does not check;
# stdout is None when it is closed. A usage error's stderr is argparse's
# usage text, which wraps with the terminal's width, so its entry holds only
# what the last line, argparse's error, must contain. A help's stdout wraps
# too, so its entry holds the help with each run of whitespace made one space.
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
    "bdrate-rising": (EXIT_OK, TABLE, ""),
    "bdrate-oversized-label": error(
        "error: ../corpus/oversized-label.csv: bad RD CSV: field larger than field limit (131072)"
    ),
    # capfd holds whatever LAPACK would print on fd 2: only the error line.
    "bdrate-huge-psnr": error("error: channel Y: the cubic fit overflows: the curves lie too high to compare"),
    "bdrate-channel-comma": error(
        "error: ../corpus/channel-comma.csv: bad RD CSV row ['comma', 'Y,Z', '22', '8000.0', '36.5']: " + CHANNEL
    ),
    "bdrate-channel-line-break": error(
        "error: ../corpus/channel-line-break.csv: bad RD CSV row ['break', 'Y\\nZ', '22', '8000.0', '36.5']: "
        + CHANNEL
    ),
    "late-fault-analyze": error(RANGE.format(2, "Cr")),
    "late-fault-analyze-adaptiveqp": error(RANGE.format(2, "Cr")),
    "late-fault-compare": error(RANGE.format(2, "Cr")),
    "late-fault-compare-adaptiveqp": error(RANGE.format(2, "Cr")),
    "late-fault-dump": error(RANGE.format(2, "Cr")),
    "late-fault-first-strip": error(RANGE.format(2, "Y")),
    "late-fault-first-strip-adaptiveqp": error(RANGE.format(2, "Y")),
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
    "fault-sample-range": error(RANGE.format(2, "Cr")),
    "fault-bdrate-usage": (EXIT_USAGE, "", "unrecognized arguments: --qp 32"),
    "fault-bdrate-anchor-unopenable": error(NO_FILE, EXIT_IO),
    "fault-bdrate-anchor-rd-csv": error(
        "error: ../corpus/three.csv: channel Y: need at least 4 points for a cubic fit, got 3"
    ),
    "fault-bdrate-channel-order": error(INF),
    "fault-missing-flags": (
        EXIT_USAGE, "", "the following arguments are required: --width, --height, --output, --qp, --mode"
    ),
    "fault-qp-range": error("error: qp_range 10000 outside [0, 51]"),
    "fault-dump-activity-is-input": error(IS_INPUT),
    "fault-output-is-input-compare": error(IS_INPUT),
    "fault-output-is-input-dump": error(IS_INPUT),
    "fault-outputs-shared-existing": error(SAME_FILE.format("old.csv")),
    "fault-outputs-shared-new": error(SAME_FILE.format("new.csv")),
    "fault-output-directory-sidecar": error("i/o error: [Errno 21] Is a directory: 'dir'", EXIT_IO),
    "fault-output-dir-missing": error("i/o error: [Errno 2] No such file or directory: 'absent/m.csv'", EXIT_IO),
    "fault-dump-dir-missing": error("i/o error: [Errno 2] No such file or directory: 'absent/act.csv'", EXIT_IO),
    "fault-skip-negative": error("error: --skip must be >= 0, got -1"),
    "fault-frames-zero": error("error: --frames must be >= 1, got 0"),
    "fault-skip-beyond": error("error: --skip 3 is beyond the 3-frame input"),
    "fault-frame-range-compare": error("error: requested frames 1..3 but input has only 3"),
    "fault-frame-range-dump": error("error: requested frames 1..3 but input has only 3"),
    "fault-no-frames": error("error: input holds no complete frames"),
    "fault-geometry-huge": error(HUGE),
    "fault-geometry-huge-compare": error(HUGE),
    "fault-geometry-huge-dump": error(HUGE),
    "fault-sample-first-frame": error(RANGE.format(0, "Y")),
    "fault-sample-first-frame-compare": error(RANGE.format(0, "Y")),
    "fault-sample-first-frame-dump": error(RANGE.format(0, "Y")),
    "fault-sample-no-legal": error(RANGE.format(0, "Cr")),
    "fault-sample-no-legal-compare": error(RANGE.format(0, "Cr")),
    "fault-sample-no-legal-dump": error(RANGE.format(0, "Cr")),
    "help-": (EXIT_OK, (
        "usage: perceptqp [-h] {analyze,compare,bdrate,dump-activity} ... Command-line front end: raw "
        "clips in, QP maps and RD metrics out. positional arguments: "
        "{analyze,compare,bdrate,dump-activity} analyze emit a per-CU QP map for each frame compare diff "
        "the QP maps of two rules on one clip bdrate BD-Rate / BD-PSNR between two RD CSV files "
        "dump-activity emit per-CU activity values options: -h, --help show this help message and exit"
    ), ""),
    "help-analyze": (EXIT_OK, (
        "usage: perceptqp analyze [-h] --input INPUT --width WIDTH --height HEIGHT [--bit-depth {8,10}] "
        "[--chroma {444,422,420}] [--frames FRAMES] [--skip SKIP] [--cu-size {16,32,64}] --output OUTPUT "
        "--qp QP [--qp-range QP_RANGE] --mode {adaptiveqp,cbaq} [--t-mode {luma,cross}] [--rounding "
        "{nearest,ceiling}] [--format {csv,json}] [--dump-activity PATH] options: -h, --help show this "
        "help message and exit --input INPUT raw planar YCbCr file --width WIDTH --height HEIGHT "
        "--bit-depth {8,10} --chroma {444,422,420} --frames FRAMES frames to process (default: all) "
        "--skip SKIP frames to skip from the start --cu-size {16,32,64} --output OUTPUT --qp QP slice QP "
        "the deltas adapt around --qp-range QP_RANGE --mode {adaptiveqp,cbaq} --t-mode {luma,cross} "
        "--rounding {nearest,ceiling} --format {csv,json} --dump-activity PATH"
    ), ""),
    "help-compare": (EXIT_OK, (
        "usage: perceptqp compare [-h] --input INPUT --width WIDTH --height HEIGHT [--bit-depth {8,10}] "
        "[--chroma {444,422,420}] [--frames FRAMES] [--skip SKIP] [--cu-size {16,32,64}] --output OUTPUT "
        "--qp QP [--qp-range QP_RANGE] --mode-a {adaptiveqp,cbaq} [--t-mode-a {luma,cross}] [--rounding-a "
        "{nearest,ceiling}] --mode-b {adaptiveqp,cbaq} [--t-mode-b {luma,cross}] [--rounding-b "
        "{nearest,ceiling}] options: -h, --help show this help message and exit --input INPUT raw planar "
        "YCbCr file --width WIDTH --height HEIGHT --bit-depth {8,10} --chroma {444,422,420} --frames "
        "FRAMES frames to process (default: all) --skip SKIP frames to skip from the start --cu-size "
        "{16,32,64} --output OUTPUT --qp QP --qp-range QP_RANGE --mode-a {adaptiveqp,cbaq} --t-mode-a "
        "{luma,cross} --rounding-a {nearest,ceiling} --mode-b {adaptiveqp,cbaq} --t-mode-b {luma,cross} "
        "--rounding-b {nearest,ceiling}"
    ), ""),
    "help-bdrate": (EXIT_OK, (
        "usage: perceptqp bdrate [-h] --anchor ANCHOR --test TEST options: -h, --help show this help "
        "message and exit --anchor ANCHOR --test TEST"
    ), ""),
    "help-dump-activity": (EXIT_OK, (
        "usage: perceptqp dump-activity [-h] --input INPUT --width WIDTH --height HEIGHT [--bit-depth "
        "{8,10}] [--chroma {444,422,420}] [--frames FRAMES] [--skip SKIP] [--cu-size {16,32,64}] --output "
        "OUTPUT options: -h, --help show this help message and exit --input INPUT raw planar YCbCr file "
        "--width WIDTH --height HEIGHT --bit-depth {8,10} --chroma {444,422,420} --frames FRAMES frames "
        "to process (default: all) --skip SKIP frames to skip from the start --cu-size {16,32,64} "
        "--output OUTPUT"
    ), ""),
    "usage-analyze-input-b": (EXIT_USAGE, "", "unrecognized arguments: --input-b ../corpus/c420-8-72x40.yuv"),
    "usage-compare-input-b": (EXIT_USAGE, "", "unrecognized arguments: --input-b ../corpus/c420-8-72x40.yuv"),
    "usage-dump-input-b": (EXIT_USAGE, "", "unrecognized arguments: --input-b ../corpus/c420-8-72x40.yuv"),
    "closed-stdout-analyze": CLOSED,
    "closed-stdout-compare": CLOSED,
    "closed-stdout-dump": CLOSED,
    "closed-stdout-bdrate": CLOSED,
    "closed-stdout-help": CLOSED,
    "closed-stdout-analyze-help": CLOSED,
    "closed-stdout-usage": (EXIT_USAGE, None, "the following arguments are required: command"),
    "closed-stdout-analyze-usage": (
        EXIT_USAGE, None, "the following arguments are required: --input, --width, --height, --output, --qp, --mode"
    ),
}


MATRIX = cli_matrix.matrix()
# Every analyze, compare and dump-activity argv of the matrix that succeeds.
CLIP_RUNS = [case for case in MATRIX if case.name.startswith(("analyze-", "compare-", "dump-"))]
# Every other argv, each by its row: a closed stdout in a child, the rest in
# process. The precedence table's FIFO input needs a writer thread, so
# tests/test_cli.py tests it.
PINNED = [case for case in MATRIX if case.name in OUTCOMES]


def test_every_argv_is_pinned_once():
    assert sorted(case.name for case in MATRIX) == sorted([*OUTCOMES, *(case.name for case in CLIP_RUNS)])


@pytest.mark.parametrize("command", ["analyze", "compare", "dump-activity"])
def test_every_option_and_choice_reaches_the_oracle(command):
    """Some clip argv gives each option of command, and each choice is the last value given or the default."""
    (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = commands[command]
    argvs = [case.argv[1:] for case in CLIP_RUNS if case.argv[0] == command]
    parsed = [parser.parse_args(argv) for argv in argvs]
    missing = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (flag,) = action.option_strings
        given = {vars(args)[action.dest] for args, argv in zip(parsed, argvs) if flag in argv}
        if not given:
            missing.append(flag)
        missing += [f"{flag} {value}" for value in action.choices or () if value not in {*given, action.default}]
    assert missing == []


@pytest.mark.parametrize("case", PINNED, ids=[case.name for case in PINNED])
def test_argv_ends_in_its_outcome(corpus, monkeypatch, capfd, case):
    before = cli_matrix.contents(corpus)
    run = corpus.parent / "run"
    if case.closed_stdout:
        done = cli_matrix.run(case, run)
        code, out, err = done.returncode, None, done.stderr.decode()
    else:
        # capfd gives fd 1 and fd 2 a file each whatever the capture mode, so the
        # outputs /dev/stdout and /dev/stderr are two files, as with 2> err.txt.
        cli_matrix.fresh_run_directory(run)
        monkeypatch.chdir(run)
        # As cli_matrix.run sets it: argparse wraps the help at COLUMNS, and may break a word at a hyphen.
        monkeypatch.setenv("COLUMNS", "80")
        code = main(case.argv)
        out, err = capfd.readouterr()
    want_code, want_out, want_err = OUTCOMES[case.name]
    if want_code == EXIT_USAGE:
        assert (code, out, err.startswith("usage: perceptqp")) == (want_code, want_out, True)
        assert want_err in err.splitlines()[-1]
    elif "--help" in case.argv and out is not None:
        assert (code, " ".join(out.split()), err) == (want_code, want_out, want_err)
    else:
        assert (code, out, err) == (want_code, want_out, want_err)
    assert cli_matrix.contents(run) == {"dir": None, "old.csv": cli_matrix.OLD_OUTPUT}
    assert cli_matrix.contents(corpus) == before


@pytest.mark.parametrize("case", CLIP_RUNS, ids=[case.name for case in CLIP_RUNS])
def test_clip_argv_equals_the_oracle(corpus, monkeypatch, capfd, case):
    before = cli_matrix.contents(corpus)
    run = corpus.parent / "run"
    cli_matrix.fresh_run_directory(run)
    monkeypatch.chdir(run)
    code = main(case.argv)
    out, err = capfd.readouterr()
    want_out, want_err, outputs = cli_oracle.run(case.argv)
    assert (code, out, err) == (EXIT_OK, want_out, want_err)
    want = {"dir": None, "old.csv": cli_matrix.OLD_OUTPUT} | {name: text.encode() for name, text in outputs.items()}
    assert cli_matrix.contents(run) == want
    assert cli_matrix.contents(corpus) == before

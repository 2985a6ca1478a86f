"""scripts/ab_cli.py, the CLI's byte-identity A/B, on reduced matrices of its own argv."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_cli.py")
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

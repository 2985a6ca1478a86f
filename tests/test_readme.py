"""README's examples run as written, so a renamed flag or name fails here.

Every command of README's CLI section runs in one temporary directory:
the first, a scripts/make_synthetic_clip.py line that writes clip.yuv,
as a script, and each perceptqp line through cli.main, where it must
exit 0. anchor.csv and test.csv are the corpus RD curves of
tests/cli_matrix.py. The Library section's Python example then runs in
the same directory. No output byte is compared: tests/cli_oracle.py and
OUTCOMES own those. The Install section needs the network and never runs.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

import cli_matrix
from perceptqp.cli import EXIT_OK, main

README = (cli_matrix.ROOT / "README.md").read_text()
SCRIPT = ["python", "scripts/make_synthetic_clip.py"]


def section(heading: str) -> str:
    """README's text under "## heading", up to the next such heading."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def commands(block: str) -> list[list[str]]:
    """The argv of each command in a shell block, continuation lines joined and comments dropped."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


CLI = [argv for block in code_blocks(section("CLI"), "sh") for argv in commands(block)]
(LIBRARY,) = code_blocks(section("Library"), "python")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding what README's examples read: the first CLI command's clip and two RD CSVs."""
    workdir = tmp_path_factory.mktemp("readme")
    make_clip = CLI[0]
    assert make_clip[:2] == SCRIPT
    paths = [str(cli_matrix.ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = [sys.executable, str(cli_matrix.ROOT / make_clip[1]), *make_clip[2:]]
    subprocess.run(script, cwd=workdir, env=env, check=True, capture_output=True, timeout=60)
    for name in ("anchor", "test"):
        (workdir / f"{name}.csv").write_bytes(cli_matrix.RD_FILES[name])
    return workdir


@pytest.mark.parametrize("argv", CLI[1:], ids=[f"{i}-{argv[1]}" for i, argv in enumerate(CLI[1:], 1)])
def test_cli_example_exits_0(workdir, monkeypatch, capsys, argv):
    assert argv[0] == "perceptqp"
    monkeypatch.chdir(workdir)
    code = main(argv[1:])
    assert code == EXIT_OK, capsys.readouterr().err


def test_library_example_runs(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    exec(compile(LIBRARY, "README.md", "exec"), {})
    assert capsys.readouterr().out

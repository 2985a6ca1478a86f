"""Smoke test of the benchmark harness and its trace, on tiny clips.

Runs `run.py --smoke`, which executes every workload once through the CLI
and once through the traced replay at 176x144, checks the outputs against
the recorded digests and the oracle, and reports every per-layer metric.
No timing is asserted.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_run_is_correct_and_complete():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
        assert set(result["metrics"]) == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

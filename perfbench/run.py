#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the perceptqp CLI.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-cu16-420 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # tiny clips: checks harness and trace

Each workload runs the CLI from this checkout's src/ as a child process,
one invocation at a time (a closed loop with one client), on a synthetic
1080p clip made from --seed before any timing. PERCEPT_QP_THREADS is
removed from the children's environment, so they use the default worker
count. Every invocation writes to a fresh directory and its output files
are checked: against SHA-256 digests recorded in digests.json at the
default seed, and otherwise against the first invocation, whose outputs
are in turn checked value by value against oracle.py.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
CLI invocations with traced replays (replay.py) and reports per-layer
self times. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it describe
the environment and every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from clips import write_clip
from oracle import check_outputs, expected_outputs, subblock_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS_ENV = "PERCEPT_QP_THREADS"

DEFAULT_SEED = 0
SLICE_QP = 32
QP_RANGE = 6  # the CLI's default --qp-range, which the workloads leave unset
FULL_SIZE = (1920, 1080)
SMOKE_SIZE = (176, 144)
SMOKE_FRAMES = 2
MIN_SAMPLES = 3
SETUP_PER_ROUND = 2
# Every run, set-up included, ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    chroma: str
    bit_depth: int
    cu_size: int
    frames: int
    modes: tuple[str, ...]
    out_format: str = "csv"
    dump_activity: bool = False

    def outputs(self, out_dir: Path) -> dict[str, Path]:
        if self.command == "compare":
            return {"diff": out_dir / "diff.csv"}
        paths = {"map": out_dir / f"map.{self.out_format}"}
        if self.dump_activity:
            paths["activity"] = out_dir / "activity.csv"
        return paths

    def argv(self, clip: Path, out_dir: Path, size: tuple[int, int]) -> list[str]:
        outputs = self.outputs(out_dir)
        geometry = [
            "--input", str(clip), "--width", str(size[0]), "--height", str(size[1]),
            "--bit-depth", str(self.bit_depth), "--chroma", self.chroma,
            "--cu-size", str(self.cu_size), "--qp", str(SLICE_QP),
        ]  # fmt: skip
        if self.command == "compare":
            mode_a, mode_b = self.modes
            args = ["compare", *geometry, "--mode-a", mode_a, "--mode-b", mode_b]
            return args + ["--output", str(outputs["diff"])]
        args = ["analyze", *geometry, "--mode", self.modes[0], "--format", self.out_format]
        args += ["--output", str(outputs["map"])]
        if self.dump_activity:
            args += ["--dump-activity", str(outputs["activity"])]
        return args


# Why each workload exists is recorded in BENCHMARK.json; README.md maps each
# layer metric to the end-to-end metric and workload it should move.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-cu16-420", "analyze", "420", 8, 16, 1, ("cbaq",), "csv", dump_activity=True),
        Workload("analyze-cu64-10bit-long", "analyze", "420", 10, 64, 20, ("adaptiveqp",), "json"),
        Workload("compare-cu32-444", "compare", "444", 8, 32, 2, ("adaptiveqp", "cbaq")),
    )
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Bench:
    """One benchmark run: a workload on one clip, with its correctness bookkeeping."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.size = SMOKE_SIZE if smoke else FULL_SIZE
        self.frames = SMOKE_FRAMES if smoke else workload.frames
        self.digest_key = workload.name + ("/smoke" if smoke else "")
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str | None] | None = None
        self._runs = 0
        self.clip = self._make_clip()
        self.expected = expected_outputs(workload, self.clip, *self.size, SLICE_QP, QP_RANGE)

    def _make_clip(self) -> Path:
        w = self.workload
        clips = WORK / "clips"
        clips.mkdir(parents=True, exist_ok=True)
        stem = f"{w.name}-{self.size[0]}x{self.size[1]}-f{self.frames}"
        path = clips / f"{stem}-s{self.seed}.yuv"
        if not path.exists():
            for stale in clips.glob(f"{stem}-s*"):
                stale.unlink()
            write_clip(path, *self.size, w.chroma, w.bit_depth, self.frames, self.seed)
        return path

    def out_dir(self) -> Path:
        self._runs += 1
        path = WORK / "out" / self.workload.name / str(self._runs)
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv: list[str], out_dir: Path) -> dict:
        """Run a child to completion through launch.py; return its wall, CPU, peak RSS and exit code."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(timeout)]
        launcher += [str(out_dir / "stdout.txt"), str(out_dir / "stderr.txt"), *argv]
        done = subprocess.run(launcher, env=self.env, cwd=out_dir, capture_output=True, text=True, check=True)
        return json.loads(done.stdout)

    def record(self, out_dir: Path, returncode: int) -> None:
        """Count one attempt; failed if the exit code or any output byte is off."""
        paths = self.workload.outputs(out_dir)
        digests = {role: file_digest(p) for role, p in paths.items()}
        self.attempted += 1
        if self.reference is None and returncode == 0:
            self._set_reference(paths, digests)
        if returncode != 0 or digests != self.reference:
            self.failed += 1
            err = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            outputs = "match" if digests == self.reference else "differ"
            self.problems.append(f"exit {returncode}, outputs {outputs}" + (f": {err[-1]}" if err else ""))

    def _set_reference(self, paths: dict[str, Path], digests: dict[str, str | None]) -> None:
        problems = check_outputs(paths, self.expected)
        recorded = load_digests().get(self.digest_key) if self.seed == DEFAULT_SEED else None
        if recorded is not None and recorded != digests:
            problems.append("outputs differ from the digests recorded in digests.json")
        if problems:
            self.problems += problems
            self.reference = {}  # nothing can match: every later attempt fails too
        else:
            self.reference = digests

    def invoke_cli(self) -> Invocation:
        out_dir = self.out_dir()
        argv = [sys.executable, "-c", "from perceptqp.cli import entry; entry()"]
        child = self.spawn(argv + self.workload.argv(self.clip, out_dir, self.size), out_dir)
        self.record(out_dir, child["returncode"])
        shutil.rmtree(out_dir)
        return Invocation(child["wall_s"], child["cpu_s"], child["maxrss_kb"] * 1024 / 1e6)

    def replay(self) -> tuple[float, dict | None]:
        """One traced replay; returns its wall time and the spans it wrote."""
        out_dir = self.out_dir()
        w = self.workload
        spec = {
            **asdict(w),
            "clip": str(self.clip),
            "width": self.size[0],
            "height": self.size[1],
            "qp": SLICE_QP,
            "outputs": {role: str(p) for role, p in w.outputs(out_dir).items()},
            "spans_out": str(out_dir / "spans.json"),
        }
        child = self.spawn([sys.executable, str(BENCH / "replay.py"), json.dumps(spec)], out_dir)
        self.record(out_dir, child["returncode"])
        trace = json.loads((out_dir / "spans.json").read_text()) if child["returncode"] == 0 else None
        if trace is not None:
            WORK.joinpath("traces").mkdir(exist_ok=True)
            os.replace(out_dir / "spans.json", WORK / "traces" / f"{w.name}.json")
        shutil.rmtree(out_dir)
        return child["wall_s"], trace

    def measure_setup(self, repeats: int) -> list[float]:
        """Wall time of fresh interpreters that import the CLI and build its parser."""
        argv = [sys.executable, "-c", "import perceptqp.cli as cli; cli.build_parser()"]
        out_dir = self.out_dir()
        times = []
        for _ in range(repeats):
            child = self.spawn(argv, out_dir)
            if child["returncode"] != 0:
                raise SystemExit(f"perfbench: importing perceptqp.cli failed (exit {child['returncode']})")
            times.append(child["wall_s"])
        shutil.rmtree(out_dir)
        return times


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def environment(bench: Bench) -> dict:
    # Importing the CLI here also writes its bytecode cache before any set-up is timed.
    code = "import perceptqp.cli; from perceptqp.parallel import worker_count; print(worker_count())"
    probe = subprocess.run(
        [sys.executable, "-c", code], env=bench.env, capture_output=True, text=True, timeout=60, check=True
    )
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "parallel.workers": int(probe.stdout),
        f"{THREADS_ENV}_present_and_cleared": THREADS_ENV in os.environ,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha or "unknown (not a git checkout)",
        "workload": bench.workload.name,
        "seed": bench.seed,
        "clip": f"{bench.size[0]}x{bench.size[1]} {bench.workload.chroma} {bench.workload.bit_depth}-bit"
        f" x{bench.frames} frames",
    }


def cpu_ticks() -> tuple[int, int]:
    """Busy and stolen CPU ticks of this machine so far, from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time its child spans cover."""
    totals: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, covered in zip(spans, child_time):
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"] - covered
    return totals


def layer_metrics(trace: dict, replay_wall: float, bench: Bench) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced replay, and the self time of every span name."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    probes = sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None and s["name"].startswith("probe.")
    )
    frames, passes, cus = counts["frames"], counts["passes"], counts["cus_per_frame"]
    w = bench.workload
    stored_mb = bench.clip.stat().st_size / 1e6
    metrics = {
        "yuv.read_s": own["yuv.read"],
        "yuv.read_mb_per_s": stored_mb / own["yuv.read"],
        "yuv.validate_s": own["yuv.validate"],
        "cli.load_s": own["cli.load"],
        "cli.resident_frames_mb": counts["resident_bytes"] / 1e6,
        "partition.grid_s": own["partition.grid"],
        "partition.cus": cus * frames,
        "activity.frame_s": own["activity.frame"],
        "activity.frame_s_1t": own["activity.frame_1t"],
        "activity.cus_per_s": cus * frames * passes / own["activity.frame"],
        "activity.subblocks": subblock_count(*bench.size, w.chroma, w.cu_size) * frames * passes,
        "parallel.workers": counts["workers"],
        "qp.map_s": own["qp.map"],
        "qp.cus_per_s": cus * frames * passes / own["qp.map"],
        "cli.render_s": own["cli.render"],
        "cli.render_bytes": counts["render_bytes"],
        "cli.write_s": own["cli.write"],
        "cli.write_mb_per_s": counts["render_bytes"] / 1e6 / own["cli.write"],
        "trace.total_s": replay_wall - probes,
    }
    return metrics, own


def run_trace0(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Alternate set-up measurements with CLI invocations for the run's duration.

    Interleaving puts both under the same background load, which on a shared
    host drifts over minutes.
    """
    setup: list[float] = []
    samples: list[Invocation] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        begun = time.perf_counter()
        setup += bench.measure_setup(SETUP_PER_ROUND)
        samples.append(bench.invoke_cli())
        rounds.append(time.perf_counter() - begun)
    return {
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": setup,
    }


def run_trace1(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Alternate untraced CLI invocations with traced replays for the run's duration."""
    walls: list[float] = []
    per_replay: list[dict[str, float]] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        begun = time.perf_counter()
        walls.append(bench.invoke_cli().wall_s)
        replay_wall, trace = bench.replay()
        if trace is None:
            raise SystemExit(f"perfbench: the traced replay failed: {bench.problems[-1]}")
        metrics, own = layer_metrics(trace, replay_wall, bench)
        per_replay.append(metrics)
        rounds.append(time.perf_counter() - begun)
    ranked = sorted(((k, v) for k, v in own.items() if not k.startswith("probe.")), key=lambda kv: -kv[1])
    print("self_time_s of the last replay, largest first: " + " ".join(f"{k}={v:.4f}" for k, v in ranked))
    values = {k: [m[k] for m in per_replay] for k in per_replay[0]}
    total = values.pop("trace.total_s")
    values["trace.overhead_s"] = [statistics.median(total) - statistics.median(walls)]
    return values


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result(bench: Bench, values: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Print every metric with its unit and spread; return the result object."""
    if set(values) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(values[name])
        print(f"{name} = {median:.6g} {unit} (median of {len(values[name])}, quartiles {q1:.6g} .. {q3:.6g})")
        metrics[name] = {"value": median, "unit": unit}
    share = bench.failed / bench.attempted
    print(f"failed_share = {share:.4f} ({bench.failed} of {bench.attempted} attempted)")
    for problem in bench.problems:
        print(f"problem: {problem}")
    return {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed, smoke=False, deadline=time.perf_counter() + RUN_DEADLINE_S)
    print("env " + json.dumps(environment(bench)))
    before = cpu_ticks()
    values = run_trace1(bench, seconds) if trace else run_trace0(bench, seconds)
    busy, steal = (b - a for a, b in zip(before, cpu_ticks()))
    share = steal / max(1, busy + steal)
    print(f"cpu_steal_share = {share:.4f} (CPU time the host gave to others during the run)")
    return result(bench, values, declared_metrics(trace))


def smoke() -> bool:
    """One CLI invocation and one traced replay per workload on a tiny clip; no timing bounds."""
    ok = True
    for workload in WORKLOADS.values():
        print(f"[{workload.name}]")
        bench = Bench(workload, DEFAULT_SEED, smoke=True, deadline=time.perf_counter() + RUN_DEADLINE_S)
        outcome = result(bench, run_trace1(bench, seconds=0), declared_metrics(trace=True))
        print(json.dumps(outcome))
        ok = ok and outcome["correct"]
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check harness and trace on tiny clips")
    args = parser.parse_args()
    if not (SRC / "perceptqp" / "cli.py").is_file():
        print(f"perfbench: no perceptqp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if len(names) > 1:
            print(f"[{name}]")
        print(json.dumps(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

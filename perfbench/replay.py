"""Traced in-process replay of one benchmark workload.

Run as a child process by run.py with the workload as a JSON argument. It
calls the same public functions the CLI calls, in pipeline order, and
records a span around each call: name, start, end, parent span and frame
index. Spans stay in memory and are written as JSON when the replay ends.

The roots "cli.import" and "cli.run" are the pipeline itself. Roots named
"probe.*" are extra measurements made after it (a re-read of each frame,
the frame validation alone, the CU grid, the activity pass on one thread);
run.py subtracts their duration from the replay's wall time, so that what
remains compares with one untraced CLI invocation.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects nested spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, frame: int | None = None):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None, "frame": frame}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def compare_rows(cli, fmt, maps_a, maps_b, spec) -> str:
    """The compare subcommand's table; the CLI builds it inline, not in a function."""
    lines = [
        cli._echo_comment(
            "compare",
            cli._echo_items(fmt, None)
            + [
                ("cu_size", spec["cu_size"]),
                ("qp", spec["qp"]),
                ("qp_range", maps_a[0].config.qp_range),
                ("mode_a", maps_a[0].config.mode.value),
                ("mode_b", maps_b[0].config.mode.value),
            ],
        ),
        "frame,cu_x,cu_y,qp_a,qp_b,delta",
    ]
    for map_a, map_b in zip(maps_a, maps_b):
        for (cu_x, cu_y, qp_a), (_, _, qp_b) in zip(map_a.cells(), map_b.cells()):
            lines.append(f"{map_a.frame_index},{cu_x},{cu_y},{qp_a},{qp_b},{qp_b - qp_a}")
    return "\n".join(lines) + "\n"


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = Tracer()
    span = tracer.span

    with span("cli.import"):
        from perceptqp import cli
        from perceptqp.activity import frame_activity
        from perceptqp.parallel import worker_count
        from perceptqp.partition import cu_grid
        from perceptqp.qp import Mode, QpConfig, qp_map_from_activity
        from perceptqp.yuv import ChromaFormat, Frame, VideoFormat, read_frame

        cli.build_parser()

    clip = Path(spec["clip"])
    fmt = VideoFormat(spec["width"], spec["height"], spec["bit_depth"], ChromaFormat(spec["chroma"]))
    cu = spec["cu_size"]
    configs = [QpConfig(slice_qp=spec["qp"], mode=Mode(mode), cu_size=cu) for mode in spec["modes"]]
    outputs = {role: Path(path) for role, path in spec["outputs"].items()}
    rendered = 0

    def render_and_write(role: str, render) -> None:
        nonlocal rendered
        with span("cli.render"):
            text = render()
        rendered += len(text.encode())
        with span("cli.write"):
            outputs[role].write_text(text)

    # One analysis pass per QP rule, as the CLI does today (compare reads and
    # analyses its single input twice).
    with span("cli.run"):
        passes = []
        for config in configs:
            with span("cli.load"):
                frames = cli.load_frames(clip, fmt, 0, None)
            maps, activities = [], []
            for index, frame in frames:
                with span("activity.frame", index):
                    act = frame_activity(frame, cu)
                with span("qp.map", index):
                    maps.append(qp_map_from_activity(fmt, act, config, frame_index=index))
                activities.append((index, act))
            passes.append(maps)
        if spec["command"] == "compare":
            render_and_write("diff", lambda: compare_rows(cli, fmt, passes[0], passes[1], spec))
        else:
            render = cli.qp_maps_json if spec["out_format"] == "json" else cli.qp_maps_csv
            render_and_write("map", lambda: render(passes[0], fmt))
            if spec["dump_activity"]:
                render_and_write("activity", lambda: cli.activity_csv(activities, fmt, cu))

    resident = sum(p.data.nbytes for _, f in frames for p in (f.y, f.cb, f.cr))
    with span("probe.read"), open(clip, "rb") as stream:
        for index, _ in frames:
            with span("yuv.read", index):
                read_frame(stream, fmt, index)
    with span("probe.validate"):
        for index, f in frames:
            with span("yuv.validate", index):
                Frame(f.y, f.cb, f.cr, format=fmt)
    with span("probe.grid"):
        for index, _ in frames:
            with span("partition.grid", index):
                grid = cu_grid(fmt, cu)
    with span("probe.activity_1t"):
        for _ in configs:
            for index, f in frames:
                with span("activity.frame_1t", index):
                    frame_activity(f, cu, max_workers=1)

    result = {
        "spans": tracer.spans,
        "counts": {
            "frames": len(frames),
            "passes": len(configs),
            "cus_per_frame": len(grid),
            "workers": worker_count(),
            "resident_bytes": resident,
            "render_bytes": rendered,
        },
    }
    Path(spec["spans_out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

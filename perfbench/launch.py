"""Run one command and print its wall time and own resource use as JSON.

    python3 -S perfbench/launch.py TIMEOUT_S STDOUT STDERR PROGRAM [ARG ...]

Linux carries a process's peak RSS across exec, so a child spawned straight
from the benchmark (which holds numpy and the reference outputs) would
report at least the benchmark's own RSS as its peak. This launcher is a
bare interpreter started without site packages; the command it spawns
starts from the launcher's few megabytes, and os.wait4 reads that one
child's rusage, not a high-water mark across all children. The command is
killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout, stdout, stderr, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    redirect = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=redirect)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, int(float(timeout))))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status),
    }))  # fmt: skip


if __name__ == "__main__":
    main()

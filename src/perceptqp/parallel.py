"""Resolution of the PERCEPT_QP_THREADS setting.

The analysis runs on one thread, so nothing in the library consults this
module; it is kept because the benchmark harness reports worker_count().
"""

from __future__ import annotations

import os

THREADS_ENV = "PERCEPT_QP_THREADS"


def worker_count(requested: int | None = None) -> int:
    """Read and validate PERCEPT_QP_THREADS; the result changes no computation.

    An explicit argument wins; otherwise the environment variable is
    consulted. 0 (or unset) resolves to one per CPU.
    """
    if requested is None:
        raw = os.environ.get(THREADS_ENV, "0")
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if requested < 0:
        raise ValueError(f"thread count must be >= 0, got {requested}")
    if requested == 0:
        return os.cpu_count() or 1
    return requested

"""Thread count of the analysis, kept because the benchmark harness reports it."""


def worker_count() -> int:
    """The analysis runs on one thread, and no setting changes that."""
    return 1

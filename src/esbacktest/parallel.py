"""The package's one executor: threads by default, processes on request."""

from __future__ import annotations

__all__ = ["parallel_map"]


def _run_chunk(fn, chunk) -> list:
    return [fn(item) for item in chunk]


def parallel_map(fn, items, workers: int, *, processes: bool = False) -> list:
    """``[fn(item) for item in items]`` over up to ``workers`` threads or processes.

    ``items`` is cut into at most ``workers`` contiguous chunks, one per pool
    worker. Threads suit numpy calls that release the GIL; ``processes=True``
    suits work that holds it, and ``fn`` and the items must then pickle. The
    result follows the order of ``items``, and the error raised is that of
    the first failing item in that order. One worker, or at most one item,
    runs in this thread with no pool, and ``concurrent.futures`` is imported
    only when a pool starts.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent import futures  # each executor loads on first use

    size = -(-len(items) // workers)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    executor = futures.ProcessPoolExecutor if processes else futures.ThreadPoolExecutor
    with executor(max_workers=len(chunks)) as pool:
        parts = pool.map(_run_chunk, [fn] * len(chunks), chunks)
        return [result for part in parts for result in part]


def contiguous_groups(items, size: int, workers: int) -> list:
    """``items`` cut into contiguous groups of at most ``size`` items and at least
    one, as even as a group count that is a multiple of ``workers`` allows."""
    n, step = len(items), max(1, workers)  # parallel_map rejects workers < 1
    count = min(n, -(-n // (size * step)) * step)
    return [items[n * i // count : n * (i + 1) // count] for i in range(count)]

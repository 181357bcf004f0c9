"""The package's one process-pool executor."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` over up to ``workers`` processes.

    The result follows the order of ``items`` whatever the scheduling. One
    worker, or at most one item, runs in this process with no pool; ``fn``
    and the items must pickle otherwise.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))

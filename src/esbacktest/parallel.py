"""The package's one process-pool executor."""

from __future__ import annotations


def parallel_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` over up to ``workers`` processes.

    Each worker receives one contiguous chunk of ``items``, so no item is
    pickled and shipped on its own, and the result follows the order of
    ``items`` whatever the scheduling. One worker, or at most one item, runs
    in this process with no pool, and ``concurrent.futures`` is imported
    only when a pool starts; ``fn`` and the items must pickle otherwise.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    chunksize = -(-len(items) // workers)
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))

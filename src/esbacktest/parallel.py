"""The package's one executor: threads by default, processes on request."""

from __future__ import annotations


def parallel_map(fn, items, workers: int, *, processes: bool = False) -> list:
    """``[fn(item) for item in items]`` over up to ``workers`` threads or processes.

    ``items`` is cut into at most ``workers`` contiguous chunks. On threads,
    this thread runs the first chunk while ``workers - 1`` pool threads run
    the others, which suits work done in numpy calls that release the GIL.
    ``processes=True`` runs the chunks on a process pool instead, for work
    that holds the GIL; ``fn`` and the items must then pickle. Either way the
    result follows the order of ``items``, and when items fail the error
    raised is that of the first failing item in that order. One worker, or at
    most one item, runs in this thread with no pool, and
    ``concurrent.futures`` is imported only when a pool starts.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    size = -(-len(items) // workers)
    if processes:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items, chunksize=size))
    from concurrent.futures import ThreadPoolExecutor

    def run(chunk) -> list:
        return [fn(item) for item in chunk]

    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with ThreadPoolExecutor(max_workers=len(chunks) - 1) as pool:
        rest = [pool.submit(run, chunk) for chunk in chunks[1:]]
        head = run(chunks[0])
        return head + [result for future in rest for result in future.result()]

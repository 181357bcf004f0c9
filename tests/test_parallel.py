"""The package's one executor, on threads and on processes."""

import time

import pytest

from esbacktest.parallel import parallel_map


def _square_or_fail(i):
    if i in (3, 5):
        if i == 3:
            time.sleep(0.05)  # so item 5 fails first in time where it has its own chunk
        raise ValueError(f"item {i}")
    return i * i


@pytest.mark.parametrize("processes", [False, True], ids=["threads", "processes"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
def test_parallel_map_keeps_input_order_and_raises_the_first_failure(workers, processes):
    assert parallel_map(_square_or_fail, range(3), workers, processes=processes) == [0, 1, 4]
    assert parallel_map(_square_or_fail, [6, 2, 0], workers, processes=processes) == [36, 4, 0]
    with pytest.raises(ValueError, match="^item 3$"):
        parallel_map(_square_or_fail, range(7), workers, processes=processes)


def test_parallel_map_needs_a_worker():
    with pytest.raises(ValueError, match="need workers >= 1, got 0"):
        parallel_map(_square_or_fail, range(3), 0)

"""The package's one executor, on threads and on processes."""

import time

import pytest

from esbacktest.parallel import parallel_map
from esbacktest.simulation import FitError


def _square_or_fail(i):
    if i in (3, 5):
        if i == 3:
            time.sleep(0.05)  # so item 5 fails first in time where it has its own chunk
        raise ValueError(f"item {i}")
    return i * i


def _fit_or_fail(i):
    if i == 2:
        raise FitError(f"item {i}", {"theta": [0.25, i], "nll": 3.5}, {"nfev": 40})
    return i


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


def test_parallel_map_on_processes_raises_a_workers_fit_error_intact():
    # the exception is pickled in the worker and rebuilt here
    with pytest.raises(FitError, match="^item 2$") as info:
        parallel_map(_fit_or_fail, range(4), 2, processes=True)
    assert info.value.best == {"theta": [0.25, 2], "nll": 3.5}
    assert info.value.diagnostics == {"nfev": 40}

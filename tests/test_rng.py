import multiprocessing
import os

import pytest

from ouht import rng


def _square(x):
    return x * x


def _square_in(x):
    return x * x, os.getpid()


def _fail_on_22(x):
    if x == 22:
        raise ArithmeticError(f"block {x} failed")
    return x


def _fail_on_three(x):
    if x == 3:
        raise ArithmeticError(f"block {x} failed")
    return x


def test_map_blocks_pool_lives_for_one_call():
    squares = [t * t for t in range(7)]
    assert rng.map_blocks(_square, range(7), 2) == squares  # task order kept
    assert multiprocessing.active_children() == []
    # a worker's exception reaches the caller with its type, and the pool
    # is gone with it
    with pytest.raises(ArithmeticError, match="block 3 failed"):
        rng.map_blocks(_fail_on_three, range(8), 2)
    assert multiprocessing.active_children() == []
    # 40 tasks on 2 workers go in chunks of ceil(40 / 8) = 5, each run by
    # one worker; a chunk's results come back in task order
    results = rng.map_blocks(_square_in, range(40), 2)
    assert [square for square, _ in results] == [t * t for t in range(40)]
    assert all(len({pid for _, pid in results[lo:lo + 5]}) == 1 for lo in range(0, 40, 5))
    assert multiprocessing.active_children() == []
    # task 22 is in the middle of the chunk 20..24
    with pytest.raises(ArithmeticError, match="^block 22 failed$"):
        rng.map_blocks(_fail_on_22, range(40), 2)
    assert multiprocessing.active_children() == []


def test_stream_tags_and_block_sizes_refuse_bad_values():
    with pytest.raises(ValueError, match=r"^stream tags must be non-negative, got -1$"):
        rng.stream(0, -1)
    with pytest.raises(TypeError, match=r"^stream tag must be int or str, got float$"):
        rng.stream(0, 1.5)
    with pytest.raises(ValueError, match=r"^n_total must be >= 1, got 0$"):
        rng.block_sizes(0)


def _call(task):
    fn, x = task
    return fn(x)


def test_map_blocks_pool_inherits_its_tasks():
    # forked workers inherit the worker and the tasks, which are never
    # pickled: neither a task holding a lambda nor a lambda worker could be
    tasks = [(lambda x, k=k: x + k, 10 * k) for k in range(6)]
    assert rng.map_blocks(_call, tasks, 2) == [11 * k for k in range(6)]
    assert rng.map_blocks(lambda t: t + 1, range(5), 2) == [1, 2, 3, 4, 5]
    assert multiprocessing.active_children() == []


def test_map_blocks_starts_at_most_one_worker_per_chunk(monkeypatch):
    import concurrent.futures

    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    # 3 tasks on 4 workers go in 3 chunks of one task
    assert rng.map_blocks(_square, range(3), 4) == [0, 1, 4]
    # 40 tasks on 2 workers go in 8 chunks of 5
    assert rng.map_blocks(_square, range(40), 2) == [t * t for t in range(40)]
    assert started == [3, 2]
    assert multiprocessing.active_children() == []

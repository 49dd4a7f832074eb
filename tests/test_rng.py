import multiprocessing

import pytest

from ouht import rng


def _square(x):
    return x * x


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


def test_stream_tags_and_block_sizes_refuse_bad_values():
    with pytest.raises(ValueError, match=r"^stream tags must be non-negative, got -1$"):
        rng.stream(0, -1)
    with pytest.raises(TypeError, match=r"^stream tag must be int or str, got float$"):
        rng.stream(0, 1.5)
    with pytest.raises(ValueError, match=r"^n_total must be >= 1, got 0$"):
        rng.block_sizes(0)

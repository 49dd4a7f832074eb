from ouht import rng


def _square(x):
    return x * x


def _in_block_worker(_):
    return rng._in_block_worker


def test_map_blocks_reuses_one_pool_per_worker_count():
    squares = [t * t for t in range(7)]
    try:
        assert rng.map_blocks(_square, range(7), 2) == squares  # task order kept
        pool = rng._pool
        assert rng.map_blocks(_square, range(7), 2) == squares
        assert rng._pool is pool
        rng.map_blocks(_square, range(4), 3)
        assert rng._pool is not pool and rng._pool_workers == 3
        assert pool._shutdown_thread  # the old pool was shut down first
        # block workers know they are workers, so map_blocks there runs serially
        assert rng.map_blocks(_in_block_worker, range(4), 3) == [True] * 4
        assert not rng._in_block_worker
    finally:
        rng._drop_pool()
    assert rng._pool is None

"""Deterministic random-stream derivation and block-parallel mapping.

Every stochastic routine in this package draws from a stream derived as
``default_rng(SeedSequence([seed, tag..., block]))``.  Paths are processed in
fixed-size blocks; block ``j`` always uses the stream keyed by ``j``, and
reductions always run in block order.  Results are therefore bit-identical no
matter how blocks are distributed over workers.
"""

from __future__ import annotations

import zlib

import numpy as np

BLOCK_SIZE = 1 << 16


def _encode_tag(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValueError(f"stream tags must be non-negative, got {tag}")
        return int(tag)
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def stream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (seed, tags...); same key, same draws, always."""
    entropy = [_encode_tag(seed)] + [_encode_tag(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *tags) -> int:
    """Collapse (seed, tags...) into a fresh 64-bit seed for a disjoint substream."""
    entropy = [_encode_tag(seed)] + [_encode_tag(t) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def block_sizes(n_total: int, block_size: int = BLOCK_SIZE) -> list[int]:
    """Split n_total paths into fixed-size blocks (last one ragged)."""
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    full, rest = divmod(n_total, block_size)
    return [block_size] * full + ([rest] if rest else [])


# the pool modules are imported when the first pool starts: a serial run
# never loads concurrent.futures.process or multiprocessing
_pool = None
_pool_workers = 0
_in_block_worker = False


def _mark_block_worker() -> None:
    global _in_block_worker
    _in_block_worker = True


def _drop_pool() -> None:
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown()
    _pool, _pool_workers = None, 0


def _executor(workers: int):
    """This process's ProcessPoolExecutor of ``workers`` processes, kept
    across calls."""
    global _pool, _pool_workers
    if _pool_workers != workers:
        from concurrent.futures import ProcessPoolExecutor

        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=workers, initializer=_mark_block_worker)
        _pool_workers = workers
    return _pool


def map_blocks(worker, tasks, workers: int = 1) -> list:
    """Apply ``worker`` to each task, in order; optionally on a process pool.

    The pool is made on first use and reused by later calls with the same
    worker count; a block worker never starts a pool of its own.  The
    returned list is always in task order, so downstream reductions are
    independent of the worker count.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1 or _in_block_worker:
        return [worker(t) for t in tasks]
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_executor(workers).map(worker, tasks))
    except BrokenProcessPool:
        _drop_pool()
        raise

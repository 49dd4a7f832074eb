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


def block_sizes(n_total: int) -> list[int]:
    """Split n_total paths into blocks of BLOCK_SIZE (last one ragged)."""
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    full, rest = divmod(n_total, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def shared_empty(shape) -> np.ndarray:
    """np.empty(shape) in an anonymous MAP_SHARED mapping: pool workers
    forked after it is made write into the parent's pages."""
    import mmap

    n = int(np.prod(shape))  # a mapping needs at least one byte
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), count=n).reshape(shape)


_inherited = {}  # a forked pool worker's "worker" and "tasks", set as it starts


def _run_range(lo, hi):
    return [_inherited["worker"](t) for t in _inherited["tasks"][lo:hi]]


def map_blocks(worker, tasks, workers: int = 1) -> list:
    """Apply ``worker`` to each task, in order; optionally on a process pool.

    The pool lives for this one call, and its modules are imported only
    then: a serial run never loads concurrent.futures.process or
    multiprocessing.  Its workers are forked, so they inherit ``worker`` and
    the tasks, which are never pickled: a worker is sent the (lo, hi) bounds
    of a chunk of ceil(len(tasks) / (4 * workers)) tasks, the rule of
    multiprocessing.Pool.map, and sends back the chunk's results.  At most
    one worker per chunk is started.  The returned list is always in task
    order, so downstream reductions are independent of the worker count.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = -(-len(tasks) // (4 * workers))
    los = range(0, len(tasks), size)
    # not a with block: its exit would wait for every queued chunk after
    # one of them has raised
    pool = ProcessPoolExecutor(max_workers=min(workers, len(los)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherited.update,
                               initargs=({"worker": worker, "tasks": tasks},))
    try:
        return [r for chunk in pool.map(_run_range, los, [lo + size for lo in los]) for r in chunk]
    finally:
        pool.shutdown(cancel_futures=True)

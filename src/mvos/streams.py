"""Counter-based random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``.  Streams are independent Philox instances, so a
computation split across workers by key (replication index, chunk index)
produces output identical to a serial run with the same master seed.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

__all__ = ["stream_rng", "derive_seed", "run_in_ranges"]


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *key)."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0] >> 1)


def run_in_ranges(count: int, threads: int, run_range: Callable[[int, int], None]) -> None:
    """Call ``run_range(lo, hi)`` on contiguous ranges that cover 0..count,
    one range per thread.

    Callers key each item's stream by its index and write its result to
    its own slot, so the split leaves every value unchanged.  Each range
    can allocate its working buffers once and reuse them for its items.
    """
    if threads <= 1:
        run_range(0, count)
        return
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))

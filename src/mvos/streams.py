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

__all__ = ["stream_rng", "derive_seed", "replicate"]


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(master_seed, key)))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0] >> 1)


def replicate(
    out: np.ndarray,
    seed: int,
    threads: int,
    make_draw: Callable[[], Callable[[np.random.Generator], object]],
) -> np.ndarray:
    """Set ``out[r] = draw(stream_rng(seed, r))`` for every r, and return ``out``.

    The replications are split into contiguous ranges, one per thread, and
    ``make_draw()`` is called once per range, so each range can allocate
    its working buffers once and reuse them for its replications.  Every
    replication draws from its own stream and writes only its own slot, so
    the split leaves every value unchanged.
    """
    count = len(out)

    def run_range(lo: int, hi: int) -> None:
        draw = make_draw()
        for r in range(lo, hi):
            out[r] = draw(stream_rng(seed, r))

    if threads <= 1:
        run_range(0, count)
        return out
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))
    return out

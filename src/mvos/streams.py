"""Counter-based random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``.  Streams are independent Philox instances, so a
computation split across workers by key (replication index, chunk index)
produces output identical to a serial run with the same master seed.
"""
from __future__ import annotations

import numpy as np

__all__ = ["stream_rng", "derive_seed"]


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *key)."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0] >> 1)

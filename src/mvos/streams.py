"""Counter-based random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``.  Streams are independent Philox instances, so a
computation split across workers by key (replication index, chunk index)
produces output identical to a serial run with the same master seed.

Philox is counter-based: the stream ``stream_rng(seed, r)`` is fixed by a
128-bit key, the ``SeedSequence(seed, spawn_key=(r,))`` hash, and a zero
counter.  ``replicate`` computes the keys of all its replications at once
(``stream_keys``) and re-keys a few generators instead of building one per
replication; the streams are the same.  Each thread keeps its generators
between calls.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = ["stream_rng", "derive_seed", "stream_keys", "rekey", "replicate"]

# array elements (uniforms, normals) a block draw may hold for all of its
# replications at once; a block holds at most BLOCK_ELEMENTS // elements
# replications, and at most BLOCK_REPLICATIONS, which bounds the generators
# each thread keeps
BLOCK_ELEMENTS = 2**16
BLOCK_REPLICATIONS = 64
# array elements one replication may add to a draw, which a config must
# respect before any sampling (experiment.ExperimentConfig), and threads
# a replicate call may start
REPLICATION_ELEMENTS = 2**24
MAX_THREADS = 64

# numpy's SeedSequence hash constants (bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_POOL = 4

_ZERO = np.zeros(4, np.uint64)

# each thread's idle generators for replicate; a range takes them for its
# duration, so a replicate call made inside a draw builds its own
_idle = threading.local()


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(master_seed, key)))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0] >> 1)


def stream_keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start) x 2 uint64 Philox keys of ``stream_rng(master_seed, r)``
    for start <= r < stop: ``SeedSequence(master_seed, spawn_key=(r,))``'s
    ``generate_state(2, np.uint64)``, by the same uint32 hash on arrays.

    r must lie below 2**32, where a spawn key is one 32-bit word.
    """
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"replication range [{start}, {stop}) must lie in [0, 2**32)")
    words = [(master_seed >> s) & _MASK for s in range(0, max(master_seed.bit_length(), 1), 32)]
    # the run entropy is padded to the pool size when there is a spawn key
    entropy = [np.array([w], np.uint32) for w in words + [0] * (_POOL - len(words))]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for word in pool:
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK
        word = word * np.uint32(const)
        state.append((word ^ (word >> 16)).astype(np.uint64))
    keys = np.empty((stop - start, 2), np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def rekey(gen: np.random.Generator, key) -> None:
    """Restart the Philox generator ``gen`` at counter zero of the stream
    with the 128-bit ``key`` (two uint64 words), as if newly built with it."""
    gen.bit_generator.state = {"bit_generator": "Philox", "buffer": _ZERO, "buffer_pos": 4, "has_uint32": 0,
                               "uinteger": 0, "state": {"counter": _ZERO, "key": key}}


def replicate(
    out: np.ndarray,
    seed: int,
    threads: int,
    make_draw: Callable[[], Callable[[Sequence[np.random.Generator]], object]],
    elements: int = 1,
) -> np.ndarray:
    """Set ``out[r]`` to replication r's draw from ``stream_rng(seed, r)`` for
    every r, and return ``out``.

    The replications are split into contiguous ranges, one per thread, and
    each range into blocks of consecutive replications.  ``make_draw()``
    is called once per range, so each range can allocate its working
    buffers once and reuse them.  Its result is called once per block with
    the block's generators, in replication order, each at the start of its
    replication's stream, and returns the block's rows of ``out``.  A
    block holds at most ``BLOCK_REPLICATIONS`` replications and at most
    ``BLOCK_ELEMENTS // elements``, ``elements`` being the array elements
    one replication adds to the draw's working arrays.  The draw must make
    each replication's values from its own generator alone, so neither the
    blocks nor the split change any value.  More than ``MAX_THREADS``
    threads raise ``ValueError`` before any thread or draw exists.
    """
    if threads > MAX_THREADS:
        raise ValueError(f"at most {MAX_THREADS} threads, got {threads}")
    count = len(out)
    if not count:
        return out
    keys = stream_keys(seed, 0, count)
    block = max(1, min(BLOCK_REPLICATIONS, BLOCK_ELEMENTS // max(elements, 1)))

    def run_range(lo: int, hi: int) -> None:
        draw = make_draw()
        gens, _idle.gens = getattr(_idle, "gens", None) or [], None
        gens += [np.random.Generator(np.random.Philox(0)) for _ in range(min(block, hi - lo) - len(gens))]
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            # rekey sets the whole state, so a generator's last use leaves no trace
            for gen, key in zip(gens, keys[start:stop]):
                rekey(gen, key)
            out[start:stop] = draw(gens[:stop - start])
        _idle.gens = gens

    if threads <= 1:
        run_range(0, count)
        return out
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))
    return out

"""Random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``, numpy's ``SeedSequence(master_seed,
spawn_key=key)``.  Streams are independent, so a computation split across
workers by key (replication index, chunk index) produces output identical
to a serial run with the same master seed.

``stream_rng(seed, r)`` is the Philox generator of the stream (seed, r).
Replication r draws every variate from one SFC64 generator, numpy's
``SFC64(SeedSequence(seed, spawn_key=(r, 0, 0)))``: the first child of the
first child that a fresh ``stream_rng(seed, r)``'s seed sequence spawns
(``copula.sample_rows``).  SFC64 draws a block of doubles in less than
half of Philox's time, and its period is at least 2**64.

``replicate`` computes those states for up to ``STATE_CHUNK``
replications at once, on arrays (``stream_states``, numpy's
``SeedSequence`` hash and SFC64 seeding, bit for bit), and writes them
into generators that each thread keeps between blocks and calls to them,
through a view of each one's state struct; it hands a block's generators
to the draw as a list.
"""
from __future__ import annotations

import ctypes
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

__all__ = ["stream_rng", "derive_seed", "stream_states", "check_threads", "replicate"]

# array elements (uniforms, normals) a block draw may hold for all of its
# replications at once; a block holds at most BLOCK_ELEMENTS // elements
# replications, and at most BLOCK_REPLICATIONS, which bounds the generators
# each thread keeps
BLOCK_ELEMENTS = 2**16
BLOCK_REPLICATIONS = 64
# array elements one replication may add to a draw, which a config must
# respect before any sampling (experiment.ExperimentConfig), and threads
# a replicate call may start.  A replication's peak memory is 2.2 to 3.5
# times 8 bytes per counted value for large draws and up to 4 times for
# small ones (tracemalloc, tests/test_copula.py::TestReplicationMemory),
# so about 512 MB per replication at the cap
REPLICATION_ELEMENTS = 2**24
MAX_THREADS = 64

# numpy's SeedSequence hash constants (bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_POOL = 4

# replications whose states a replicate range holds at once, in whole blocks
STATE_CHUNK = 1024
# uint64 words of numpy's SFC64 state struct: s[4], then has_uint32 and uinteger
_STATE_WORDS = 5

# each thread's idle generators of replicate, by block slot; a range takes them
# for its duration, so a replicate call made inside a draw builds its own
_idle = threading.local()


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, *key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(master_seed, key)))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0] >> 1)


def stream_states(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start) x 4 uint64 states of
    ``SFC64(SeedSequence(master_seed, spawn_key=(r, 0, 0)))`` for
    start <= r < stop, before their first draw: the sequence's
    ``generate_state(3, np.uint64)`` by the same uint32 hash on arrays, then
    numpy's seeding of SFC64 from those three words, state (w0, w1, w2, 1)
    with 12 outputs discarded.

    r must lie below 2**32, where a spawn key entry is one 32-bit word.
    """
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"replication range [{start}, {stop}) must lie in [0, 2**32)")
    # the sequence's entropy words, the run entropy padded to the pool size
    # as there is a spawn key: Python ints, but the replications' array
    words = [(master_seed >> s) & _MASK for s in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = words + [0] * (_POOL - len(words)) + [np.arange(start, stop, dtype=np.uint32), 0, 0]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ (value >> 16)

    def mix(x, y):
        out = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
        return out ^ (out >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(3, np.uint64): six uint32 words from the pool in turn,
    # each pair little-endian
    const, state = _INIT_B, []
    for i in range(6):
        word = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK
        word = word * const & _MASK
        state.append((word ^ (word >> 16)).astype(np.uint64))
    a, b, c = (state[j] | state[j + 1] << np.uint64(32) for j in range(0, 6, 2))
    for count in range(1, 13):
        out = a + b + np.uint64(count)
        a = b ^ (b >> np.uint64(11))
        b = c + (c << np.uint64(3))
        c = (c << np.uint64(24) | c >> np.uint64(40)) + out
    return np.stack((a, b, c, np.full(a.shape, 13, np.uint64)), axis=-1)


def _seeded(pool: dict, slot: int, state: np.ndarray) -> np.random.Generator:
    """The pooled SFC64 generator of block slot ``slot``, set to ``state``:
    its 4 state words and a zero buffered-uint32 word, so its past leaves
    no trace.  They are written through a uint64 view of the
    state numpy's SFC64 keeps at ``bit_generator.ctypes.state_address``,
    which sets it as numpy's ``state`` setter does without parsing a dict;
    the pool keeps the generator, and so the memory the view writes, alive."""
    entry = pool.get(slot)
    if entry is None:
        gen = np.random.Generator(np.random.SFC64(0))
        address = ctypes.cast(gen.bit_generator.ctypes.state_address, ctypes.POINTER(ctypes.c_uint64))
        entry = pool[slot] = gen, np.ctypeslib.as_array(address, shape=(_STATE_WORDS,))
    gen, words = entry
    words[:] = state
    return gen


def check_threads(threads: int, error: type = ValueError) -> None:
    """Raise ``error`` unless 1 <= threads <= ``MAX_THREADS``."""
    if not 1 <= threads <= MAX_THREADS:
        raise error(f"need at least 1 and at most {MAX_THREADS} threads, got {threads}")


def replicate(
    out: np.ndarray,
    seed: int,
    threads: int,
    make_draw: Callable[[], Callable[[list], object]],
    elements: int = 1,
) -> np.ndarray:
    """Set ``out[r]`` to replication r's draw from stream (seed, r) for every
    r, and return ``out``.

    The replications are split into contiguous ranges, one per thread, and
    each range into blocks of consecutive replications.  ``make_draw()``
    is called once per range, so each range can allocate its working
    buffers once and reuse them.  Its result is called once per block with
    the list of the block's generators, one a replication, in replication
    order, replication r's seeded by ``SeedSequence(seed, spawn_key=(r,
    0, 0))``; it returns the block's rows of ``out``.  The
    states are computed for up to ``STATE_CHUNK`` consecutive replications
    at once, a whole number of blocks.  A block
    holds at most ``BLOCK_REPLICATIONS`` replications and at most
    ``BLOCK_ELEMENTS // elements``, ``elements`` being the array elements
    one replication adds to the draw's working arrays.  The draw must make
    each replication's values from its own generator alone, so neither
    the blocks nor the split change any value.  ``threads`` outside [1,
    ``MAX_THREADS``] raise ``ValueError`` before any thread or draw exists.
    """
    check_threads(threads)
    count = len(out)
    if not count:
        return out
    block = max(1, min(BLOCK_REPLICATIONS, BLOCK_ELEMENTS // max(elements, 1)))
    chunk = block * max(1, STATE_CHUNK // block)

    def run_range(lo: int, hi: int) -> None:
        draw, pool, _idle.pool = make_draw(), getattr(_idle, "pool", None) or {}, None
        for first in range(lo, hi, chunk):
            last = min(first + chunk, hi)
            states = np.zeros((last - first, _STATE_WORDS), np.uint64)
            states[:, :4] = stream_states(seed, first, last)
            for start in range(first, last, block):
                rows = states[start - first:min(start + block, last) - first]
                out[start:start + len(rows)] = draw([_seeded(pool, slot, state) for slot, state in enumerate(rows)])
        _idle.pool = pool

    if threads == 1:
        run_range(0, count)
        return out
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))
    return out

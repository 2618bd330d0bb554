"""Random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``.  Streams are independent, so a computation split
across workers by key (replication index, chunk index) produces output
identical to a serial run with the same master seed.

This module alone states the layout.  The stream (seed, *key) is the
SFC64 generator ``stream_rng(seed, *key)``, seeded by numpy's
``SeedSequence`` (its docstring gives the spawn key), and replication r
of ``replicate`` draws every variate from the stream (seed, r).  SFC64
draws doubles fast, and its period is at least 2**64.  ``derive_seed``
hashes a key to a plain seed for APIs that take one.

``replicate`` computes the states of up to ``STATE_CHUNK`` replications
at once, on arrays (``stream_states``, numpy's ``SeedSequence`` hash and
SFC64 seeding, bit for bit), and writes them into generators that each
thread keeps between blocks and calls to them, through a view of each
one's state struct; it hands a block's generators to the draw as a list.
Each thread also keeps the draws' working arrays between calls, by name
(``range_store``, ``_reused``), so a steady run of calls maps no fresh
pages; it keeps only arrays of at most ``BLOCK_ELEMENTS`` elements, a few
MB a thread, and frees larger ones at the end of the call.
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

# each thread's idle state of replicate: its generators by block slot (pool)
# and its working arrays by name (store).  A range takes both for its
# duration, so a replicate call made inside a draw builds its own, and its
# store is the thread's active one (range_store) meanwhile
_idle = threading.local()


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """The SFC64 generator of the stream (master_seed, *key), seeded by
    ``SeedSequence(master_seed, spawn_key=(*key, 0, 0))``: for key (r,), the
    generator ``replicate`` hands replication r, before its first draw.
    The two trailing zeros belong to the layout: without them every
    stream, and so every report and sample, would draw other values."""
    return np.random.Generator(np.random.SFC64(_seed_sequence(master_seed, key + (0, 0))))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit sub-seed for handing to APIs that take a plain seed."""
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0] >> 1)


def stream_states(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start) x 4 uint64 states of ``stream_rng(master_seed, r)``
    for start <= r < stop, before their first draw: its seed sequence's
    ``generate_state(3, np.uint64)`` by the same uint32 hash on arrays, then
    numpy's seeding of SFC64 from those three words, state (w0, w1, w2, 1)
    with 12 outputs discarded.  The seed's first four words are hashed on
    Python ints.  Each later entropy word (the seed's, then the spawn
    key's) is mixed into the four pool lanes in one pass, a (4, count)
    uint64 array of 32-bit values, each lane with its own constants; the
    six output words are one (6, count) pass, and the 12 rounds run in
    place, so a call makes about 150 small ufunc calls whatever the count.

    r must lie below 2**32, where a spawn key entry is one 32-bit word.
    """
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"replication range [{start}, {stop}) must lie in [0, 2**32)")
    # the sequence's entropy words, the run entropy padded to the pool size
    # as there is a spawn key
    words = [(master_seed >> s) & _MASK for s in range(0, max(master_seed.bit_length(), 1), 32)]

    def constants(const, mult):  # numpy's hash_const before and after each step
        while True:
            yield const, (const := const * mult & _MASK)

    def lanes(calls, count):  # the next count steps' constants, as (count, 1) arrays
        return np.array([next(calls) for _ in range(count)], np.uint64).T[..., None]

    def hashmix(value, const, after):
        value = (value ^ const) * after & _MASK
        return value ^ (value >> 16)

    def mix(x, y):  # on uint64 arrays the difference wraps mod 2**64, which the mask reduces
        out = (_MIX_L * x - _MIX_R * y) & _MASK
        return out ^ (out >> 16)

    calls = constants(_INIT_A, _MULT_A)
    pool = [hashmix(w, *next(calls)) for w in (words + [0] * _POOL)[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], *next(calls)))
    pool = np.array(pool, np.uint64)[:, None]
    for word in words[_POOL:] + [np.arange(start, stop, dtype=np.uint64), 0, 0]:
        pool = mix(pool, hashmix(word, *lanes(calls, _POOL)))
    # generate_state(3, np.uint64): six uint32 words from the pool in turn,
    # each pair little-endian
    state = hashmix(pool[np.arange(6) % _POOL], *lanes(constants(_INIT_B, _MULT_B), 6))
    a, b, c = state[0::2] | state[1::2] << 32
    # 12 rounds of out = a + b + count, (a, b, c) = (b ^ b >> 11, 9 c,
    # (c <<< 24) + out), in place on rotating buffers (9 c is c + (c << 3)
    # mod 2**64), with 0-d array operands, which numpy applies fastest
    t, high = np.empty_like(a), np.empty_like(a)
    nine, eleven, twenty_four, forty, *counts = (np.array(k, np.uint64) for k in (9, 11, 24, 40, *range(1, 13)))
    for count in counts:
        np.add(np.add(a, b, out=a), count, out=a)
        np.bitwise_xor(b, np.right_shift(b, eleven, out=t), out=b)
        np.multiply(c, nine, out=t)
        np.right_shift(c, forty, out=high)
        np.add(np.bitwise_or(np.left_shift(c, twenty_four, out=c), high, out=c), a, out=c)
        a, b, c, t = b, t, c, a
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


def range_store() -> dict:
    """The working-array store of the ``replicate`` range running on this
    thread, which ``make_draw()`` may take to keep its arrays in
    (``_reused``); a fresh dict outside any range."""
    store = getattr(_idle, "active", None)
    return {} if store is None else store


def _reused(store: dict, name: str, shape: tuple) -> np.ndarray:
    """An array of the given shape, kept in ``store`` under ``name`` and
    reused while it is large enough.  Allocated afresh, a block-sized
    array lets malloc hand its pages back when it is freed, and the next
    one faults them in again; from a range's store it is reused by later
    blocks, and by later calls on the thread if it holds at most
    ``BLOCK_ELEMENTS`` elements."""
    size = math.prod(shape)
    if name not in store or store[name].size < size:
        store[name] = np.empty(size)
    return store[name][:size].reshape(shape)


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
    buffers once and reuse them; it may keep them in ``range_store()``,
    which the thread keeps for its next range and its next call, holding
    only arrays of at most ``BLOCK_ELEMENTS`` elements.  Its result is
    called once per block with
    the list of the block's generators, one a replication, in replication
    order, replication r's in the state of a fresh ``stream_rng(seed, r)``;
    it returns the block's rows of ``out``.  The
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
        pool, store = getattr(_idle, "pool", None) or {}, getattr(_idle, "store", None) or {}
        _idle.pool = _idle.store = None
        outer, _idle.active = getattr(_idle, "active", None), store
        try:
            draw = make_draw()
            for first in range(lo, hi, chunk):
                last = min(first + chunk, hi)
                states = np.zeros((last - first, _STATE_WORDS), np.uint64)
                states[:, :4] = stream_states(seed, first, last)
                for start in range(first, last, block):
                    rows = states[start - first:min(start + block, last) - first]
                    out[start:start + len(rows)] = draw([_seeded(pool, slot, state) for slot, state in enumerate(rows)])
        finally:
            _idle.active = outer
        _idle.pool, _idle.store = pool, {name: a for name, a in store.items() if a.size <= BLOCK_ELEMENTS}

    if threads == 1:
        run_range(0, count)
        return out
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))
    return out

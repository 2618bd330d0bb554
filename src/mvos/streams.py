"""Counter-based random streams derived from a master seed.

Every stochastic routine in this package draws from a stream addressed by
``(master_seed, *key)``.  Streams are independent Philox instances, so a
computation split across workers by key (replication index, chunk index)
produces output identical to a serial run with the same master seed.

Philox is counter-based: the stream ``stream_rng(seed, r)`` is fixed by a
128-bit key, the ``SeedSequence(seed, spawn_key=(r,))`` hash, and a zero
counter.  Philox is built to address a stream by its key, not for bulk
throughput: numpy's SFC64 draws a block of doubles in less than half of
Philox's time.  So a draw reads only the first words of its Philox
stream, and this module alone lays them out: word 0 is a key, and each
next three words seed one SFC64 generator, which draws the bulk.  The
rare extra streams a draw may need are Philox streams keyed (key, t),
t >= 2.  The Philox stream still fixes every value.  An SFC64 starts
from 192 bits of its Philox stream, and its period is at least 2**64.

``replicate`` computes the keys of all its replications at once
(``stream_keys``), and their words and seeded SFC64 states for a chunk
of replications at a time, on arrays (``stream_seeds``):
``philox_words`` is Philox4x64-10 (Salmon et al., SC 2011) at a given
block counter, and ``sfc64_states`` numpy's seeding of SFC64 from three
words, both bit for bit as numpy computes them.  ``Streams`` sets a block
of replications' generators to those states and hands them to the draw;
each thread keeps the generators in one pool between blocks and calls.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Union

import numpy as np

__all__ = ["stream_rng", "derive_seed", "stream_keys", "philox_words", "sfc64_states", "stream_seeds", "Streams",
           "check_threads", "replicate"]

# array elements (uniforms, normals) a block draw may hold for all of its
# replications at once; a block holds at most BLOCK_ELEMENTS // elements
# replications, and at most BLOCK_REPLICATIONS, which bounds the generators
# each thread keeps
BLOCK_ELEMENTS = 2**16
BLOCK_REPLICATIONS = 64
# array elements one replication may add to a draw, which a config must
# respect before any sampling (experiment.ExperimentConfig), and threads
# a replicate call may start.  A replication's peak memory is 2.2 to 3.2
# times 8 bytes per counted value for large draws and up to 4 times for
# small ones (tracemalloc, tests/test_copula.py::TestReplicationMemory),
# so about 512 MB per replication at the cap
REPLICATION_ELEMENTS = 2**24
MAX_THREADS = 64

# numpy's SeedSequence hash constants (bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_POOL = 4

# Philox4x64's multipliers of counter words 0 and 2, with their 32-bit
# halves, and its key increments (Random123, philox.h)
_LOW, _32 = np.uint64(_MASK), np.uint64(32)
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_HI, _PHILOX_LO = _PHILOX_MUL >> _32, _PHILOX_MUL & _LOW
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
_PHILOX_ROUNDS = 10

# replications whose words a replicate range holds at once, in whole blocks
WORD_CHUNK = 1024

# a tuple, as the Philox state setter reads its words one at a time, which
# costs less from a tuple than from an array
_ZERO = (0, 0, 0, 0)

# each thread's idle (slot, t) generators of Streams; a block takes them
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


def philox_words(keys: np.ndarray, block: int) -> np.ndarray:
    """The m x 4 uint64 words 4 (block - 1) to 4 block - 1 of the Philox
    streams with the m x 2 uint64 ``keys``, each started at counter zero,
    as ``Philox.random_raw`` returns them: one Philox4x64-10 block at the
    counter (block, 0, 0, 0), numpy's first being 1, by 64-bit products
    split into 32-bit halves on arrays."""
    # the counter's words 0 and 2, which the rounds multiply, and 1 and 3
    mul, rest = np.zeros((2, len(keys)), np.uint64), np.zeros((2, len(keys)), np.uint64)
    mul[0] = block
    key = keys.T.copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_BUMP
        # the high and low 64 bits of each 128-bit product mul * multiplier
        lo, hi = mul & _LOW, mul >> _32
        cross, high_low = lo * _PHILOX_HI, hi * _PHILOX_LO
        carry = (lo * _PHILOX_LO >> _32) + (cross & _LOW) + (high_low & _LOW)
        high = hi * _PHILOX_HI + (cross >> _32) + (high_low >> _32) + (carry >> _32)
        low = mul * _PHILOX_MUL
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        mul, rest = high[::-1] ^ rest ^ key, low[::-1]
    return np.stack((mul[0], rest[0], mul[1], rest[1]), axis=1)


def sfc64_states(words: np.ndarray) -> np.ndarray:
    """The m x 4 uint64 states of SFC64 generators seeded from the m x 3
    uint64 ``words`` (w0, w1, w2) as numpy seeds SFC64 from the three
    words of a ``SeedSequence``: state (w0, w1, w2, 1), then 12 outputs
    discarded, on arrays."""
    a, b, c = (words[:, j].copy() for j in range(3))
    for count in range(1, 13):
        out = a + b + np.uint64(count)
        a = b ^ (b >> np.uint64(11))
        b = c + (c << np.uint64(3))
        c = (c << np.uint64(24) | c >> np.uint64(40)) + out
    return np.stack((a, b, c, np.full(len(words), 13, np.uint64)), axis=1)


def stream_seeds(source: Union[np.ndarray, np.random.Generator], gens: int = 1) -> np.ndarray:
    """Each stream's row of its key and ``gens`` (1 or 2) SFC64 states, an
    m x (1 + 4 gens) uint64 array: word 0 of the stream is the key, and
    words 1-3, then 4-6, seed the SFC64 generators as numpy seeds them
    (``sfc64_states``).  ``source`` is the m x 2 uint64 keys of m streams
    at counter zero, whose words are computed (``philox_words``), or one
    Philox generator, whose next 1 + 3 gens words are read."""
    if gens not in (1, 2):
        raise ValueError(f"a stream seeds 1 or 2 SFC64 generators, not {gens}")
    if isinstance(source, np.random.Generator):
        words = source.bit_generator.random_raw(1 + 3 * gens)[None]
    else:
        words = philox_words(source, 1)
        if gens > 1:
            words = np.concatenate((words, philox_words(source, 2)[:, :3]), axis=1)
    seeds = np.empty((len(words), 1 + 4 * gens), np.uint64)
    seeds[:, 0] = words[:, 0]
    seeds[:, 1:] = sfc64_states(words[:, 1:].reshape(-1, 3)).reshape(len(words), -1)
    return seeds


class Streams:
    """A block of replications' generators, one replication per row of
    ``stream_seeds`` given to ``start``: ``rngs[slot]`` is replication
    ``slot``'s main SFC64 generator, ``seconds[slot]`` its second SFC64,
    if its row seeds one, and ``keyed(slot, t)`` its Philox stream keyed
    (key, t), t >= 2.  Each thread keeps its (slot, t) generators from
    block to block and from call to call, in one pool: SFC64 for t < 2,
    Philox otherwise."""

    def start(self, seeds: np.ndarray) -> None:
        """Begin a block: take the thread's idle generators and set each
        replication's SFC64 generators to its states."""
        self.pool, _idle.pool = getattr(_idle, "pool", None) or {}, None
        self.keys, self.used = seeds[:, 0].tolist(), set()
        states = seeds[:, 1:].reshape(len(seeds), -1, 4).swapaxes(0, 1).tolist()
        gens = [[self._seeded(slot, t, state) for slot, state in enumerate(rows)] for t, rows in enumerate(states)]
        self.rngs, self.seconds = gens[0], gens[1] if len(gens) > 1 else []

    def stop(self) -> None:
        """End the block: hand the (slot, t) generators back to the thread."""
        _idle.pool = self.pool

    def keyed(self, slot: int, t: int) -> np.random.Generator:
        """Replication ``slot``'s Philox stream keyed (key, t), t >= 2,
        at counter zero at its first use in the block."""
        gen = self._pooled(slot, t)
        if (slot, t) not in self.used:
            self.used.add((slot, t))
            gen.bit_generator.state = {"bit_generator": "Philox", "buffer": _ZERO, "buffer_pos": 4, "has_uint32": 0,
                                       "uinteger": 0, "state": {"counter": _ZERO, "key": (self.keys[slot], t)}}
        return gen

    def _pooled(self, slot: int, t: int) -> np.random.Generator:
        """The block's generator for stream t of replication ``slot``: SFC64
        for t < 2, Philox otherwise."""
        gen = self.pool.get((slot, t))
        if gen is None:
            gen = self.pool[slot, t] = np.random.Generator(np.random.SFC64(0) if t < 2 else np.random.Philox(0))
        return gen

    def _seeded(self, slot: int, t: int, state: list) -> np.random.Generator:
        """The SFC64 generator for stream t < 2 of replication ``slot``, set
        to ``state``: the whole state, so its past leaves no trace."""
        gen = self._pooled(slot, t)
        gen.bit_generator.state = {"bit_generator": "SFC64", "state": {"state": state}, "has_uint32": 0, "uinteger": 0}
        return gen


def check_threads(threads: int, error: type = ValueError) -> None:
    """Raise ``error`` unless 1 <= threads <= ``MAX_THREADS``."""
    if not 1 <= threads <= MAX_THREADS:
        raise error(f"need at least 1 and at most {MAX_THREADS} threads, got {threads}")


def replicate(
    out: np.ndarray,
    seed: int,
    threads: int,
    make_draw: Callable[[], Callable[[Streams], object]],
    elements: int = 1,
    gens: int = 1,
) -> np.ndarray:
    """Set ``out[r]`` to replication r's draw from stream (seed, r) for every
    r, and return ``out``.

    The replications are split into contiguous ranges, one per thread, and
    each range into blocks of consecutive replications.  ``make_draw()``
    is called once per range, so each range can allocate its working
    buffers once and reuse them.  Its result is called once per block with
    the block's ``Streams``, whose generators are the block's
    replications' in replication order, ``gens`` SFC64 each, seeded from
    the first words of their Philox streams; it returns the block's rows
    of ``out``.  The seeds are computed from the keys of up to
    ``WORD_CHUNK`` consecutive replications at once, a whole number of
    blocks.  A block holds at most ``BLOCK_REPLICATIONS`` replications
    and at most ``BLOCK_ELEMENTS // elements``, ``elements`` being the
    array elements one replication adds to the draw's working arrays.  The
    draw must make each replication's values from its own generators
    alone, so neither the blocks nor the split change any value.
    ``threads`` outside [1, ``MAX_THREADS``] raise ``ValueError`` before
    any thread or draw exists.
    """
    check_threads(threads)
    count = len(out)
    if not count:
        return out
    keys = stream_keys(seed, 0, count)
    block = max(1, min(BLOCK_REPLICATIONS, BLOCK_ELEMENTS // max(elements, 1)))
    chunk = block * max(1, WORD_CHUNK // block)

    def run_range(lo: int, hi: int) -> None:
        draw, streams = make_draw(), Streams()
        for first in range(lo, hi, chunk):
            seeds = stream_seeds(keys[first:min(first + chunk, hi)], gens)
            for start in range(0, len(seeds), block):
                stop = min(start + block, len(seeds))
                streams.start(seeds[start:stop])
                out[first + start:first + stop] = draw(streams)
                streams.stop()

    if threads == 1:
        run_range(0, count)
        return out
    step = math.ceil(count / threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda lo: run_range(lo, min(lo + step, count)), range(0, count, step)))
    return out

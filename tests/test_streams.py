import numpy as np
import pytest

import mvos.streams as streams_module
from mvos.streams import Streams, derive_seed, philox_words, replicate, sfc64_states, stream_keys, stream_rng, stream_seeds


@pytest.mark.parametrize("fn", [stream_rng, derive_seed])
def test_seed_is_required(fn):
    with pytest.raises(TypeError):
        fn(None)


class TestStreamKeys:
    """The vectorised hash gives the keys ``stream_rng`` gets, bit for bit."""

    # one entropy word, two (real derive_seed outputs, as the runners use
    # for the sizes of a representation run) and three
    SEEDS = [0, 1, 2**31 - 1, 2**32, derive_seed(7, 1, 10000), derive_seed(7, 1, 20000), 2**64 + 5]

    @staticmethod
    def _key(seed, r):
        return stream_rng(seed, r).bit_generator.state["state"]["key"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_equal_stream_rng(self, seed):
        keys = stream_keys(seed, 0, 5000)
        assert keys.dtype == np.uint64 and keys.shape == (5000, 2)
        assert np.array_equal(keys, [self._key(seed, r) for r in range(5000)])

    def test_seed_words(self):
        assert [s.bit_length() > 32 for s in self.SEEDS] == [False] * 3 + [True] * 4
        assert 2**62 <= self.SEEDS[4] < 2**63 and 2**62 <= self.SEEDS[5] < 2**63

    @pytest.mark.parametrize("seed", SEEDS)
    def test_largest_replication(self, seed):
        # r = 2**32 - 1 is the last one-word spawn key; 2**32 would take two
        top = 2**32
        assert np.array_equal(stream_keys(seed, top - 2, top), [self._key(seed, r) for r in (top - 2, top - 1)])
        with pytest.raises(ValueError):
            stream_keys(seed, top - 1, top + 1)

    def test_rejects_negative_seed_and_range(self):
        with pytest.raises(ValueError):
            stream_keys(-1, 0, 3)
        with pytest.raises(ValueError):
            stream_keys(1, 3, 2)


class _Words:
    """A seed sequence that hands a bit generator the given words, so that
    numpy's own seeding runs on them."""

    def __init__(self, words):
        self.words = np.asarray(words, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == len(self.words) and dtype == np.uint64
        return self.words


np.random.bit_generator.ISeedSequence.register(_Words)


def sfc64_from_words(words) -> np.random.Generator:
    """The SFC64 generator numpy seeds from three 64-bit words."""
    return np.random.Generator(np.random.SFC64(_Words(words)))


# keys of real streams, keys whose words are all ones (every key bump
# carries) or zero, and random ones
KEYS = np.concatenate([stream_keys(7, 0, 40), stream_keys(2**64 + 5, 2**32 - 3, 2**32),
                       np.array([[2**64 - 1, 2**64 - 1], [2**64 - 1, 0], [0, 2**64 - 1], [0, 0]], np.uint64),
                       np.random.default_rng(5).integers(0, 2**64, (60, 2), np.uint64, endpoint=False)])


class TestPhiloxWords:
    """The words of a block of each key's Philox stream, bit for bit
    ``Philox.random_raw``'s."""

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("length", [0, 1, 7, len(KEYS)])
    def test_equals_random_raw(self, block, length):
        keys = KEYS[-length:] if length else KEYS[:0]
        words = philox_words(keys, block)
        assert words.dtype == np.uint64 and words.shape == (length, 4)
        for key, got in zip(keys.tolist(), words):
            raw = np.random.Philox(key=key[0] | key[1] << 64).random_raw(4 * block)
            assert np.array_equal(got, raw[-4:])

    def test_stream_rng_words(self):
        keys = stream_keys(11, 0, 9)
        words = np.concatenate((philox_words(keys, 1), philox_words(keys, 2)), axis=1)
        assert np.array_equal(words, [stream_rng(11, r).bit_generator.random_raw(8) for r in range(9)])


class TestSfc64States:
    """An SFC64 set to the state seeded from three words of a stream is the
    one numpy seeds from the same three words."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**128 + 3])
    def test_equals_numpy_seeding(self, seed, monkeypatch):
        words = np.random.SeedSequence(seed).generate_state(3, np.uint64)
        used = np.random.Generator(np.random.SFC64(99))
        used.random(1001)  # a pooled generator's past, an odd half-word included, leaves no trace
        used.integers(2**32, dtype=np.uint32)
        monkeypatch.setattr(streams_module._idle, "pool", {(0, 0): used}, raising=False)
        streams = Streams()
        streams.start(np.concatenate((np.array([7], np.uint64), sfc64_states(words[None])[0]))[None])
        gen = streams.rngs[0]
        streams.stop()
        assert gen is used and streams.keys == [7] and streams.seconds == []
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
        assert np.array_equal(gen.bit_generator.random_raw(1000), want.bit_generator.random_raw(1000))
        assert np.array_equal(gen.integers(2**32, size=5, dtype=np.uint32), want.integers(2**32, size=5, dtype=np.uint32))

    @pytest.mark.parametrize("length", [0, 1, 7, 101])
    def test_equals_numpy_seeding_of_raw_words(self, length):
        words = np.random.default_rng(length).integers(0, 2**64, (length, 3), np.uint64, endpoint=False)
        words[:1] = 2**64 - 1  # every addition carries
        states = sfc64_states(words)
        assert states.dtype == np.uint64 and states.shape == (length, 4)
        for seed, state in zip(words, states):
            assert np.array_equal(sfc64_from_words(seed).bit_generator.state["state"]["state"], state)


class TestStreamSeeds:
    """A stream's row of its key and SFC64 states: word 0, then numpy's
    seeding of SFC64 from words 1-3 and, for a second generator, 4-6."""

    @pytest.mark.parametrize("gens", [1, 2])
    def test_keys_and_generator_give_the_same_rows(self, gens):
        seeds = stream_seeds(stream_keys(13, 0, 9), gens)
        assert seeds.dtype == np.uint64 and seeds.shape == (9, 1 + 4 * gens)
        for r, row in enumerate(seeds):
            rng = stream_rng(13, r)
            words = stream_rng(13, r).bit_generator.random_raw(1 + 3 * gens)
            assert np.array_equal(stream_seeds(rng, gens), row[None])
            assert rng.bit_generator.random_raw() == stream_rng(13, r).bit_generator.random_raw(2 + 3 * gens)[-1]
            assert row[0] == words[0]
            for t in range(gens):
                want = sfc64_from_words(words[1 + 3 * t:4 + 3 * t]).bit_generator.state["state"]["state"]
                assert np.array_equal(row[1 + 4 * t:5 + 4 * t], want)

    @pytest.mark.parametrize("gens", [0, 3])
    def test_one_or_two_generators(self, gens):
        with pytest.raises(ValueError, match="1 or 2"):
            stream_seeds(stream_keys(13, 0, 2), gens)


def _main(seed, r):
    """The SFC64 generator replicate hands replication r: numpy's seeding
    from words 1-3 of the Philox stream (seed, r)."""
    return sfc64_from_words(stream_rng(seed, r).bit_generator.random_raw(4)[1:])


def _draw(streams):
    return np.array([rng.standard_normal(3) for rng in streams.rngs])


class TestReplicate:
    COUNT = 7  # not divisible by 2 or 3

    def test_rows_are_the_per_replication_streams(self):
        out = np.empty((self.COUNT, 3))
        assert replicate(out, 5, 1, lambda: _draw) is out
        for r in range(self.COUNT):
            assert np.array_equal(out[r], _main(5, r).standard_normal(3))

    def test_second_generators_and_keyed_streams(self):
        # gens = 2 seeds a second SFC64 from words 4-6, and keyed(slot, t)
        # is the Philox stream keyed (word 0, t) at counter zero
        def draw(streams):
            return np.array([[a.random(), b.random(), streams.keyed(slot, 3).random()]
                             for slot, (a, b) in enumerate(zip(streams.rngs, streams.seconds))])

        out = replicate(np.empty((self.COUNT, 3)), 14, 2, lambda: draw, 1, 2)
        for r in range(self.COUNT):
            words = stream_rng(14, r).bit_generator.random_raw(7)
            keyed = np.random.Generator(np.random.Philox(key=int(words[0]) | 3 << 64))
            want = [sfc64_from_words(words[1:4]).random(), sfc64_from_words(words[4:7]).random(), keyed.random()]
            assert np.array_equal(out[r], want)

    def test_threads_change_no_bit(self):
        serial = replicate(np.empty((self.COUNT, 3)), 6, 1, lambda: _draw)
        for threads in (2, 3):
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 6, threads, lambda: _draw), serial)

    def test_kept_generators_change_no_stream(self):
        want = [_main(10, r).standard_normal(3) for r in range(self.COUNT)]
        for _ in range(2):  # the second call sets the first call's generators anew
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: _draw), want)
        inner = []

        def draw(streams):
            # a replicate call inside a draw must leave the generators handed to it alone
            inner.append(replicate(np.empty((self.COUNT, 3)), 11, 1, lambda: _draw))
            return _draw(streams)

        assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: draw), want)
        assert inner and all(np.array_equal(v, [_main(11, r).standard_normal(3) for r in range(self.COUNT)])
                             for v in inner)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_zero_replications(self, threads):
        out = np.empty((0, 3))
        assert replicate(out, 4, threads, lambda: _draw) is out

    @pytest.mark.parametrize("threads,ranges", [(1, [(0, 7)]), (2, [(0, 4), (4, 7)]), (3, [(0, 3), (3, 6), (6, 7)])])
    def test_make_draw_called_once_per_range(self, threads, ranges):
        # each draw logs the replications it ran; a range owns one draw
        logs = []

        def make_draw():
            log = []
            logs.append(log)  # list.append is atomic, so ranges may call this at once

            def draw(streams):
                log.extend(streams.rngs)
                return [rng.random() for rng in streams.rngs]

            return draw

        out = replicate(np.empty(self.COUNT), 8, threads, make_draw)
        assert sorted(len(log) for log in logs) == sorted(hi - lo for lo, hi in ranges)
        assert np.array_equal(out, [_main(8, r).random() for r in range(self.COUNT)])

    @pytest.mark.parametrize(
        "threads,cap,elements,blocks",
        [(1, 3, 1, [3, 3, 1]), (2, 3, 1, [3, 1, 3]), (1, 64, streams_module.BLOCK_ELEMENTS // 2, [2, 2, 2, 1]),
         (1, 64, 2 * streams_module.BLOCK_ELEMENTS, [1] * 7), (3, 64, 1, [3, 3, 1])],
    )
    def test_blocks(self, threads, cap, elements, blocks, monkeypatch):
        # blocks split each range, capped by replications and by elements
        monkeypatch.setattr(streams_module, "BLOCK_REPLICATIONS", cap)
        seen = {}

        def make_draw():
            def draw(streams):
                values = _draw(streams)
                seen[values[0, 0]] = len(streams.rngs)  # keyed by the block's first value, as ranges run at once
                return values

            return draw

        out = replicate(np.empty((self.COUNT, 3)), 9, threads, make_draw, elements)
        assert [seen[v] for v in out[:, 0] if v in seen] == blocks
        assert np.array_equal(out, [_main(9, r).standard_normal(3) for r in range(self.COUNT)])

    @pytest.mark.parametrize("threads,cap,chunk,calls", [(1, 2, 5, [4, 3]), (2, 2, 5, [4, 3]), (3, 2, 1, [2, 1, 2, 1, 1]),
                                                         (1, 3, 1024, [7]), (2, 64, 1024, [4, 3])])
    def test_seeds_per_chunk(self, threads, cap, chunk, calls, monkeypatch):
        # the seeds are computed once per chunk of a range, a whole number
        # of blocks, from the chunk's keys; no Philox generator is built
        monkeypatch.setattr(streams_module, "BLOCK_REPLICATIONS", cap)
        monkeypatch.setattr(streams_module, "WORD_CHUNK", chunk)
        seeded, blocks, inner = [], [], stream_seeds

        def spy(keys, gens):
            seeded.append(len(keys))
            return inner(keys, gens)

        def draw(streams):
            blocks.append(len(streams.rngs))
            return _draw(streams)

        def never(*args):
            raise AssertionError("a Philox generator was built")

        monkeypatch.setattr(streams_module, "stream_seeds", spy)
        monkeypatch.setattr(np.random, "Philox", never)
        monkeypatch.setattr(streams_module._idle, "pool", None, raising=False)
        out = replicate(np.empty((self.COUNT, 3)), 12, threads, lambda: draw)
        monkeypatch.undo()
        assert sorted(seeded) == sorted(calls) and max(blocks) == min(cap, -(-self.COUNT // threads))
        assert np.array_equal(out, [_main(12, r).standard_normal(3) for r in range(self.COUNT)])

    @pytest.mark.parametrize("threads", [streams_module.MAX_THREADS + 1, 10**6])
    def test_too_many_threads_rejected_before_any_work(self, threads, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a pool or a draw was built")

        monkeypatch.setattr(streams_module, "ThreadPoolExecutor", never)
        with pytest.raises(ValueError, match=f"at most {streams_module.MAX_THREADS} threads"):
            replicate(np.empty((200, 3)), 1, threads, never)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_too_few_threads_rejected_before_any_work(self, threads, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a key, a pool or a draw was computed")

        monkeypatch.setattr(streams_module, "stream_keys", never)
        with pytest.raises(ValueError, match="at least 1"):
            replicate(np.empty((200, 3)), 1, threads, never)
        with pytest.raises(ValueError, match="at least 1"):
            replicate(np.empty((0, 3)), 1, threads, never)

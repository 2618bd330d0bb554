import numpy as np
import pytest

import mvos.streams as streams_module
from mvos.streams import derive_seed, replicate, seed_sfc64, stream_keys, stream_rng


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


class TestSeedSfc64:
    """An SFC64 seeded from three words of a stream is the one numpy seeds
    from the same three ``SeedSequence`` words."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**128 + 3])
    def test_equals_numpy_seeding(self, seed):
        words = np.random.SeedSequence(seed).generate_state(3, np.uint64)
        used = np.random.Generator(np.random.SFC64(99))
        used.random(1001)  # a pooled generator's past, an odd half-word included, leaves no trace
        used.integers(2**32, dtype=np.uint32)
        gen = seed_sfc64(used, words)
        assert gen is used
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
        assert np.array_equal(gen.bit_generator.random_raw(1000), want.bit_generator.random_raw(1000))
        assert np.array_equal(gen.integers(2**32, size=5, dtype=np.uint32), want.integers(2**32, size=5, dtype=np.uint32))


def _draw(rngs):
    return np.array([rng.standard_normal(3) for rng in rngs])


class TestReplicate:
    COUNT = 7  # not divisible by 2 or 3

    def test_rows_are_the_per_replication_streams(self):
        out = np.empty((self.COUNT, 3))
        assert replicate(out, 5, 1, lambda: _draw) is out
        for r in range(self.COUNT):
            assert np.array_equal(out[r], stream_rng(5, r).standard_normal(3))

    def test_threads_change_no_bit(self):
        serial = replicate(np.empty((self.COUNT, 3)), 6, 1, lambda: _draw)
        for threads in (2, 3):
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 6, threads, lambda: _draw), serial)

    def test_kept_generators_change_no_stream(self):
        want = [stream_rng(10, r).standard_normal(3) for r in range(self.COUNT)]
        for _ in range(2):  # the second call re-keys the first call's generators
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: _draw), want)
        inner = []

        def draw(rngs):
            # a replicate call inside a draw must leave the generators handed to it alone
            inner.append(replicate(np.empty((self.COUNT, 3)), 11, 1, lambda: _draw))
            return _draw(rngs)

        assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: draw), want)
        assert inner and all(np.array_equal(v, [stream_rng(11, r).standard_normal(3) for r in range(self.COUNT)])
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

            def draw(rngs):
                log.extend(rngs)
                return [rng.random() for rng in rngs]

            return draw

        out = replicate(np.empty(self.COUNT), 8, threads, make_draw)
        assert sorted(len(log) for log in logs) == sorted(hi - lo for lo, hi in ranges)
        assert np.array_equal(out, [stream_rng(8, r).random() for r in range(self.COUNT)])

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
            def draw(rngs):
                values = _draw(rngs)
                seen[values[0, 0]] = len(rngs)  # keyed by the block's first value, as ranges run at once
                return values

            return draw

        out = replicate(np.empty((self.COUNT, 3)), 9, threads, make_draw, elements)
        assert [seen[v] for v in out[:, 0] if v in seen] == blocks
        assert np.array_equal(out, [stream_rng(9, r).standard_normal(3) for r in range(self.COUNT)])

    @pytest.mark.parametrize("threads", [streams_module.MAX_THREADS + 1, 10**6])
    def test_too_many_threads_rejected_before_any_work(self, threads, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a pool or a draw was built")

        monkeypatch.setattr(streams_module, "ThreadPoolExecutor", never)
        with pytest.raises(ValueError, match=f"at most {streams_module.MAX_THREADS} threads"):
            replicate(np.empty((200, 3)), 1, threads, never)

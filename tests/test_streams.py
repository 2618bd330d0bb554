import numpy as np
import pytest

import mvos.streams as streams_module
from mvos.streams import derive_seed, replicate, stream_rng, stream_states


@pytest.mark.parametrize("fn", [stream_rng, derive_seed])
def test_seed_is_required(fn):
    with pytest.raises(TypeError):
        fn(None)


def numpy_stream(seed, r) -> np.random.Generator:
    """Replication r's generator: numpy's SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(r, 0, 0))``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(r, 0, 0))))


def _state(gen):
    return gen.bit_generator.state["state"]["state"]


class TestStreamStates:
    """The vectorised hash and seeding give the states numpy's own
    ``SFC64(SeedSequence(seed, spawn_key=(r, 0, 0)))`` starts from, bit for bit."""

    # one entropy word, two (real derive_seed outputs, as the runners use
    # for the sizes of a representation run), three, and past 2**64
    SEEDS = [0, 1, 2**31 - 1, 2**32, derive_seed(7, 1, 10000), derive_seed(7, 1, 20000), 2**64 + 5, 2**70 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_numpy(self, seed):
        states = stream_states(seed, 0, 500)
        assert states.dtype == np.uint64 and states.shape == (500, 4)
        assert np.array_equal(states, [_state(numpy_stream(seed, r)) for r in range(500)])

    def test_seed_words(self):
        assert [s.bit_length() > 32 for s in self.SEEDS] == [False] * 3 + [True] * 5
        assert 2**62 <= self.SEEDS[4] < 2**63 and 2**62 <= self.SEEDS[5] < 2**63
        assert self.SEEDS[6].bit_length() == 65 and self.SEEDS[7].bit_length() == 71

    @pytest.mark.parametrize("seed", SEEDS)
    def test_largest_replication(self, seed):
        # r = 2**32 - 1 is the last one-word spawn key; 2**32 would take two
        top = 2**32
        want = [_state(numpy_stream(seed, r)) for r in (top - 2, top - 1)]
        assert np.array_equal(stream_states(seed, top - 2, top), want)
        with pytest.raises(ValueError):
            stream_states(seed, top - 1, top + 1)

    @pytest.mark.parametrize("start,stop", [(0, 0), (3, 4), (5, 12), (100, 201)])
    def test_ranges_are_slices(self, start, stop):
        # a chunk's states are rows of any longer range: no row depends on
        # where its range starts
        assert np.array_equal(stream_states(9, start, stop), stream_states(9, 0, 201)[start:stop])

    def test_rejects_negative_seed_and_range(self):
        with pytest.raises(ValueError):
            stream_states(-1, 0, 3)
        with pytest.raises(ValueError):
            stream_states(1, 3, 2)
        assert stream_states(1, 3, 3).shape == (0, 4)


class TestChildStream:
    """The first child of the child C that a fresh ``stream_rng(seed, r)``
    spawns, ``C.spawn(1)[0]``, is (seed, (r, 0, 0)): its SFC64 starts from
    replication r's state."""

    @pytest.mark.parametrize("seed,r", [(21, 4), (2**200 + 3, 2**31)])
    def test_equals_numpy_stream(self, seed, r):
        child = np.random.SeedSequence(seed, spawn_key=(r, 0))
        (grandchild,) = child.spawn(1)
        assert (grandchild.entropy, grandchild.spawn_key) == (seed, (r, 0, 0))
        gen = np.random.Generator(np.random.SFC64(grandchild))
        assert np.array_equal(_state(gen), stream_states(seed, r, r + 1)[0])
        assert np.array_equal(gen.bit_generator.random_raw(100), numpy_stream(seed, r).bit_generator.random_raw(100))

    def test_stream_rng_child_seeds_the_replicated_generators(self):
        out = replicate(np.empty((5, 2)), 13, 1, lambda: lambda rngs: [rng.random(2) for rng in rngs])
        for r in range(5):
            (child,) = stream_rng(13, r).bit_generator.seed_seq.spawn(1)
            assert child.spawn_key == (r, 0)
            assert np.array_equal(out[r], np.random.Generator(np.random.SFC64(child.spawn(1)[0])).random(2))


class TestSfc64States:
    """A kept generator set to a replication's state is the one numpy seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**128 + 3])
    def test_equals_numpy_seeding(self, seed, monkeypatch):
        pool = {}
        used = streams_module._seeded(pool, 0, [99, 98, 97, 1, 0])
        used.random(1001)  # a kept generator's past, an odd half-word included, leaves no trace
        used.integers(2**32, dtype=np.uint32)
        assert used.bit_generator.state["has_uint32"] == 1
        monkeypatch.setattr(streams_module._idle, "pool", pool, raising=False)
        handed = []

        def draw(rngs):
            handed.append(rngs)
            return np.zeros((len(rngs), 1))

        replicate(np.empty((1, 1)), seed, 1, lambda: draw)
        assert handed == [[used]] and streams_module._idle.pool is pool and list(pool) == [0]
        want = numpy_stream(seed, 0)
        assert np.array_equal(used.bit_generator.random_raw(1000), want.bit_generator.random_raw(1000))
        assert np.array_equal(used.integers(2**32, size=5, dtype=np.uint32), want.integers(2**32, size=5, dtype=np.uint32))

    @pytest.mark.parametrize("r", [0, 4])
    def test_state_view_sets_what_numpys_setter_sets(self, r):
        # the pooled view holds numpy's SFC64 state struct: writing its four
        # state words and a zero buffer word gives the state numpy's dict
        # setter gives, a buffered half-word of the generator's past dropped
        pool = {}
        gen = streams_module._seeded(pool, 3, [5, 6, 7, 1, 0])
        other = np.random.Generator(np.random.SFC64(5))
        for g in (gen, other):
            g.random(3)
            g.integers(2**32, dtype=np.uint32)
        want = numpy_stream(17, r).bit_generator.state
        other.bit_generator.state = want
        assert streams_module._seeded(pool, 3, [*want["state"]["state"], 0]) is gen
        for g in (gen, other):
            got = g.bit_generator.state
            assert np.array_equal(got["state"]["state"], want["state"]["state"])
            assert (got["has_uint32"], got["uinteger"]) == (0, 0)
        assert np.array_equal(gen.integers(2**32, size=7, dtype=np.uint32), other.integers(2**32, size=7, dtype=np.uint32))
        assert np.array_equal(gen.bit_generator.random_raw(9), other.bit_generator.random_raw(9))


def _draw(rngs):
    return np.array([rng.standard_normal(3) for rng in rngs])


class TestReplicate:
    COUNT = 7  # not divisible by 2 or 3

    def test_rows_are_the_per_replication_streams(self):
        out = np.empty((self.COUNT, 3))
        assert replicate(out, 5, 1, lambda: _draw) is out
        for r in range(self.COUNT):
            assert np.array_equal(out[r], numpy_stream(5, r).standard_normal(3))

    def test_threads_change_no_bit(self):
        serial = replicate(np.empty((self.COUNT, 3)), 6, 1, lambda: _draw)
        for threads in (2, 3):
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 6, threads, lambda: _draw), serial)

    def test_kept_generators_change_no_stream(self):
        want = [numpy_stream(10, r).standard_normal(3) for r in range(self.COUNT)]
        for _ in range(2):  # the second call sets the first call's generators anew
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: _draw), want)
        inner = []

        def draw(rngs):
            # a replicate call inside a draw must leave the generators handed to it alone
            inner.append(replicate(np.empty((self.COUNT, 3)), 11, 1, lambda: _draw))
            return _draw(rngs)

        assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 10, 1, lambda: draw), want)
        assert inner and all(np.array_equal(v, [numpy_stream(11, r).standard_normal(3) for r in range(self.COUNT)])
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
        assert np.array_equal(out, [numpy_stream(8, r).random() for r in range(self.COUNT)])

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
        assert np.array_equal(out, [numpy_stream(9, r).standard_normal(3) for r in range(self.COUNT)])

    @pytest.mark.parametrize("threads,cap,chunk,calls", [(1, 2, 5, [4, 3]), (2, 2, 5, [4, 3]), (3, 2, 1, [2, 1, 2, 1, 1]),
                                                         (1, 3, 1024, [7]), (2, 64, 1024, [4, 3])])
    def test_states_per_chunk(self, threads, cap, chunk, calls, monkeypatch):
        # the states are computed once per chunk of a range, a whole number
        # of blocks, from the chunk's replication indices; no Philox
        # generator is built
        monkeypatch.setattr(streams_module, "BLOCK_REPLICATIONS", cap)
        monkeypatch.setattr(streams_module, "STATE_CHUNK", chunk)
        seeded, blocks, inner = [], [], stream_states

        def spy(seed, start, stop):
            seeded.append(stop - start)
            return inner(seed, start, stop)

        def draw(rngs):
            blocks.append(len(rngs))
            return _draw(rngs)

        def never(*args):
            raise AssertionError("a Philox generator was built")

        monkeypatch.setattr(streams_module, "stream_states", spy)
        monkeypatch.setattr(np.random, "Philox", never)
        monkeypatch.setattr(streams_module._idle, "pool", None, raising=False)
        out = replicate(np.empty((self.COUNT, 3)), 12, threads, lambda: draw)
        monkeypatch.undo()
        assert sorted(seeded) == sorted(calls) and max(blocks) == min(cap, -(-self.COUNT // threads))
        assert np.array_equal(out, [numpy_stream(12, r).standard_normal(3) for r in range(self.COUNT)])

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
            raise AssertionError("a state, a pool or a draw was computed")

        monkeypatch.setattr(streams_module, "stream_states", never)
        with pytest.raises(ValueError, match="at least 1"):
            replicate(np.empty((200, 3)), 1, threads, never)
        with pytest.raises(ValueError, match="at least 1"):
            replicate(np.empty((0, 3)), 1, threads, never)

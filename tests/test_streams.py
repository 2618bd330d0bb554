import numpy as np
import pytest

from mvos.streams import derive_seed, replicate, stream_rng


@pytest.mark.parametrize("fn", [stream_rng, derive_seed])
def test_seed_is_required(fn):
    with pytest.raises(TypeError):
        fn(None)


def _draw(rng):
    return rng.standard_normal(3)


class TestReplicate:
    COUNT = 7  # not divisible by 2 or 3

    def test_rows_are_the_per_replication_streams(self):
        out = np.empty((self.COUNT, 3))
        assert replicate(out, 5, 1, lambda: _draw) is out
        for r in range(self.COUNT):
            assert np.array_equal(out[r], _draw(stream_rng(5, r)))

    def test_threads_change_no_bit(self):
        serial = replicate(np.empty((self.COUNT, 3)), 6, 1, lambda: _draw)
        for threads in (2, 3):
            assert np.array_equal(replicate(np.empty((self.COUNT, 3)), 6, threads, lambda: _draw), serial)

    @pytest.mark.parametrize("threads,ranges", [(1, [(0, 7)]), (2, [(0, 4), (4, 7)]), (3, [(0, 3), (3, 6), (6, 7)])])
    def test_make_draw_called_once_per_range(self, threads, ranges):
        # each draw logs the replications it ran; a range owns one draw
        logs = []

        def make_draw():
            log = []
            logs.append(log)  # list.append is atomic, so ranges may call this at once

            def draw(rng):
                log.append(rng)
                return rng.random()

            return draw

        out = replicate(np.empty(self.COUNT), 8, threads, make_draw)
        assert sorted(len(log) for log in logs) == sorted(hi - lo for lo, hi in ranges)
        assert np.array_equal(out, [stream_rng(8, r).random() for r in range(self.COUNT)])

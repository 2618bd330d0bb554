"""Blocks of replications change no bit.

``streams.replicate`` hands each thread's replications to the samplers in
blocks.  Whatever the block size, the thread count, the batch sizes, and
whether a replication in a block draws all n Marshall-Olkin rows or
redraws tilted-stable proposals, every replication must equal its own
per-replication oracle: ``componentwise_os(sample_rows(...))`` for the
selection where it shares the draws of ``sample_rows``, its selection in
blocks of one replication for Gumbel top rows at p != 2, and the
documented per-chunk stream for the ratio sampler.
"""
import numpy as np
import pytest

import mvos.chi2rep as chi2rep_module
import mvos.copula as copula_module
import mvos.experiment as experiment_module
import mvos.streams as streams_module
from mvos.chi2rep import correlated_ratio_sample
from mvos.copula import GumbelLogistic, os_selector, sample_rows
from mvos.experiment import ExperimentConfig, _collect_os
from mvos.orderstats import IntermediateSpec, PowerKRule, componentwise_os
from mvos.streams import stream_rng

from test_chi2rep import _random_correlation, _stream_contract_ratios

R = 130  # more than two default blocks of the selection below
# n = 100 and k = 25: at p = 2 every row is a top row, drawn in closed form
# with no proposals, and the replications stop after different numbers of
# them; at p = 3 the first batch reaches L = 37 rows, so every replication
# draws all n Marshall-Olkin rows.  At n = 300 and k = 54 p = 3 draws top
# rows, and many of them reject all their in-row stable proposals, a few
# twice
MODEL, N, SEED = GumbelLogistic(2, 2.0), 100, 31
INTERMEDIATE = IntermediateSpec((PowerKRule(2.5, 0.5),) * 2, "n-k")
CONFIG = ExperimentConfig(copula=MODEL, n=N, replications=R, seed=SEED, intermediate=INTERMEDIATE)
MARSHALL_OLKIN = ExperimentConfig(copula=GumbelLogistic(2, 3.0), n=N, replications=R, seed=SEED,
                                  intermediate=INTERMEDIATE)
PROPOSALS = ExperimentConfig(copula=GumbelLogistic(2, 3.0), n=300, replications=R, seed=SEED,
                             intermediate=IntermediateSpec((PowerKRule(1.0, 0.7),) * 2, "n-k"))
RANKS = CONFIG.intermediate.ranks(N)
LAM = _random_correlation(3, seed=3)

# (replications per block at most, threads); None keeps the default cap
SETUPS = [(cap, threads) for cap in (1, 3, None) for threads in (1, 2, 3)]


def _spy_blocks(monkeypatch, module):
    """Record the size of every block the module's replicate hands out."""
    sizes, inner = [], module.replicate

    def spy(out, seed, threads, make_draw, elements=1, gens=1):
        def make():
            draw = make_draw()
            return lambda block: sizes.append(len(block.rngs)) or draw(block)

        return inner(out, seed, threads, make, elements, gens)

    monkeypatch.setattr(module, "replicate", spy)
    return sizes


def _set_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(streams_module, "BLOCK_REPLICATIONS", cap)


def _check_sizes(sizes, cap, threads, elements, count=R):
    block = cap or min(streams_module.BLOCK_REPLICATIONS, streams_module.BLOCK_ELEMENTS // elements)
    assert sum(sizes) == count
    assert max(sizes) == min(block, -(-count // threads))


def _oracle(config):
    return np.array([componentwise_os(sample_rows(config.copula, N, stream_rng(SEED, r)), RANKS) for r in range(R)])


@pytest.fixture(scope="module")
def selection_oracle():
    return _oracle(CONFIG)


@pytest.fixture(scope="module")
def marshall_olkin_oracle():
    return _oracle(MARSHALL_OLKIN)


@pytest.fixture(scope="module")
def proposals_oracle():
    # top rows at p != 2 draw rows of their own: their selection in blocks of one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams_module, "BLOCK_REPLICATIONS", 1)
        return _collect_os(PROPOSALS, PROPOSALS.n, SEED, 1)[0]


class TestSelection:
    @pytest.mark.parametrize("cap,threads", SETUPS)
    def test_blocks_and_threads(self, cap, threads, selection_oracle, monkeypatch):
        _set_cap(monkeypatch, cap)
        sizes = _spy_blocks(monkeypatch, experiment_module)
        values, _ = _collect_os(CONFIG, N, SEED, threads)
        assert np.array_equal(values, selection_oracle)
        _check_sizes(sizes, cap, threads, os_selector(MODEL, N, RANKS)[1])

    def test_replications_stop_in_different_rounds(self, selection_oracle, monkeypatch):
        # batches of 1, 1, 1, 2, 3, ... rows: a block's replications stop
        # after different rounds and the others go on as a smaller block
        monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: 1)
        active = []
        next_rows = copula_module._MaxOrderRows.next_rows
        monkeypatch.setattr(copula_module._MaxOrderRows, "next_rows",
                            lambda rows, out, slots: active.append(len(slots)) or next_rows(rows, out, slots))
        values, _ = _collect_os(CONFIG, N, SEED, 1)
        assert np.array_equal(values, selection_oracle)
        assert any(0 < b < a for a, b in zip(active, active[1:]))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_blocks_of_marshall_olkin_rows(self, threads, marshall_olkin_oracle, monkeypatch):
        # blocks of several replications, each of which draws all n rows
        sizes, draw = [], copula_module._marshall_olkin
        monkeypatch.setattr(copula_module, "_marshall_olkin", lambda model, out, rng: sizes.append(len(out)) or draw(model, out, rng))
        blocks = _spy_blocks(monkeypatch, experiment_module)
        values, _ = _collect_os(MARSHALL_OLKIN, N, SEED, threads)
        assert np.array_equal(values, marshall_olkin_oracle)
        assert sizes == [N] * R and max(blocks) > 1

    def test_block_with_proposal_redraws(self, proposals_oracle, monkeypatch):
        # a top row that rejects all of its in-row stable proposals draws
        # more from its replication's stream 2, and then stream 3
        redraws = set()
        sub = streams_module.Streams.stream
        monkeypatch.setattr(streams_module.Streams, "stream",
                            lambda streams, slot, t: redraws.add((len(streams.rngs), t)) or sub(streams, slot, t))
        values, _ = _collect_os(PROPOSALS, PROPOSALS.n, SEED, 1)
        assert np.array_equal(values, proposals_oracle)
        assert {2, 3} <= {t for size, t in redraws if size > 1}


class TestRatioSamplers:
    """The ratio sampler's replications are chunks of RATIO_CHUNK rows, and
    ``replicate`` hands out blocks of chunks."""

    N, K = 40, 3
    CHUNKS = -(-R // chi2rep_module.RATIO_CHUNK)

    @pytest.mark.parametrize("cap,threads", SETUPS)
    def test_correlated(self, cap, threads, monkeypatch):
        _set_cap(monkeypatch, cap)
        sizes = _spy_blocks(monkeypatch, chi2rep_module)
        got = correlated_ratio_sample(LAM, self.N, self.K, R, seed=SEED, threads=threads)
        assert np.array_equal(got, _stream_contract_ratios(LAM, self.N, self.K, R, SEED))
        _check_sizes(sizes, cap, threads, chi2rep_module.RATIO_CHUNK * (3 * 3 + 3 * 3), self.CHUNKS)

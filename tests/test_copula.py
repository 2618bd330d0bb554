import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import mvos.copula as copula_module
import mvos.streams as streams_module
from mvos.copula import (
    Comonotone,
    GumbelLogistic,
    Independence,
    SAMPLE_CHUNK,
    copula_cdf,
    copula_sample,
    log_positive_stable,
    os_selector,
    sample_rows,
    tail_expansion_check,
)
from mvos._special import ndtr
from mvos.cli import main
from mvos.diagnostics import ks_critical_value, ks_statistic
from mvos.dnorm import dnorm_eval
from mvos.orderstats import IntermediateSpec, componentwise_os
from mvos.streams import replicate, stream_rng
from mvos.wire import from_json, to_json

from exact_laws import beta_quantile_grid, ecdf_on_grid, os_joint_cdf
from test_streams import _state, numpy_stream


def _shares_sample_rows(model, n, ranks):
    """Whether the selection's values are ``componentwise_os(sample_rows(...))``'s:
    all but Gumbel top rows at p != 2, which draw their own rows."""
    depth = int(np.max(copula_module._depths(model, n, ranks)))
    return not copula_module._stable(model) or model.p == 2.0 or copula_module._marshall_olkin_path(model, n, depth)


def _reference(model, n, ranks, seed, reps):
    """The selection's values as ``componentwise_os(sample_rows(...))`` where it
    shares their draws, else as a selection in blocks of one replication."""
    if _shares_sample_rows(model, n, ranks):
        return np.array([componentwise_os(sample_rows(model, n, stream_rng(seed, r)), ranks) for r in range(reps)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams_module, "BLOCK_REPLICATIONS", 1)
        return replicate(np.empty((reps, model.d)), seed, 1, *os_selector(model, n, ranks))


def _block(seed, reps):
    """The generators of a block of replications ``reps`` of the stream
    ``seed``, built by numpy's own constructors."""
    return [numpy_stream(seed, r) for r in reps]


def _spy_rounds(monkeypatch):
    """Record the redraw rounds of every ``_MaxOrderRows._tilted_stable``
    call as (block size, {round t >= 2: the block slots that draw in it}).
    Round 1 holds a row's in-row proposals, and a slot draws once in each
    later round while it has rows going, so its j-th ``random`` call on its
    replication's generator during the call is round j + 1."""
    calls, tilted = [], copula_module._MaxOrderRows._tilted_stable

    def spy(rows, u, log_theta, slots):
        rngs, rounds = rows.rngs, {}

        class Redraws:
            def __init__(self, slot):
                self.slot, self.round = slot, 1

            def random(self, *args, **kwargs):
                self.round += 1
                rounds.setdefault(self.round, set()).add(self.slot)
                return rngs[self.slot].random(*args, **kwargs)

        rows.rngs = [Redraws(slot) for slot in range(len(rngs))]
        try:
            return tilted(rows, u, log_theta, slots)
        finally:
            rows.rngs = rngs
            calls.append((len(rngs), rounds))

    monkeypatch.setattr(copula_module._MaxOrderRows, "_tilted_stable", spy)
    return calls


class TestCdf:
    def test_independence(self):
        assert copula_cdf(Independence(2), [0.5, 0.5]) == 0.25

    def test_comonotone(self):
        assert copula_cdf(Comonotone(3), [0.2, 0.9, 0.4]) == pytest.approx(0.2)

    def test_gumbel_exponent_arithmetic(self):
        # exponent norms (3, 4) to 5
        u = [np.exp(-3.0), np.exp(-4.0)]
        assert_allclose(copula_cdf(GumbelLogistic(2, 2.0), u), np.exp(-5.0), rtol=1e-14)

    def test_upper_corner_is_one(self):
        for model in (Independence(2), Comonotone(2), GumbelLogistic(2, 3.0)):
            assert copula_cdf(model, [1.0, 1.0]) == 1.0

    def test_zero_coordinate_gives_zero(self):
        assert copula_cdf(GumbelLogistic(2, 2.0), [0.0, 0.5]) == 0.0

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(0)
        for model in (Independence(3), Comonotone(3), GumbelLogistic(3, 1.7)):
            u = rng.uniform(0.1, 0.9, size=3)
            base = copula_cdf(model, u)
            for i in range(3):
                v = u.copy()
                v[i] = min(1.0, u[i] + 0.05)
                assert copula_cdf(model, v) >= base - 1e-15

    def test_rejects_outside_unit_cube(self):
        with pytest.raises(ValueError):
            copula_cdf(Independence(2), [0.5, 1.2])


class TestSampling:
    def test_reproducible_bit_for_bit(self):
        a = copula_sample(Independence(2), 4, seed=9)
        b = copula_sample(Independence(2), 4, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (4, 2)

    def test_comonotone_rows_equal(self):
        rows = copula_sample(Comonotone(2), 1000, seed=5)
        assert np.array_equal(rows[:, 0], rows[:, 1])

    def test_chunked_assembly_matches_streaming_contract(self):
        # any per-chunk partition of the work rebuilds the same batch
        n = SAMPLE_CHUNK + 1234
        model = GumbelLogistic(2, 2.0)
        full = copula_sample(model, n, seed=13)
        manual = np.concatenate(
            [
                sample_rows(model, SAMPLE_CHUNK, stream_rng(13, 0)),
                sample_rows(model, n - SAMPLE_CHUNK, stream_rng(13, 1)),
            ]
        )
        assert np.array_equal(full, manual)

    def test_gumbel_empirical_cdf_matches_analytic(self):
        n = 10**5
        model = GumbelLogistic(2, 2.0)
        u = copula_sample(model, n, seed=21)
        rng = np.random.default_rng(77)
        for _ in range(10):
            pt = rng.uniform(0.2, 0.9, size=2)
            emp = np.mean((u[:, 0] <= pt[0]) & (u[:, 1] <= pt[1]))
            th = copula_cdf(model, pt)
            se = np.sqrt(th * (1.0 - th) / n)
            assert abs(emp - th) <= 4.0 * se

    def test_marshall_olkin_rows_follow_the_copula(self):
        # p != 2 rows are Marshall-Olkin's exp(-(E_j / S)^(1 / p))
        n = 10**5
        model = GumbelLogistic(2, 3.0)
        u = copula_sample(model, n, seed=23)
        rng = np.random.default_rng(79)
        for _ in range(10):
            pt = rng.uniform(0.2, 0.9, size=2)
            th = copula_cdf(model, pt)
            assert abs(np.mean(np.all(u <= pt, axis=1)) - th) <= 4.0 * np.sqrt(th * (1.0 - th) / n)

    @pytest.mark.parametrize("model", [Independence(2), GumbelLogistic(2, 2.0), GumbelLogistic(3, 1.3)],
                             ids=lambda m: m.label())
    def test_margins_uniform_ks(self, model):
        # 10^6 rows bound each column's KS distance by 0.0019 at level 1e-3
        n = 10**6
        u = copula_sample(model, n, seed=31)
        crit = ks_critical_value(1e-3, n)
        for i in range(model.d):
            assert ks_statistic(u[:, i], lambda x: x) < crit

    def test_gumbel_p1_equals_independence(self):
        # with p = 1 the product of coordinates must follow the independence law
        n = 10**5
        u = copula_sample(GumbelLogistic(2, 1.0), n, seed=41)
        prod = u[:, 0] * u[:, 1]
        cdf = lambda t: t - t * np.log(t)  # P(U1 U2 <= t)
        assert ks_statistic(prod, cdf) < ks_critical_value(1e-3, n)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            copula_sample(Independence(2), 0, seed=1)

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_finite_rows_at_the_largest_p(self, n):
        # Marshall-Olkin rows, and top rows with their stable proposals (the
        # column maxima at n = 100), stay finite at p = MAX_P
        model = GumbelLogistic(2, copula_module.MAX_P)
        for seed in range(40):
            rows = copula_sample(model, n, seed)
            assert np.all(np.isfinite(rows)) and np.all((rows >= 0.0) & (rows <= 1.0))
        for rank in (n - n // 3, n):
            got = replicate(np.empty((40, 2)), 3, 1, *os_selector(model, n, np.full(2, rank)))
            assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("p", [np.nextafter(2.0**1014, np.inf), 4e307, 1e308, np.inf, np.nan, 0.5])
    def test_rejects_p_past_the_cap(self, p):
        with pytest.raises(ValueError, match="1 <= p <= 2"):
            GumbelLogistic(2, p)

    def test_positive_stable_laplace_transform(self):
        # E exp(-s S) = exp(-s^alpha), checked by Monte Carlo at a few s
        rng = np.random.default_rng(3)
        alpha = 0.5
        s_draws = np.exp(log_positive_stable(alpha, 2 * 10**5, rng))
        for s in (0.5, 1.0, 2.0):
            vals = np.exp(-s * s_draws)
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - np.exp(-(s**alpha))) <= 4.0 * se

    @pytest.mark.parametrize("alpha", [0.5, 1.0 / 1.5, 1.0 / 64.0])
    def test_log_positive_stable_matches_formula(self, alpha):
        expected = _allocating_log_positive_stable(alpha, 2500, stream_rng(72, 0))
        assert np.array_equal(log_positive_stable(alpha, 2500, stream_rng(72, 0)), expected)

    def test_log_positive_stable_small_alpha_stays_finite(self):
        # on the log scale even 1/alpha = 64 is representable; the linear
        # scale legitimately overflows for such heavy tails
        rng = np.random.default_rng(6)
        log_s = log_positive_stable(1.0 / 64.0, 10**5, rng)
        assert np.all(np.isfinite(log_s))

    def test_high_p_gumbel_margins_and_near_comonotone(self):
        n = 10**5
        u = copula_sample(GumbelLogistic(2, 50.0), n, seed=51)
        assert np.all((u >= 0) & (u <= 1))
        crit = ks_critical_value(1e-3, n)
        for i in range(2):
            assert ks_statistic(u[:, i], lambda x: x) < crit
        # p = 50 sits close to the comonotone diagonal
        assert np.corrcoef(u.T)[0, 1] > 0.99


class TestTailExpansion:
    def test_independence_pair_quotient(self):
        # (1 - (1-t)^2) / t = 2 - t
        rows = tail_expansion_check(Independence(2), [1.0, 1.0], [1e-4])
        assert_allclose(rows[0, 1], 2.0 - 1e-4, rtol=1e-9)
        assert abs(rows[0, 1] - 2.0) < 1e-3

    def test_comonotone_exact(self):
        # roundoff in 1 - C(1 - t x) grows like eps / t, so allow 1e-9
        rows = tail_expansion_check(Comonotone(2), [1.0, 2.0], [0.3, 1e-2, 1e-5])
        assert_allclose(rows[:, 1], 2.0, rtol=1e-9)

    def test_gumbel_pair_quotient(self):
        rows = tail_expansion_check(GumbelLogistic(2, 2.0), [1.0, 1.0], [1e-4])
        assert abs(rows[0, 1] - np.sqrt(2.0)) < 1e-3

    @pytest.mark.parametrize(
        "model",
        [Independence(2), Comonotone(2), GumbelLogistic(2, 2.0),
         Independence(3), Comonotone(5), GumbelLogistic(3, 1.5), GumbelLogistic(5, 4.0)],
        ids=lambda m: m.label(),
    )
    def test_quotient_within_linear_band(self, model):
        # remainder of the expansion is O(t) for every builtin family
        rng = np.random.default_rng(11)
        t_grid = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, size=model.d)
            target = dnorm_eval(model.tail_dnorm, x)
            rows = tail_expansion_check(model, x, t_grid)
            assert np.all(np.abs(rows[:, 1] - target) <= 100.0 * t_grid)

    def test_grid_leaving_cube_rejected(self):
        with pytest.raises(ValueError):
            tail_expansion_check(Independence(2), [1.0, 2.0], [0.6])

    @pytest.mark.parametrize(
        "model",
        [Independence(3), Comonotone(3), GumbelLogistic(3, 2.0), GumbelLogistic(4, 64.0), GumbelLogistic(2, 1.0)],
        ids=lambda m: m.label(),
    )
    def test_grid_equals_one_cdf_call_per_t(self, model):
        # the whole grid is one copula_cdf call on 1 - t x; each row must
        # equal the call at that t alone, bit for bit
        x = np.linspace(0.25, 1.5, model.d)
        t_grid = np.geomspace(0.5, 1e-9, 40)
        rows = tail_expansion_check(model, x, t_grid)
        for (t, quotient), t_alone in zip(rows, t_grid):
            assert t == t_alone
            assert quotient == (1.0 - copula_cdf(model, 1.0 - t_alone * x)) / t_alone


# tracemalloc factors of the Marshall-Olkin path: a selection's, and sample_rows'
MO_MEASURED, MO_SAMPLE_MEASURED = 1.93, 1.07


class TestReplicationMemory:
    """Peak memory of one replication against the count of values it draws
    at once that ``os_selector`` returns, which the config cap
    (``streams.REPLICATION_ELEMENTS``) bounds: tracemalloc's peak over a
    one-replication ``replicate`` call, divided by 8 bytes per counted
    value.  Large draws measure 2.2 to 3.5 (the
    uniforms, their logs and the row divisors, or the top rows' uniforms
    and the planes they become, which at p = 2 outweigh the uniforms of a
    row, 4 at d = 2 and d + 4 at other d), or 1.9 for Marshall-Olkin rows
    at n = 2·10^4 (the rows, and one chunk's temporaries, which weigh less
    as n grows); small ones reach 4, where fixed costs dominate.  Each case keeps 15% headroom over its measured
    factor.  The measured call runs on a cold kept store: a thread keeps
    its working arrays of at most ``streams.BLOCK_ELEMENTS`` elements
    between calls, and a warm call at gumbel-p2-top-rows' size, whose
    arrays all fit, allocated 0.43 of them."""

    @pytest.mark.parametrize(
        "model,n,rank,measured",
        [
            (Independence(2), 10**6, 10**6 - 200000, 2.52),  # spacings, one plane per column
            (Comonotone(3), 10**6, 10**6 - 200000, 3.00),  # spacings, one shared plane
            (GumbelLogistic(2, 3.0), 10**6, 10**6 - 10**4 + 1, 3.01),  # top rows in batches, stable proposals
            (GumbelLogistic(2, 2.0), 10**6, 10**6 - 10**4 + 1, 3.51),  # top rows in batches, no frailty at d = 2
            (GumbelLogistic(2, 3.0), 20000, 2000, MO_MEASURED),  # past L: all n rows by Marshall-Olkin
            (GumbelLogistic(2, 2.0), 20000, 2000, 3.51),  # a first batch of all n rows, 4 n uniforms at d = 2
        ],
        ids=["spacings-independence", "spacings-comonotone", "gumbel-top-rows", "gumbel-p2-top-rows", "gumbel-marshall-olkin",
             "gumbel-p2-all-rows"],
    )
    def test_peak_per_counted_value(self, model, n, rank, measured):
        make, elements = os_selector(model, n, rank)
        out = np.empty((1, model.d))
        replicate(out, 1, 1, make, elements)  # the thread's generator pool, built once
        streams_module._idle.store = None  # and its working arrays dropped
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            replicate(out, 2, 1, make, elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor = peak / (8 * elements)
        assert 1.0 <= factor <= 1.15 * measured

    def test_sample_rows_draws_its_top_rows_in_batches(self):
        # at p = 2 all n rows are top rows; drawn in one batch their
        # temporaries took the peak to 9.6 n d 8 bytes at n = 10^6, in
        # batches 3.6 with a copy of the top rows, and with none 2.58 (the
        # top rows, the output and the rows' positions)
        model, n = GumbelLogistic(2, 2.0), 10**6
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            sample_rows(model, n, stream_rng(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * 2.58 * 8 * n * model.d

    def test_marshall_olkin_sample_rows_peak(self):
        # at p != 2 the n rows and one chunk's temporaries
        model, n = GumbelLogistic(2, 3.0), 10**6
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            sample_rows(model, n, stream_rng(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * MO_SAMPLE_MEASURED * 8 * n * model.d


class TestKeptArrays:
    """Each thread keeps its working arrays of at most
    ``streams.BLOCK_ELEMENTS`` elements between ``replicate`` calls
    (``streams.range_store``), so a warm call allocates a fraction of
    what a cold one does, and what it keeps changes no value."""

    # copula-gumbel's selection, and representation's at n
    CONFIGS = [(GumbelLogistic(2, 2.0), 20000, 500), (GumbelLogistic(2, 2.0), 10000, 150)]

    @pytest.mark.parametrize("model,n,reps", CONFIGS, ids=["copula-gumbel", "representation"])
    def test_warm_call_allocates_a_fifth_of_a_cold_one(self, model, n, reps):
        # tracemalloc's peak over the call: a warm one measured 0.16 and
        # 0.17 of a cold one (the maxima and the stop test's arrays are
        # still allocated), with 15% headroom
        make, elements = os_selector(model, n, IntermediateSpec.equal(2).ranks(n))
        out = np.empty((reps, model.d))
        replicate(out, 1, 1, make, elements)  # the thread's generator pool, built once
        peaks = []
        for cold in (True, False):
            if cold:
                streams_module._idle.store = None
            assert not tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                replicate(out, 2, 1, make, elements)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.2 * peaks[0]

    @pytest.mark.parametrize(
        "model,rank",
        [(Independence(2), 10**6 - 200000), (GumbelLogistic(2, 3.0), 10**6 - 10**4 + 1), (GumbelLogistic(2, 2.0), 10**6 - 10**4 + 1)],
        ids=lambda x: x.label() if hasattr(x, "label") else None,
    )
    def test_keeps_no_array_above_a_block(self, model, rank, monkeypatch):
        # at n = 10^6 the first two draw arrays of more than BLOCK_ELEMENTS
        # values, which the call frees; the thread keeps the others
        n, sizes, reused = 10**6, {}, copula_module._reused

        def spy(store, name, shape):
            sizes[name] = max(sizes.get(name, 0), math.prod(shape))
            return reused(store, name, shape)

        monkeypatch.setattr(copula_module, "_reused", spy)
        streams_module._idle.store = None
        make, elements = os_selector(model, n, rank)
        replicate(np.empty((2, model.d)), 3, 1, make, elements)
        block = streams_module.BLOCK_ELEMENTS
        assert (max(sizes.values()) > block) == (elements > block)
        assert {name for name, size in sizes.items() if size <= block} == set(streams_module._idle.store)
        assert all(array.size <= block for array in streams_module._idle.store.values())

    def test_kept_arrays_change_no_value(self, monkeypatch):
        # copula-gumbel's selection after other draws on the thread's kept
        # arrays, and with another selection run after each of its batches,
        # while its first batch waits in its range's store, against a cold call
        model, n, ranks = GumbelLogistic(2, 2.0), 20000, IntermediateSpec.equal(2).ranks(20000)
        other = os_selector(GumbelLogistic(5, 2.0), 500, IntermediateSpec.equal(5).ranks(500))
        streams_module._idle.store = None
        want = replicate(np.empty((130, 2)), 4, 1, *os_selector(model, n, ranks))
        alone = replicate(np.empty((70, 5)), 5, 1, *other)
        for between in (lambda: sample_rows(model, n, stream_rng(6, 0)),
                        lambda: replicate(np.empty((70, 5)), 5, 1, *other),
                        lambda: replicate(np.empty((70, 3)), 7, 1, *os_selector(Independence(3), n, ranks[:1]))):
            between()
            assert np.array_equal(replicate(np.empty((130, 2)), 4, 1, *os_selector(model, n, ranks)), want)
        inner, next_rows = [], copula_module._MaxOrderRows.next_rows

        def nested(rows, out, slots):
            maxima = next_rows(rows, out, slots)
            if rows.d == 2:  # the other selection's own batches nest nothing
                inner.append(replicate(np.empty((70, 5)), 5, 1, *other))
            return maxima

        monkeypatch.setattr(copula_module._MaxOrderRows, "next_rows", nested)
        assert np.array_equal(replicate(np.empty((130, 2)), 4, 1, *os_selector(model, n, ranks)), want)
        assert inner and all(np.array_equal(values, alone) for values in inner)


class TestFrailtyGivenMaximum:
    """At p = 2 (alpha = 1/2) ``_MaxOrderRows`` draws a top row's 1 / S,
    S its frailty given the row maximum, in closed form from
    r = sqrt(theta), the row's Renyi sum g.  The law of S must be the one
    the Kanter and Gamma path draws at other p, whose Laplace transform is
    (1 + l / theta)^(alpha - 1) exp(theta^alpha - (theta + l)^alpha), and
    1 / S must be inverse Gaussian IG(2 sqrt(theta), 2 theta).  Each theta
    draws R = 10^6 values from its own seed."""

    R = 10**6
    THETAS = [1e-8, 1e-4, 1e-2, 1.0]

    def _inverse(self, theta, seed):
        u = 1.0 - np.random.default_rng(seed).random((3, self.R))
        return copula_module._inverse_frailty_half(np.full(self.R, math.sqrt(theta)), np.log(u[0]), u[1], u[2])

    @pytest.mark.parametrize("theta,seed", zip(THETAS, [8301, 8302, 8303, 8304]))
    def test_laplace_transform(self, theta, seed):
        # |z| <= 4.5 at l = theta / 10, theta and 10 theta
        s = 1.0 / self._inverse(theta, seed)
        for l in (0.1 * theta, theta, 10.0 * theta):
            values = np.exp(-l * s)
            want = (1.0 + l / theta) ** -0.5 * math.exp(math.sqrt(theta) - math.sqrt(theta + l))
            assert abs(values.mean() - want) <= 4.5 * values.std() / math.sqrt(self.R)

    @pytest.mark.parametrize("theta,seed", zip(THETAS, [8305, 8306, 8307, 8308]))
    def test_inverse_is_inverse_gaussian(self, theta, seed):
        # the IG(2 r, 2 r^2) cdf, r = sqrt(theta), against KS at level 1e-4
        r = math.sqrt(theta)

        def cdf(x):
            root = np.sqrt(2.0 * x)
            return ndtr((x - 2.0 * r) / root) + math.exp(2.0 * r) * ndtr(-(x + 2.0 * r) / root)

        assert ks_statistic(self._inverse(theta, seed), cdf) < ks_critical_value(1e-4, self.R)


class TestPairGap:
    """At p = 2 and d = 2 ``_MaxOrderRows`` draws the gap X below a top
    row's maximum -g^2 / 2 with no frailty, as D (D + 2 g) from two
    uniforms (``_pair_gap``).  It must have the law of Delta / S, Delta a
    unit exponential and S the frailty given the row's Renyi sum g, whose
    survival function is E exp(-x S) = (g / h) exp(g - h), h = sqrt(g^2 + x).
    Each g draws R = 10^6 values from its own seed."""

    R = 10**6

    @pytest.mark.parametrize("g,seed", zip([1e-4, 1e-2, 1.0, 10.0], [8309, 8310, 8311, 8312]))
    def test_survival(self, g, seed):
        # sqrt(g^2 + X) against its cdf 1 - (g / h) exp(g - h), h >= g, by KS at level 1e-4
        v = np.random.default_rng(seed).random((2, self.R))
        gap = copula_module._pair_gap(np.full(self.R, g), np.log(1.0 - v[0]), v[1], 1.0 - v[1])
        assert ks_statistic(np.sqrt(g * g + gap), lambda h: 1.0 - g / h * np.exp(g - h)) < ks_critical_value(1e-4, self.R)


class TestJson:
    @pytest.mark.parametrize(
        "model", [Independence(2), Comonotone(4), GumbelLogistic(2, 2.0)], ids=lambda m: m.label()
    )
    def test_round_trip(self, model):
        assert from_json("copula", to_json(model)) == model


def _allocating_log_positive_stable(alpha, size, rng):
    """log_positive_stable as one allocating expression (oracle)."""
    v = rng.uniform(0.0, np.pi, size=size)
    w = rng.exponential(size=size)
    return (
        np.log(np.sin(alpha * v))
        - np.log(np.sin(v)) / alpha
        + ((1.0 - alpha) / alpha) * (np.log(np.sin((1.0 - alpha) * v)) - np.log(w))
    )


MODELS = [Independence(3), Comonotone(3), GumbelLogistic(3, 1.0), GumbelLogistic(3, 2.0),
          GumbelLogistic(1, 1.5), GumbelLogistic(4, 1.01), GumbelLogistic(3, 64.0)]
STABLE_MODELS = [model for model in MODELS if copula_module._stable(model)]

# the selections the benchmark's workloads make: copula-gumbel, representation
# (n and 2n), representation-wide (n and 2n) and general-indep
WORKLOAD_SIZES = [
    (GumbelLogistic(2, 2.0), 20000, IntermediateSpec.equal(2)),
    (GumbelLogistic(2, 2.0), 10000, IntermediateSpec.equal(2)),
    (GumbelLogistic(5, 2.0), 500, IntermediateSpec.equal(5)),
    (GumbelLogistic(5, 2.0), 1000, IntermediateSpec.equal(5)),
    (Independence(3), 20000, IntermediateSpec.equal(3, gamma=0.65, convention="n-k+1")),
]


class TestMaxOrderRows:
    """The selector reads its order statistics off the top rows, or the
    Marshall-Olkin rows, of the very sample ``sample_rows`` returns; Gumbel
    top rows at p != 2 draw rows of their own, which must not depend on
    the blocks (``_reference``)."""

    @staticmethod
    def _check(model, n, ranks, seed, reps=3, threads=1):
        got = replicate(np.empty((reps, model.d)), seed, threads, *os_selector(model, n, ranks))
        assert np.array_equal(got, _reference(model, n, ranks, seed, reps))

    @pytest.mark.parametrize("model,n,inter", WORKLOAD_SIZES, ids=lambda x: getattr(x, "label", lambda: x)())
    def test_equals_sample_rows_at_workload_sizes(self, model, n, inter):
        self._check(model, n, inter.ranks(n), 91)

    @pytest.mark.parametrize("rank", ["1", "n"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_equals_sample_rows_at_extreme_ranks(self, model, rank, monkeypatch):
        # rank 1 needs every row, so a Gumbel (p > 1) selector draws all n
        # top rows at p = 2 and all n Marshall-Olkin rows at other p, and a
        # frailty-free one sums all n spacings; rank n needs only each
        # column's largest value, which top rows at p != 2 find with draws
        # of their own, the same in blocks of one at the same batches, here
        # a first batch of one row
        n = 3000
        ranks = np.full(model.d, 1 if rank == "1" else n)
        shared = _shares_sample_rows(model, n, ranks)
        if not shared:
            monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: 1)
        got = replicate(np.empty((3, model.d)), 92, 1, *os_selector(model, n, ranks))
        if shared:
            for rep in range(3):
                rows = sample_rows(model, n, stream_rng(92, rep))
                assert np.array_equal(got[rep], rows.min(axis=0) if rank == "1" else rows.max(axis=0))
        else:
            assert np.array_equal(got, _reference(model, n, ranks, 92, 3))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_p2_draws_every_row_as_a_top_row(self, d, threads, tmp_path, monkeypatch):
        # at p = 2 the top rows' law is exact at every depth, so all n rows
        # are top rows: no selection, sample_rows, copula_sample or
        # `mvos sample` draws a stable proposal or a Marshall-Olkin row, at
        # ranks deep past n / 8 + 64 and at rank 1, while the selection's
        # values stay those of sample_rows; at d = 2 none draws a frailty
        # either, as the lower column's gap comes from two uniforms, while
        # other d draw one for every row
        def stable(*args):
            raise AssertionError("stable proposal drawn at p = 2")

        frailties, inverse = [], copula_module._inverse_frailty_half
        monkeypatch.setattr(copula_module, "log_positive_stable", stable)
        monkeypatch.setattr(copula_module, "_log_kanter", stable)
        monkeypatch.setattr(copula_module, "_marshall_olkin", stable)
        monkeypatch.setattr(copula_module, "_inverse_frailty_half", lambda *args: frailties.append(1) or inverse(*args))
        model, n = GumbelLogistic(d, 2.0), 3000
        for ranks in (np.array([1, 1500, 2000])[:d], np.array([10, 400, 1])[:d]):
            got = replicate(np.empty((5, d)), 109, threads, *os_selector(model, n, ranks))
            for rep in range(5):
                assert np.array_equal(got[rep], componentwise_os(sample_rows(model, n, stream_rng(109, rep)), ranks))
        assert copula_sample(model, SAMPLE_CHUNK + 7, seed=110).shape == (SAMPLE_CHUNK + 7, d)
        assert main(["sample", "--copula", "gumbel", "--p", "2", "-d", str(d), "-n", "3000",
                     "--seed", "1", "--out", str(tmp_path / "rows.csv")]) == 0
        assert bool(frailties) == (d != 2)

    @pytest.mark.parametrize("first", [1, 7, 10**9])
    def test_selection_does_not_depend_on_the_first_batch(self, first, monkeypatch):
        model, n, ranks = GumbelLogistic(3, 2.0), 2000, np.array([1990, 1900, 1700])
        want = replicate(np.empty((3, 3)), 93, 1, *os_selector(model, n, ranks))
        monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: first)
        assert np.array_equal(replicate(np.empty((3, 3)), 93, 1, *os_selector(model, n, ranks)), want)

    @pytest.mark.parametrize("depth", [2, 5])
    @pytest.mark.parametrize("model", [GumbelLogistic(2, 2.0), Independence(2), Comonotone(2)], ids=lambda m: m.label())
    def test_stop_bound_at_every_batch(self, model, depth, monkeypatch):
        # batches of 1, 1, 1, 2, 3, ... rows check the bound after nearly
        # every row; stopping one value short gives a smaller order
        # statistic.  Gumbel rows check each column against the last row
        # maximum; spacing draws sum exactly the depth and take no batches.
        monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: 1)
        self._check(model, 300, np.full(2, 301 - depth), 96, reps=100)

    @pytest.mark.parametrize("model", STABLE_MODELS, ids=lambda m: m.label())
    def test_top_rows_do_not_depend_on_batches(self, model):
        # all n rows at p = 2, the same in one batch and in batches of 1, 2,
        # 5, 17 and 64 rows; at other p a batch's Gamma variates and
        # redraws follow its uniforms, so its rows depend on the batches,
        # and 1000 rows, past L = 564 rows (where a selection would draw
        # Marshall-Olkin rows), with many more redraws, come in one batch
        rows, one = copula_module._MaxOrderRows(model, 4000), np.zeros(1, np.intp)
        count = 4000 if model.p == 2.0 else 1000
        rows.start(_block(94, [0]))
        whole = np.empty((model.d, 1, count))
        maxima = rows.next_rows(whole, one)
        if model.p == 2.0:
            rows.start(_block(94, [0]))
            parts, start = np.empty_like(whole), 0
            for size in itertools.cycle([1, 2, 5, 17, 64]):
                size = min(size, count - start)
                if not size:
                    break
                rows.next_rows(parts[:, :, start:start + size], one)
                start += size
            assert np.array_equal(parts, whole)
        # the returned maxima are each row's largest value, in decreasing order
        assert np.array_equal(whole.max(axis=0), maxima)
        assert np.all(np.diff(maxima) <= 0)
        # in a block, a replication's rows do not depend on the others'
        rows.start(_block(94, [1, 0, 2]))
        block = np.empty((model.d, 3, count))
        rows.next_rows(block, np.arange(3))
        assert np.array_equal(block[:, 1:2], whole)

    @pytest.mark.parametrize("model", STABLE_MODELS, ids=lambda m: m.label())
    def test_draw_order_of_a_batch(self, model):
        # each replication's one generator draws a batch's uniforms, then at
        # p != 2 its c Gamma variates, then its redraw rounds of _TRIES
        # proposals for each of its rows still going, and nothing else: a
        # fresh generator drawing that sequence ends in the same state
        class Recorder:
            def __init__(self, rng):
                self.rng, self.log = rng, []

            def random(self, size=None, out=None):
                self.log.append(("random", size if out is None else out.shape))
                return self.rng.random(size, out=out)

            def standard_gamma(self, shape, out=None):
                self.log.append(("standard_gamma", shape, out.shape))
                return self.rng.standard_gamma(shape, out=out)

        n, c = 300, 150
        rows = copula_module._MaxOrderRows(model, n)
        gens = [Recorder(rng) for rng in _block(95, range(3))]
        rows.start(gens)
        rows.next_rows(np.empty((model.d, 3, c)), np.arange(3))
        redraws = 0
        for r, gen in enumerate(gens):
            assert gen.log[0] == ("random", (c, rows.width))
            if model.p == 2.0:
                assert len(gen.log) == 1
            else:
                assert gen.log[1] == ("standard_gamma", 2.0 - rows.alpha, (c,))
                rounds = gen.log[2:]
                assert all(name == "random" and size[1] == 3 * copula_module._TRIES for name, size in rounds)
                redraws += len(rounds)
            replay = numpy_stream(95, r)
            replay.random((c, rows.width))
            if model.p != 2.0:
                replay.standard_gamma(2.0 - rows.alpha, size=c)
                for _, size in gen.log[2:]:
                    replay.random(size)
            assert np.array_equal(gen.rng.bit_generator.random_raw(4), replay.bit_generator.random_raw(4))
        # rows deep in a batch of half the sample reject their proposals often
        assert redraws > 0 or model.p == 2.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_small_samples(self, model, n):
        # at p != 2 every selection this small draws all n Marshall-Olkin
        # rows; at p = 2 every row is a top row
        for rank in range(1, n + 1):
            self._check(model, n, np.full(model.d, rank), 97)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_unconditioned_rows_follow_the_copula(self, p, n):
        # p = 3 draws these rows by Marshall-Olkin, p = 2 as top rows
        model, reps = GumbelLogistic(2, p), 10000
        rows = np.concatenate([sample_rows(model, n, stream_rng(98, rep)) for rep in range(reps)])
        for point in ([0.5, 0.7], [0.9, 0.2], [0.3, 0.3]):
            c = copula_cdf(model, point)
            emp = np.mean(np.all(rows <= point, axis=1))
            assert abs(emp - c) <= 4.0 * np.sqrt(c * (1.0 - c) / len(rows))

    def test_rows_are_exchangeable(self):
        # the top rows land at uniformly random positions: the position of
        # each replication's largest row maximum is uniform on the n rows
        n, reps = 50, 4000
        where = [sample_rows(GumbelLogistic(2, 2.0), n, stream_rng(95, rep)).max(axis=1).argmax()
                 for rep in range(reps)]
        counts = np.bincount(where, minlength=n)
        assert stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("model", [Independence(3), GumbelLogistic(3, 1.0), Comonotone(3)], ids=lambda m: m.label())
    def test_spacing_draws_stop_at_the_depth(self, model, monkeypatch):
        # drawn by its own spacings, a column's depth-th value is its
        # depth-th largest, so each replication's main SFC64, its stream 0,
        # draws the spacings of exactly that many top rows, and no batch of
        # rows
        def no_rows(rows, out, slots):
            raise AssertionError("next_rows called")

        monkeypatch.setattr(copula_module._MaxOrderRows, "next_rows", no_rows)
        n, ranks = 20000, np.array([19376, 19990, 19500])
        spacings = 1 if isinstance(model, Comonotone) else 3
        make, elements = os_selector(model, n, ranks)
        mains = []

        def spy():
            select = make()

            def draw(rngs):
                values = select(rngs)
                mains.extend(rng.bit_generator.state["state"]["state"] for rng in rngs)
                return values

            return draw

        replicate(np.empty((3, 3)), 99, 1, spy, elements)
        assert len(mains) == 3
        for rep, state in enumerate(mains):
            # the main SFC64 draws one word per uniform
            main = numpy_stream(99, rep)
            main.bit_generator.random_raw(spacings * 625)
            assert np.array_equal(main.bit_generator.state["state"]["state"], state)
        assert elements == spacings * 625
        monkeypatch.undo()  # sample_rows draws its rows in a batch
        self._check(model, n, ranks, 99)

    @pytest.mark.parametrize("model", [Independence(3), GumbelLogistic(3, 1.0), GumbelLogistic(3, 2.0),
                                       GumbelLogistic(3, 3.0)], ids=lambda m: m.label())
    def test_stream_layout(self, model, monkeypatch):
        # sample_rows builds no generator or seed sequence: it draws from
        # the generator it is handed, from where its stream stands, so a
        # generator one uniform further on gives other rows, and it leaves
        # the generator where its draws end
        def never(*args, **kwargs):
            raise AssertionError("a generator or a seed sequence was built")

        n, rng, ahead = 1000, numpy_stream(105, 0), numpy_stream(105, 0)
        ahead.random()
        for name in ("Generator", "SFC64", "SeedSequence"):
            monkeypatch.setattr(np.random, name, never)
        rows, moved = sample_rows(model, n, rng), sample_rows(model, n, ahead)
        monkeypatch.undo()
        assert not np.array_equal(rows, moved)
        assert not np.array_equal(_state(rng), _state(numpy_stream(105, 0)))

    @pytest.mark.parametrize("model", [Independence(2), Comonotone(2), GumbelLogistic(2, 2.0), GumbelLogistic(2, 3.0)],
                             ids=lambda m: m.label())
    def test_calls_on_one_generator_spawn_new_children(self, model):
        # a second call on the same generator continues its stream, so it
        # draws other rows; the first call's rows are the selector's, at a
        # depth (301) that Gumbel p != 2 draws all n rows for
        n, ranks, rng = 400, np.full(model.d, 100), stream_rng(107, 2)
        first, second = sample_rows(model, n, rng), sample_rows(model, n, rng)
        assert not np.array_equal(first, second)
        selected = replicate(np.empty((3, model.d)), 107, 1, *os_selector(model, n, ranks))
        assert np.array_equal(selected[2], componentwise_os(first, ranks))
        assert not np.array_equal(selected[2], componentwise_os(second, ranks))

    @pytest.mark.parametrize("model", [GumbelLogistic(2, 2.0), GumbelLogistic(2, 3.0), Independence(3)],
                             ids=lambda m: m.label())
    def test_selection_reads_no_philox_generator(self, model, monkeypatch):
        # the selector's SFC64 states come from the replication indices of
        # a chunk of replications at once: no replication builds or reads a
        # Philox generator, and no generator's random_raw is called
        calls = []

        class Philox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                calls.append("Philox")
                super().__init__(*args, **kwargs)

            def random_raw(self, *args, **kwargs):
                calls.append("random_raw")
                return super().random_raw(*args, **kwargs)

        class SFC64(np.random.SFC64):
            def random_raw(self, *args, **kwargs):
                calls.append("random_raw")
                return super().random_raw(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(np.random, "SFC64", SFC64)
        # the thread's pool is built anew, from the counting classes
        monkeypatch.setattr(streams_module._idle, "pool", None, raising=False)
        n = 20000
        ranks = IntermediateSpec.equal(model.d).ranks(n)
        got = replicate(np.empty((200, model.d)), 106, 1, *os_selector(model, n, ranks))
        assert calls == [] and isinstance(streams_module._idle.pool[0][0].bit_generator, SFC64)
        monkeypatch.undo()
        if _shares_sample_rows(model, n, ranks):
            for rep in (0, 199):
                assert np.array_equal(got[rep], componentwise_os(sample_rows(model, n, stream_rng(106, rep)), ranks))
        else:
            assert np.array_equal(got, _reference(model, n, ranks, 106, 200))

    @pytest.mark.parametrize("model", [Independence(1), Comonotone(2)], ids=lambda m: m.label())
    def test_spacing_sums_of_a_lone_column(self, model, monkeypatch):
        # blocks of one replication with one spacing per row leave a single
        # column to sum, which must still be added in row order; deep ranks
        # keep a last-bit change of the sum in the value
        monkeypatch.setattr(streams_module, "BLOCK_REPLICATIONS", 1)
        self._check(model, 200, np.full(model.d, 131), 103, reps=50)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("model", [Independence(3), Comonotone(3)], ids=lambda m: m.label())
    def test_spacing_ranks_deeper_than_the_top_rows(self, model, threads, monkeypatch):
        # a depth (1501) past which Gumbel p != 2 draws all n rows is still
        # a sum of spacings, drawn to exactly that depth; the selection and
        # sample_rows build no generator of top rows
        def no_rows(model, n):
            raise AssertionError("_MaxOrderRows built")

        monkeypatch.setattr(copula_module, "_MaxOrderRows", no_rows)
        n, ranks = 2000, np.array([500, 1990, 1000])
        assert os_selector(model, n, ranks)[1] == copula_module._spacings(model) * (n + 1 - 500)
        self._check(model, n, ranks, 101, reps=5, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model,n,k,reps", [(GumbelLogistic(2, 8.0), 300, 60, 128), (GumbelLogistic(5, 3.0), 500, 22, 640)],
                             ids=["gumbel-d2-p8-n300", "gumbel-d5-p3-n500"])
    def test_proposal_redraws_of_several_slots_at_once(self, model, n, k, reps, threads, monkeypatch):
        # top rows of several replications of a block run out of in-row
        # stable proposals in one round, and redraw them in one call (p = 2
        # draws no proposals); at d = 5 a block of 64 misses that with
        # probability 0.36, so ten blocks run
        calls = _spy_rounds(monkeypatch)
        self._check(model, n, np.full(model.d, n - k), 102, reps=reps, threads=threads)
        assert max(len(slots) for _, rounds in calls for slots in rounds.values()) >= 2

    @pytest.mark.parametrize("threads", [1, 3])
    def test_redraw_rounds_build_no_generator(self, threads, monkeypatch):
        # every variate of a replication, its redraw rounds included, comes
        # from its one pooled generator: with the thread's pool warm, a
        # selection builds no SeedSequence, and no SFC64 but the pool
        # entries of a new thread (streams._seeded); its values are those
        # of blocks of one replication
        model, n, ranks = GumbelLogistic(2, 8.0), 300, np.full(2, 240)
        replicate(np.empty((64, 2)), 111, 1, *os_selector(model, n, ranks))
        built = []
        for name in ("SeedSequence", "SFC64"):
            def spy(*args, cls=getattr(np.random, name), name=name, **kwargs):
                built.append((name, sys._getframe(1).f_code.co_name))
                return cls(*args, **kwargs)

            monkeypatch.setattr(np.random, name, spy)
        calls = _spy_rounds(monkeypatch)
        got = replicate(np.empty((64, 2)), 112, threads, *os_selector(model, n, ranks))
        monkeypatch.undo()
        assert set(built) <= {("SFC64", "_seeded")} and (threads > 1 or not built)
        assert any(rounds for _, rounds in calls)  # some call runs a second round
        assert np.array_equal(got, _reference(model, n, ranks, 112, 64))

    @pytest.mark.parametrize("d", [1, 3])
    def test_gumbel_p1_selects_the_independence_bits(self, d):
        n, ranks = 3000, np.array([2990, 1, 2500])[:d]
        for threads in (1, 2):
            got = [replicate(np.empty((70, d)), 100, threads, *os_selector(model, n, ranks))
                   for model in (GumbelLogistic(d, 1.0), Independence(d))]
            assert np.array_equal(got[0], got[1])
        assert np.array_equal(sample_rows(GumbelLogistic(d, 1.0), n, stream_rng(100, 0)),
                              sample_rows(Independence(d), n, stream_rng(100, 0)))

    def test_independent_columns_take_positions_of_their_own(self):
        # each column's top values land at uniformly random positions of
        # their own: the pair of the two columns' argmax positions is
        # uniform on the n x n cells
        n, reps = 50, 25000
        cells = [np.ravel_multi_index(sample_rows(Independence(2), n, stream_rng(8209, rep)).argmax(axis=0), (n, n))
                 for rep in range(reps)]
        counts = np.bincount(cells, minlength=n * n)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_rejects_ranks_out_of_range(self):
        with pytest.raises(ValueError):
            os_selector(Independence(2), 10, [0, 5])
        with pytest.raises(ValueError):
            os_selector(Independence(2), 10, 11)


class TestTopRowLaw:
    """Selected order statistics against their exact law at R = 1e5
    replications: |z| <= 4.5 at every node of the Beta quantile grid."""

    R = 10**5
    BAND = 4.5

    def _z(self, emp, cdf, reps=R):
        return float(np.abs((emp - cdf) / np.sqrt(cdf * (1.0 - cdf) / reps)).max())

    def _max_z(self, model, n, k, seed, reps=R):
        k1, k2 = np.broadcast_to(k, 2)
        grids = [beta_quantile_grid(n, k1), beta_quantile_grid(n, k2)]
        ranks = np.array([n - k1, n - k2])
        values = replicate(np.empty((reps, 2)), seed, 1, *os_selector(model, n, ranks))
        return self._z(ecdf_on_grid(values, grids), os_joint_cdf(model, n, (k1, k2), grids), reps)

    @pytest.mark.parametrize(
        "model,seed",
        [(GumbelLogistic(2, 1.0), 8201), (GumbelLogistic(2, 2.0), 8202), (GumbelLogistic(2, 64.0), 8203),
         (Independence(2), 8204), (Comonotone(2), 8205)],
        ids=lambda x: x.label() if hasattr(x, "label") else str(x),
    )
    def test_d2_joint_cdf(self, model, seed):
        assert self._max_z(model, 400, 20, seed) <= self.BAND

    def test_d2_unequal_ranks(self):
        # k-ratio 4, as in criterion 3
        assert self._max_z(GumbelLogistic(2, 2.0), 400, (40, 10), 8206) <= self.BAND

    @pytest.mark.parametrize(
        "model,seed",
        [(Independence(2), 8212), (Comonotone(2), 8213), (GumbelLogistic(2, 1.0), 8214),
         (GumbelLogistic(2, 2.0), 8216), (GumbelLogistic(2, 3.0), 8217)],
        ids=lambda x: x.label() if hasattr(x, "label") else str(x),
    )
    def test_d2_joint_cdf_at_deep_ranks(self, model, seed):
        # depths 301 and 201, past L = 114 rows: spacing sums at any depth,
        # p = 2 top rows, and p = 3 Marshall-Olkin rows
        assert self._max_z(model, 400, (300, 200), seed) <= self.BAND

    def test_d2_joint_cdf_past_the_old_cap(self, monkeypatch):
        # a first batch of one row keeps p = 3 on top rows, which then run
        # to depths 20 and 16 of n = 40, past L = 15 rows (where a config
        # would draw Marshall-Olkin rows)
        monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: 1)
        assert self._max_z(GumbelLogistic(2, 3.0), 40, (19, 15), 8218, reps=10**4) <= self.BAND

    def test_d2_joint_cdf_with_proposal_redraws(self):
        # p = 8 top rows to depth 61 of n = 300, below L = 101 rows: many
        # rows reject their in-row stable proposals and redraw them, in
        # rounds from their replication's one generator
        assert self._max_z(GumbelLogistic(2, 8.0), 300, 60, 8220) <= self.BAND

    def test_redraw_rounds_past_the_recursion_limit(self, monkeypatch):
        # top rows down to the last of n = 4000 (rank 1, first batch of
        # one row) accept a tilted-stable proposal with probability about
        # 1 / n, so the last rows take hundreds of redraw rounds of three
        # proposals, more than the recursion limit were each proposal a
        # stack frame; the values are those of blocks of one replication
        monkeypatch.setattr(copula_module, "_first_batch", lambda model, depth: 1)
        model, n, ranks = GumbelLogistic(2, 3.0), 4000, np.ones(2, int)
        calls = _spy_rounds(monkeypatch)
        got = replicate(np.empty((3, 2)), 8219, 1, *os_selector(model, n, ranks))
        assert 3 * max(max(rounds, default=1) for _, rounds in calls) > sys.getrecursionlimit()
        assert np.array_equal(got, _reference(model, n, ranks, 8219, 3))

    def _max_beta_z(self, model, n, ranks, seed, reps):
        """Column j's order statistic at rank r_j is Beta(r_j, n + 1 - r_j):
        the largest |z| of its ecdf at that law's deciles, over the columns."""
        levels = np.linspace(0.1, 0.9, 9)
        values = replicate(np.empty((reps, model.d)), seed, 1, *os_selector(model, n, ranks))
        z = 0.0
        for j, r in enumerate(ranks):
            grid = stats.beta(r, n + 1 - r).ppf(levels)
            emp = (values[:, j, None] <= grid).mean(axis=0)
            z = max(z, np.abs((emp - levels) / np.sqrt(levels * (1.0 - levels) / reps)).max())
        return z

    def test_d5_margins_are_beta(self):
        ranks = np.array([478, 490, 460, 495, 478])
        assert self._max_beta_z(GumbelLogistic(5, 2.0), 500, ranks, 8207, self.R) <= self.BAND

    def test_margins_are_beta_at_deep_unequal_ranks(self):
        # depths 400 (the minimum, a sum of all n spacings), 301 and 151
        ranks = np.array([1, 100, 250])
        assert self._max_beta_z(Independence(3), 400, ranks, 8215, self.R) <= self.BAND

    @pytest.mark.parametrize(
        "model,rank,reps,seed",
        # general-indep's rank n - k + 1, k = floor(n^0.65), and
        # copula-gumbel's n - k, k = floor(sqrt(n)); fewer Gumbel
        # replications keep the test within seconds
        [(Independence(3), 20000 - 624 + 1, 10**5, 8210), (GumbelLogistic(2, 2.0), 20000 - 141, 5 * 10**4, 8211)],
        ids=["general-indep", "copula-gumbel"],
    )
    def test_margins_are_beta_at_benchmark_sizes(self, model, rank, reps, seed):
        assert self._max_beta_z(model, 20000, np.full(model.d, rank), seed, reps) <= self.BAND

    def test_d3_independent_columns(self):
        # unequal ranks: each column against its Beta(r_j, n + 1 - r_j)
        # margin, each pair against the exact law of two independent columns
        n, ks = 200, np.array([40, 10, 25])
        values = replicate(np.empty((self.R, 3)), 8208, 1, *os_selector(Independence(3), n, n - ks))
        grids = [beta_quantile_grid(n, k) for k in ks]
        levels = np.linspace(0.1, 0.9, 9)
        for j in range(3):
            assert self._z((values[:, j, None] <= grids[j]).mean(axis=0), levels) <= self.BAND
        for i, j in itertools.combinations(range(3), 2):
            cdf = os_joint_cdf(Independence(2), n, (ks[i], ks[j]), (grids[i], grids[j]))
            assert self._z(ecdf_on_grid(values[:, [i, j]], [grids[i], grids[j]]), cdf) <= self.BAND


def _log_frailty_half(log_theta, log_u, u, v):
    """The log-scale p = 2 frailty draw before the rows moved to the -E / S
    scale, verbatim: log S with 1 / S = IG(2 r, 2 r^2), r = exp(log theta / 2)."""
    r = np.exp(np.multiply(log_theta, 0.5))
    t = np.sin(np.multiply(u, math.pi / 2.0))
    np.multiply(np.multiply(t, t, out=t), np.multiply(log_u, -2.0), out=t)  # nu
    np.divide(t, r, out=t)
    z = np.sqrt(t + 4.0)
    z += np.sqrt(t, out=t)
    np.divide(8.0, np.multiply(z, z, out=z), out=z)
    inverse = np.where(np.multiply(v, 2.0 + z) <= 2.0, r * z, 4.0 * r / z)
    return np.negative(np.log(inverse, out=inverse), out=inverse)


class _LogScaleRows(copula_module._MaxOrderRows):
    """The oracle: p = 2 rows on the log S - log E_j scale of every other p,
    with the combine of the top rows verbatim as it was before p = 2 moved
    to -E_j / S."""

    def next_rows(self, out, slots):
        b, c, i = len(slots), out.shape[2], self.drawn
        raw, u = copula_module._reused(self.scratch, "raw", (b, c, self.width)), copula_module._reused(self.scratch, "u", (self.width, b, c))
        for j, slot in enumerate(slots):
            self.rngs[slot].random(out=raw[j])
        np.subtract(1.0, raw.transpose(2, 0, 1), out=u)
        logs = u[:self.d + 2]  # the spacing, the spreads and the frailty's first (its Gamma's at p != 2)
        np.log(logs, out=logs)  # log U = -E
        g = np.divide(logs[0], np.arange(i - self.n, i + c - self.n, dtype=float), out=logs[0])  # -(n - i + 1)
        g[:, 0] += self.g[slots]  # continue the sums of the rows drawn before
        np.add.accumulate(g, axis=1, out=g)  # sequential, so batches do not change the sums
        self.g[slots], self.drawn = g[:, -1], i + c
        spread = logs[1:-1]
        np.subtract(spread.max(axis=0), spread, out=out)  # F_j - F_J
        m = np.empty((b, c + 1))
        m[:, 0] = self.m[slots]
        np.subtract(self.log_d, np.multiply(np.log(g, out=m[:, 1:]), self.p, out=m[:, 1:]), out=m[:, 1:])
        m = np.minimum.accumulate(m, axis=1, out=m)[:, 1:]
        log_theta = self.log_d - m
        log_s = _log_frailty_half(log_theta, logs[-1], u[-2], u[-1])
        np.subtract(m, np.log1p(np.multiply(out, np.exp(m - log_s), out=out), out=out), out=out)
        self.m[slots] = m[:, -1]
        return m



def _log_scale_to_uniform(model, latent, out=None):
    """exp(-exp(-x / p)), the oracle's map to the copula, verbatim."""
    u = np.divide(latent, -model.p, out=out)
    return np.exp(np.negative(np.exp(u, out=u), out=u), out=u)


# the p = 2 selections of the benchmark's workloads, and d = 1 and 3 with a
# column deeper than the n / 8 + 64 top rows of other p
P2_SIZES = [(model, n, inter.ranks(n)) for model, n, inter in WORKLOAD_SIZES
            if isinstance(model, GumbelLogistic) and model.p == 2.0]
P2_SIZES += [(GumbelLogistic(1, 2.0), 3000, np.array([2946])), (GumbelLogistic(3, 2.0), 3000, np.array([2946, 2500, 1]))]
# the oracle draws a frailty for every row, which d = 2 no longer does:
# its d = 2 sizes run at d = 3
LOG_SCALE_SIZES = [(GumbelLogistic(3, 2.0), n, IntermediateSpec.equal(3).ranks(n)) if model.d == 2 else (model, n, ranks)
                   for model, n, ranks in P2_SIZES]


class TestMinusEOverS:
    """At p = 2 ``_MaxOrderRows`` keeps -E_j / S in place of log S - log E_j,
    a nondecreasing function of it, from the same uniforms: the same rows
    are picked, and only the rounding of the values moves."""

    @pytest.mark.parametrize("model,n,ranks", LOG_SCALE_SIZES, ids=lambda x: x.label() if hasattr(x, "label") else None)
    def test_same_rows_as_the_log_scale(self, model, n, ranks, monkeypatch):
        for rep in range(3):
            new = sample_rows(model, n, stream_rng(107, rep))
            with monkeypatch.context() as patch:
                patch.setattr(copula_module, "_MaxOrderRows", _LogScaleRows)
                patch.setattr(copula_module, "_to_uniform", _log_scale_to_uniform)
                old = sample_rows(model, n, stream_rng(107, rep))
            cols = np.arange(model.d)
            # the row at each column's rank, and its 1 - U
            at_new, at_old = np.argsort(new, axis=0)[ranks - 1, cols], np.argsort(old, axis=0)[ranks - 1, cols]
            assert np.array_equal(at_new, at_old)
            assert_allclose(1.0 - new[at_new, cols], 1.0 - old[at_old, cols], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model,n,ranks", P2_SIZES, ids=lambda x: x.label() if hasattr(x, "label") else None)
    def test_values_at_most_their_row_maxima(self, model, n, ranks):
        # batches of 1, 2, 5, 17 and 64 rows through all n rows, each a top
        # row: every value is at most its row's maximum, and the maxima
        # never increase within or across batches
        rows, slots, reps = copula_module._MaxOrderRows(model, n), np.arange(3), 3
        rows.start(_block(108, range(reps)))
        last = np.zeros(reps)
        for size in itertools.cycle([1, 2, 5, 17, 64]):
            size = min(size, n - rows.drawn)
            if not size:
                break
            out = np.empty((model.d, reps, size))
            maxima = rows.next_rows(out, slots)
            assert np.all(out <= maxima) and np.array_equal(out.max(axis=0), maxima)
            assert np.all(np.diff(maxima, axis=1) <= 0) and np.all(maxima[:, 0] <= last)
            last = maxima[:, -1]


class _MaskedCopyRows(copula_module._MaxOrderRows):
    """The oracle: p = 2, d = 2 top rows placed by masked copies, with the
    pair branch of ``next_rows`` verbatim as it was before the placement
    moved to arithmetic."""

    def next_rows(self, out, slots):
        assert self.pair
        b, c, i = len(slots), out.shape[2], self.drawn
        raw, u = copula_module._reused(self.scratch, "raw", (b, c, self.width)), copula_module._reused(self.scratch, "u", (self.width, b, c))
        for j, slot in enumerate(slots):
            self.rngs[slot].random(out=raw[j])
        np.subtract(1.0, raw.transpose(2, 0, 1), out=u)
        logs = u[:2]
        np.log(logs, out=logs)  # log U = -E
        g = np.divide(logs[0], np.arange(i - self.n, i + c - self.n, dtype=float), out=logs[0])  # -(n - i + 1)
        g[:, 0] += self.g[slots]  # continue the sums of the rows drawn before
        np.add.accumulate(g, axis=1, out=g)  # sequential, so batches do not change the sums
        self.g[slots], self.drawn = g[:, -1], i + c
        m = np.multiply(g, g)
        np.divide(m, -2.0, out=m)
        lower = np.subtract(m, copula_module._pair_gap(g, logs[1], raw[:, :, 2], u[2]))
        first = np.greater(u[3], 0.5)
        np.copyto(out, m)
        np.copyto(out[0], lower, where=~first)
        np.copyto(out[1], lower, where=first)
        self.m[slots] = m[:, -1]
        return m


def _bits(x):
    """The bytes of a float array, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.uint64)


class _Uniforms:
    """A generator whose ``random(out=)`` writes the next rows of a fixed
    table of uniforms, one row per top row."""

    def __init__(self, table):
        self.table, self.at = table, 0

    def random(self, out):
        out[...] = self.table[self.at:self.at + len(out)]
        self.at += len(out)


# the uniforms [spacing, E, U, coin] of every combination of 0, a coin of
# exactly 1 / 2, the largest double below 1 and an interior value, the
# rows with a spacing uniform of 0 first, so their sums g stay +0.0 and
# their maxima -0.0
EDGES = np.array([0.0, 0.5, 1.0 - 2.0**-53, 0.3125])
EDGE_TABLE = np.array(sorted(itertools.product(EDGES, repeat=4), key=lambda v: v[0] != 0.0))


class TestPairPlacement:
    """At p = 2 and d = 2 ``_MaxOrderRows`` places a top row's maximum m
    and m - gap by arithmetic: the planes and maxima of every batch are
    those of the masked copies (``_MaskedCopyRows``) bit for bit, and so
    are ``sample_rows``' rows and the selection at 1 and 3 threads."""

    MODEL = GumbelLogistic(2, 2.0)

    @classmethod
    def _check(cls, n, rngs_of, batches):
        """Run the (slots, rows) batches on the arithmetic and on the
        oracle, each on generators of its own in the same states, compare
        them, and return the arithmetic's (planes, maxima) per batch."""
        runs = []
        for rows in (copula_module._MaxOrderRows(cls.MODEL, n), _MaskedCopyRows(cls.MODEL, n)):
            rows.start(rngs_of())
            runs.append([])
            for slots, size in batches:
                out = np.empty((2, len(slots), size))
                runs[-1].append((out, rows.next_rows(out, slots)))
        for (planes, maxima), (masked, masked_maxima) in zip(*runs):
            assert np.array_equal(_bits(planes), _bits(masked))
            assert np.array_equal(_bits(maxima), _bits(masked_maxima))
        return runs[0]

    @pytest.mark.parametrize("n,batches", [
        # a first batch, then a second batch of two stragglers, then one
        (20000, [(np.arange(5), 40), (np.array([1, 3]), 20), (np.array([3]), 7)]),
        # one-row batches
        (20000, [(np.arange(3), 1), (np.arange(3), 1), (np.array([2]), 1)]),
        # the last batch ends at row n
        (60, [(np.arange(4), 25), (np.array([0, 2, 3]), 35)]),
    ], ids=["stragglers", "one-row", "to-row-n"])
    def test_planes_equal_masked_copies(self, n, batches):
        self._check(n, lambda: _block(8401, range(5)), batches)

    def test_edge_uniforms(self):
        # V = 0 (a spacing of 0 keeps m = -0.0, and E = -log 1), a coin of
        # exactly 1 / 2 (U = 1 / 2 is not above it, so the maximum goes to
        # column 1) and V = 1 - 2^-53 (U = 2^-53), in every combination,
        # three replications, in one batch and in batches of 1, 64 and
        # the rest, which end at row n
        n = len(EDGE_TABLE)
        for batches in ([(np.arange(3), n)], [(np.arange(3), 1), (np.arange(3), 64), (np.arange(3), n - 65)]):
            got = self._check(n, lambda: [_Uniforms(EDGE_TABLE) for _ in range(3)], batches)
        planes, maxima = np.concatenate([out for out, _ in got], axis=2), np.concatenate([m for _, m in got], axis=1)
        zero = EDGE_TABLE[:, 0] == 0.0  # the leading rows whose sums are +0.0
        assert np.all(np.signbit(maxima[:, zero]) & (maxima[:, zero] == 0.0))
        # the maximum is in column 0 where the coin's uniform lies below 1 / 2, else in column 1
        at = np.where(EDGE_TABLE[:, 3] < 0.5, 0, 1)
        assert np.array_equal(_bits(planes[at, :, np.arange(n)].T), _bits(maxima))
        assert np.all(np.isfinite(planes)) and np.all(planes <= maxima)

    def test_sample_rows_past_one_chunk(self, monkeypatch):
        # sample_rows draws its top rows in batches of _CHUNK
        n = copula_module._CHUNK + 904
        got = [sample_rows(self.MODEL, n, stream_rng(8402, rep)) for rep in range(2)]
        monkeypatch.setattr(copula_module, "_MaxOrderRows", _MaskedCopyRows)
        for rep, rows in enumerate(got):
            assert np.array_equal(_bits(rows), _bits(sample_rows(self.MODEL, n, stream_rng(8402, rep))))

    def test_selection_at_one_and_three_threads(self, monkeypatch):
        # copula-gumbel's n and k, 150 replications in three blocks
        n, ranks = 20000, np.full(2, 20000 - 141)
        got = [replicate(np.empty((150, 2)), 8403, threads, *os_selector(self.MODEL, n, ranks)) for threads in (1, 3)]
        monkeypatch.setattr(copula_module, "_MaxOrderRows", _MaskedCopyRows)
        want = replicate(np.empty((150, 2)), 8403, 1, *os_selector(self.MODEL, n, ranks))
        assert np.array_equal(_bits(got[0]), _bits(want)) and np.array_equal(_bits(got[1]), _bits(want))

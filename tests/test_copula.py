import numpy as np
import pytest
from numpy.testing import assert_allclose
import mvos.copula as copula_module
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
from mvos.diagnostics import ks_critical_value, ks_statistic
from mvos.dnorm import dnorm_eval
from mvos.orderstats import componentwise_os
from mvos.streams import stream_rng
from mvos.wire import from_json, to_json


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

    @pytest.mark.parametrize(
        "model", [Independence(3), Comonotone(3), GumbelLogistic(3, 1.0), GumbelLogistic(3, 2.5)],
        ids=lambda m: m.label(),
    )
    def test_rows_are_the_monotone_map_of_the_latent_draw(self, model):
        latent = model.latent_sampler(2000)(stream_rng(61, 0))
        assert np.array_equal(model.to_uniform(latent), sample_rows(model, 2000, stream_rng(61, 0)))
        # a nondecreasing map commutes with order statistics
        mapped = model.to_uniform(np.sort(latent, axis=0))
        assert np.all(np.diff(mapped, axis=0) >= 0)

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

    @pytest.mark.parametrize("model", [Independence(2), GumbelLogistic(2, 2.0), GumbelLogistic(3, 1.3)],
                             ids=lambda m: m.label())
    def test_margins_uniform_ks(self, model):
        n = 10**5
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

    def test_positive_stable_laplace_transform(self):
        # E exp(-s S) = exp(-s^alpha), checked by Monte Carlo at a few s
        rng = np.random.default_rng(3)
        alpha = 0.5
        s_draws = np.exp(log_positive_stable(alpha, 2 * 10**5, rng))
        for s in (0.5, 1.0, 2.0):
            vals = np.exp(-s * s_draws)
            se = vals.std() / np.sqrt(vals.size)
            assert abs(vals.mean() - np.exp(-(s**alpha))) <= 4.0 * se

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


def _allocating_gumbel_latent(model, n, rng):
    """GumbelLogistic's latent draw with fresh arrays per draw (oracle)."""
    if model.p == 1.0:
        return -rng.exponential(size=(n, model.d))
    log_s = _allocating_log_positive_stable(1.0 / model.p, n, rng)
    e = rng.exponential(size=(n, model.d))
    with np.errstate(divide="ignore"):
        log_e = np.log(e)
    return log_s[:, None] - log_e


class TestBufferedDraws:
    """Drawing into reused buffers consumes the stream as allocating did."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 64.0])
    @pytest.mark.parametrize("d", [1, 3])
    def test_gumbel_latent_sampler(self, p, d):
        model = GumbelLogistic(d, p)
        n = 3001
        expected = [_allocating_gumbel_latent(model, n, stream_rng(71, rep)) for rep in range(3)]
        draw = model.latent_sampler(n)
        first = draw(stream_rng(71, 0))
        assert np.array_equal(first, expected[0])
        for rep in (1, 2):
            again = draw(stream_rng(71, rep))
            assert np.array_equal(again, expected[rep])
            assert np.shares_memory(again, first)  # overwritten in place, not reallocated

    @pytest.mark.parametrize("alpha", [0.5, 1.0 / 1.5, 1.0 / 64.0])
    def test_log_positive_stable(self, alpha):
        size = 2500
        expected = _allocating_log_positive_stable(alpha, size, stream_rng(72, 0))
        assert np.array_equal(log_positive_stable(alpha, size, stream_rng(72, 0)), expected)
        work = np.empty((4, size))
        got = log_positive_stable(alpha, size, stream_rng(72, 0), work)
        assert np.array_equal(got, expected)
        assert np.shares_memory(got, work)

    @pytest.mark.parametrize("d", [1, 4])
    def test_comonotone_selection(self, d):
        n = 5000
        ranks = np.array([4990, 17, 2500, 4999])[:d]
        v = stream_rng(73, 0).random(n)
        repeated = np.repeat(v[:, None], d, axis=1)
        expected = np.array([np.partition(repeated[:, i], r - 1)[r - 1] for i, r in enumerate(ranks)])
        latent = Comonotone(d).latent_sampler(n)(stream_rng(73, 0))
        assert latent.flags.writeable and latent.flags.c_contiguous
        assert np.array_equal(componentwise_os(latent, ranks), expected)
        rows = sample_rows(Comonotone(d), n, stream_rng(73, 0))
        assert np.array_equal(rows, repeated)
        assert rows.flags.writeable and rows.flags.c_contiguous

    def test_independence_latent_sampler_reuses_its_buffer(self):
        draw = Independence(2).latent_sampler(100)
        first = draw(stream_rng(74, 0))
        assert np.array_equal(first, stream_rng(74, 0).random((100, 2)))
        again = draw(stream_rng(74, 1))
        assert np.array_equal(again, stream_rng(74, 1).random((100, 2)))
        assert np.shares_memory(again, first)


class _EdgeDraws:
    """A stream with boundary values written over chosen draws: V / pi = 0
    and 1 - 2^-53, W = 0 and E = 0."""

    U = {0: 0.0, 1: 1.0 - 2.0**-53, 4: 0.0, 6: 1.0 - 2.0**-53}
    W_ZERO = (2, 4, 5, 6)
    E_ZERO = ((3, 0), (5, 1), (7, 0), (7, 1), (7, 2))

    def __init__(self, seed):
        self.rng = stream_rng(seed, 0)
        self.exponentials = 0

    def random(self, out):
        self.rng.random(out=out)
        for row, u in self.U.items():
            out[row] = u
        return out

    def standard_exponential(self, out):
        self.rng.standard_exponential(out=out)
        if self.exponentials == 0:
            out[list(self.W_ZERO)] = 0.0
        else:
            for cell in self.E_ZERO:
                out[cell] = 0.0
        self.exponentials += 1
        return out


class TestBracketedGumbelSelector:
    """Selecting on bracketed rows gives the full draw's order statistics."""

    N = 5000  # at or above BRACKET_MIN_N

    @staticmethod
    def _full_draw_os(model, n, rng, ranks):
        return componentwise_os(model.latent_sampler(n)(rng), ranks)

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 64.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_equals_full_draw(self, p, d):
        model = GumbelLogistic(d, p)
        ranks = np.array([4929, 4860, 4965, 4999, 1])[:d]
        select = os_selector(model, self.N, ranks)
        for rep in range(3):
            want = self._full_draw_os(model, self.N, stream_rng(81, rep), ranks)
            assert np.array_equal(select(stream_rng(81, rep)), want)
            assert select.candidates < self.N or d == 5

    @pytest.mark.parametrize("p", [1.5, 2.0, 64.0])
    @pytest.mark.parametrize(
        "ranks,kinds",
        [([5000, 4997, 4930], "NIF"), ([4999, 4996, 4995], "NII"), ([4930, 4930, 4930], "FFF"),
         ([1, 2, 4992], "FFF")],
    )
    def test_edge_draws(self, p, ranks, kinds):
        # rows 0 and 4 are NaN (V = 0) and rank last; rows 2, 5, 6 and 7 are
        # inf in every column and row 3 in column 0
        model = GumbelLogistic(3, p)
        select = os_selector(model, self.N, np.array(ranks))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = self._full_draw_os(model, self.N, _EdgeDraws(82), ranks)
            got = select(_EdgeDraws(82))
        assert np.array_equal(got, want, equal_nan=True)
        assert "".join("N" if np.isnan(x) else "I" if np.isinf(x) else "F" for x in want) == kinds
        u = _EdgeDraws(82).random(np.empty(self.N))
        edge_bucket = (u < 1.0 / copula_module.STABLE_BUCKETS) | (u >= 1.0 - 1.0 / copula_module.STABLE_BUCKETS)
        assert select.keep[edge_bucket].all()
        assert select.keep[:8].all()

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 64.0])
    def test_table_brackets_every_bucket(self, p):
        alpha = 1.0 / p
        buckets = copula_module.STABLE_BUCKETS
        table = copula_module._stable_bracket_table(p)
        assert table.shape == (2, buckets)
        assert np.array_equal(table[:, [0, -1]], [[-np.inf] * 2, [np.inf] * 2])
        offsets = np.concatenate([np.zeros((buckets, 1)), stream_rng(83, 0).random((buckets, 15))], axis=1)
        u = ((np.arange(buckets)[:, None] + offsets) / buckets).ravel()
        work = np.zeros((4, u.size))
        work[1] = u * np.pi  # V as the draw computes it
        with np.errstate(divide="ignore", invalid="ignore"):  # V = 0 in the first bucket
            b = copula_module._log_stable_from_angle(alpha, work)
        bucket = (u * buckets).astype(int)
        inner = (bucket > 0) & (bucket < buckets - 1)
        assert np.all(table[0, bucket[inner]] <= b[inner])
        assert np.all(b[inner] <= table[1, bucket[inner]])

    def test_candidate_count(self):
        # a deterministic count, not a timing: a loose table keeps more rows
        n = 20000
        ranks = np.full(2, n - 141)
        select = os_selector(GumbelLogistic(2, 2.0), n, ranks)
        select(stream_rng(84, 0))
        assert select.candidates == 221

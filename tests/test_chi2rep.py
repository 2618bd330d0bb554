import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mvos import chi2rep, streams
from mvos.chi2rep import (
    NotPositiveSemidefiniteError,
    correlated_ratio_sample,
    quantile_grid,
    representation_distance,
)
from mvos.dnorm import LogisticP, lambda_matrix
from mvos.orderstats import OSBatch, theoretical_sigma_equal_k, standardize_copula_case
from mvos.streams import stream_rng

from exact_laws import beta_quantile_grid, ecdf_on_grid, ratio_joint_cdf
from test_streams import numpy_stream


def _univariate_ratios(i, n, r, seed):
    """The i-th of n uniform order statistics by the ratio representation:
    the d = 1 case, with k = n - i."""
    return correlated_ratio_sample(np.ones((1, 1)), n, n - i, r, seed)[:, 0]


class TestUnivariateRatio:
    def test_degenerate_case_is_uniform(self):
        # i = n = 1 gives Beta(1, 1)
        s = _univariate_ratios(1, 1, 20000, seed=1)
        assert abs(s.mean() - 0.5) <= 4.0 * s.std() / math.sqrt(s.size)
        assert np.all((s > 0) & (s < 1))

    def test_beta_moments(self):
        s = _univariate_ratios(3, 9, 10**5, seed=2)
        beta = stats.beta(3, 7)
        assert abs(s.mean() - beta.mean()) <= 4.0 * s.std() / math.sqrt(s.size)
        # variance of the sample variance via the fourth moment
        var_se = math.sqrt((stats.moment(s, 4) - s.var() ** 2) / s.size)
        assert abs(s.var() - beta.var()) <= 4.0 * var_se

    @pytest.mark.parametrize("i,n", [(1, 1), (3, 9), (50, 1000)])
    def test_two_sample_ks_vs_direct_beta(self, i, n):
        r = 20000
        s = _univariate_ratios(i, n, r, seed=3)
        direct = np.random.default_rng(1234).beta(i, n + 1 - i, size=r)
        assert stats.ks_2samp(s, direct).pvalue > 1e-3

    def test_index_validation(self):
        with pytest.raises(ValueError):
            _univariate_ratios(10, 9, 5, seed=0)
        with pytest.raises(ValueError):
            _univariate_ratios(0, 9, 5, seed=0)

    def test_deterministic(self):
        a = _univariate_ratios(3, 9, 50, seed=9)
        b = _univariate_ratios(3, 9, 50, seed=9)
        assert np.array_equal(a, b)


class TestCorrelatedRatio:
    def test_identity_components_independent(self):
        rv = correlated_ratio_sample(np.eye(2), 500, 22, 4000, seed=4)
        corr = np.corrcoef(rv.T)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(rv.shape[0])

    def test_all_ones_components_identical(self):
        rv = correlated_ratio_sample(np.ones((2, 2)), 200, 14, 300, seed=5)
        assert_allclose(rv[:, 0], rv[:, 1], rtol=1e-12)

    def test_entries_strictly_inside_unit_interval(self):
        rv = correlated_ratio_sample(np.eye(3), 50, 5, 2000, seed=6)
        assert np.all((rv > 0.0) & (rv < 1.0))

    def test_margins_are_beta_n_minus_k_kplus1(self):
        n, k = 400, 20
        rv = correlated_ratio_sample(np.array([[1.0, 0.7], [0.7, 1.0]]), n, k, 5000, seed=7)
        cdf = stats.beta(n - k, k + 1).cdf
        for i in range(2):
            assert stats.kstest(rv[:, i], cdf).pvalue > 1e-3

    def test_margins_unaffected_by_off_diagonal(self):
        # same margin law under independent and correlated driving noise
        n, k = 300, 17
        a = correlated_ratio_sample(np.eye(2), n, k, 6000, seed=8)[:, 0]
        b = correlated_ratio_sample(np.array([[1.0, 0.7], [0.7, 1.0]]), n, k, 6000, seed=9)[:, 0]
        assert stats.ks_2samp(a, b).pvalue > 1e-3

    def test_psd_gate_counterexample(self):
        def pattern(a):
            return np.array([[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]])

        ok = correlated_ratio_sample(pattern(3 ** -0.5), 50, 5, 10, seed=0)
        assert ok.shape == (10, 3)
        with pytest.raises(NotPositiveSemidefiniteError) as err:
            correlated_ratio_sample(pattern(3 ** -0.25), 50, 5, 10, seed=0)
        assert_allclose(err.value.min_eigenvalue, 1.0 - np.sqrt(2.0) * 3 ** -0.25, rtol=1e-9)
        assert "eigenvalue" in str(err.value)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_compound_symmetry_always_accepted(self, d):
        # constant off-diagonal entries from an exchangeable tail norm
        lam = lambda_matrix(theoretical_sigma_equal_k(LogisticP(2.0), d))
        rv = correlated_ratio_sample(lam, 30, 4, 5, seed=1)
        assert rv.shape == (5, d)

    def test_standardized_covariance_matches_sigma(self):
        # the standardized ratio vector reproduces the limit covariance
        sigma = theoretical_sigma_equal_k(LogisticP(2.0), 2)
        lam = lambda_matrix(sigma)
        n, k, r = 10**4, 100, 5000
        rv = correlated_ratio_sample(lam, n, k, r, seed=10)
        t = standardize_copula_case(rv, n, np.array([k, k]))
        emp = np.cov(t.T, bias=True)
        se = math.sqrt((1.0 + sigma[0, 1] ** 2) / r)
        assert abs(emp[0, 1] - sigma[0, 1]) <= 4.0 * se
        for i in range(2):
            assert abs(emp[i, i] - 1.0) <= max(0.05, 4.0 * math.sqrt(2.0 / r))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            correlated_ratio_sample(np.array([[1.0, 0.5], [0.4, 1.0]]), 50, 5, 5, seed=0)
        with pytest.raises(ValueError):
            correlated_ratio_sample(np.eye(2), 50, 50, 5, seed=0)
        with pytest.raises(ValueError):
            correlated_ratio_sample(np.eye(2), 50, -1, 5, seed=0)
        with pytest.raises(ValueError):
            correlated_ratio_sample(np.array([[2.0, 0.0], [0.0, 2.0]]), 50, 5, 5, seed=0)

    @pytest.mark.parametrize("threads", [0, -2, 65])
    def test_threads_out_of_range_rejected_before_any_draw(self, threads, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(streams, "stream_states", never)
        with pytest.raises(ValueError, match="at least 1 and at most 64 threads"):
            correlated_ratio_sample(np.eye(2), 50, 5, 5, seed=0, threads=threads)


def _brute_force_ratios(lam, n, k, r, seed):
    """The definition: per replication, 2(n+1) N(0, Lambda) vectors, squared
    and summed over the first 2(n-k) and over all of them (reference)."""
    root = chi2rep._symmetric_sqrt(lam)
    out = np.empty((r, lam.shape[0]))
    for rep in range(r):
        sq = np.square(stream_rng(seed, rep).standard_normal((2 * (n + 1), lam.shape[0])) @ root.T)
        out[rep] = sq[: 2 * (n - k)].sum(axis=0) / sq.sum(axis=0)
    return out


def _random_correlation(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, 2 * d))
    c = a @ a.T
    s = np.sqrt(np.diag(c))
    lam = c / np.outer(s, s)
    lam = (lam + lam.T) / 2.0
    np.fill_diagonal(lam, 1.0)
    return lam


def _two_sample_z(a, b):
    """z of the difference of two proportions, on the pooled proportion."""
    pooled = (a.sum() + b.sum()) / (a.size + b.size)
    return (a.mean() - b.mean()) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / a.size + 1.0 / b.size))


class TestBartlettDraw:
    """The exact Wishart-diagonal draw has the law of the normal sums."""

    @pytest.mark.parametrize("n,k,rho2,seed", [(10**4, 100, 2.0 - math.sqrt(2.0), 31),
                                               (400, 20, 0.49, 32),
                                               (2, 1, 0.81, 33)])
    def test_matches_kibble_cdf(self, n, k, rho2, seed):
        r = 20000
        rho = math.sqrt(rho2)
        grid = beta_quantile_grid(n, k)
        exact = ratio_joint_cdf(rho2, n, k, grid)
        ratios = correlated_ratio_sample(np.array([[1.0, rho], [rho, 1.0]]), n, k, r, seed=seed)
        z = (ecdf_on_grid(ratios, [grid, grid]) - exact) / np.sqrt(exact * (1.0 - exact) / r)
        assert np.abs(z).max() <= 4.5

    # (5, 6, 1) and (5, 2, 1) draw the remainder from 4 < d vectors, and
    # (3, 40, 39) and (5, 2, 1) the numerator from 2 < d vectors
    @pytest.mark.parametrize("d,n,k", [(1, 9, 3), (3, 40, 39), (5, 6, 1), (5, 2, 1), (16, 50, 5)])
    def test_matches_brute_force(self, d, n, k):
        r = 10000
        lam = _random_correlation(d, seed=d)
        got = correlated_ratio_sample(lam, n, k, r, seed=41)
        want = _brute_force_ratios(lam, n, k, r, seed=42)
        q = stats.beta(n - k, k + 1).ppf([0.25, 0.5, 0.75])
        z = [_two_sample_z(got[:, i] <= x, want[:, i] <= x) for i in range(d) for x in q]
        z += [_two_sample_z((got[:, i] <= q[1]) & (got[:, j] <= q[1]), (want[:, i] <= q[1]) & (want[:, j] <= q[1]))
              for i in range(d) for j in range(i + 1, d)]
        assert max(abs(v) for v in z) <= 4.5

    @pytest.mark.parametrize("d,n,k", [(1, 40, 3), (2, 40, 3), (3, 40, 39), (5, 2, 1), (16, 50, 5)])
    def test_threads_do_not_change_bits(self, d, n, k):
        lam = _random_correlation(d, seed=d)
        one = correlated_ratio_sample(lam, n, k, 7, seed=23, threads=1)
        three = correlated_ratio_sample(lam, n, k, 7, seed=23, threads=3)
        assert np.array_equal(one, three)


def _stream_contract_ratios(lam, n, k, r, seed):
    """The documented stream, spelled out entry by entry (reference).

    Replication rep is row rep % 64 of chunk rep // 64, and every chunk is
    drawn in full from its stream 0, numpy's SFC64 seeded by
    SeedSequence(seed, spawn_key=(chunk, 0, 0)).  A chunk draws the
    numerator's factors (m = 2(n-k)) and then the remainder's
    (m = 2(k+1)), each as a 64 x d x q normal array, q = min(d, m), and
    then a 64 x q array of Gamma((m - q + 1) / 2) variates.  A factor keeps
    its normals below the diagonal, and its diagonal entry j is the square
    root of twice the j-th Gamma variate plus the squares of row j's
    normals above the diagonal, added left to right.
    """
    root = chi2rep._symmetric_sqrt(lam)
    d = lam.shape[0]
    chunks = -(-r // 64)
    out = np.empty((64 * chunks, d))
    for c in range(chunks):
        rng = numpy_stream(seed, c)
        parts = []
        for m in (2 * (n - k), 2 * (k + 1)):
            q = min(d, m)
            z = rng.standard_normal((64, d, q))
            g = rng.standard_gamma((m - q + 1) / 2, size=(64, q))
            part = np.empty((64, d))
            for row in range(64):
                a = np.zeros((d, q))
                for i in range(d):
                    for j in range(min(i, q)):
                        a[i, j] = z[row, i, j]
                for j in range(q):
                    total = 2.0 * g[row, j]
                    for col in range(j + 1, q):
                        total += z[row, j, col] * z[row, j, col]
                    a[j, j] = math.sqrt(total)
                part[row] = np.square(root @ a).sum(axis=1)
            parts.append(part)
        out[64 * c:64 * (c + 1)] = parts[0] / (parts[0] + parts[1])
    return out[:r]


class TestStreamContract:
    """The sampler consumes its per-chunk streams as documented, so a
    change of draw order shows here before it changes a report.

    n = 7 with k = 6 and n = 40 with k = 39 give the numerator 2 < d
    vectors; k = 2 and k = 3 give the remainder 6 or 8 < 16 vectors, and
    k = 0 (the maximum) gives it 2.
    """

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("n,k", [(40, 3), (40, 39), (7, 2), (7, 6), (2000, 44), (40, 0)])
    def test_correlated_equals_reference(self, d, n, k):
        lam = _random_correlation(d, seed=d)
        got = correlated_ratio_sample(lam, n, k, 5, seed=21)
        assert np.array_equal(got, _stream_contract_ratios(lam, n, k, 5, 21))

    def test_correlated_crosses_chunks(self):
        lam = _random_correlation(3, seed=3)
        got = correlated_ratio_sample(lam, 40, 3, 130, seed=24, threads=2)
        assert np.array_equal(got, _stream_contract_ratios(lam, 40, 3, 130, 24))

    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_depend_on_seed_and_replication_only(self, d):
        # a chunk is drawn in full whatever R and threads are
        lam = _random_correlation(d, seed=d)
        full = correlated_ratio_sample(lam, 40, 3, 200, seed=25)
        for r in (1, 63, 64, 65, 200):
            for threads in (1, 3):
                got = correlated_ratio_sample(lam, 40, 3, r, seed=25, threads=threads)
                assert np.array_equal(got, full[:r]), (r, threads)


class TestRepresentationDistance:
    @staticmethod
    def _batch(values, n, k, seed=0):
        return OSBatch(values=values, n=n, k=(k, k), convention="n-k", seed=seed)

    def test_identical_inputs_give_zero(self):
        rv = correlated_ratio_sample(np.eye(2), 100, 9, 500, seed=11)
        batch = self._batch(rv, 100, 9)
        assert representation_distance(batch, rv) == 0.0

    def test_same_law_below_dkw_band(self):
        # two independent samples from one law stay within the DKW-style bound
        n, k, r = 400, 20, 10**4
        a = correlated_ratio_sample(np.eye(2), n, k, r, seed=12)
        b = correlated_ratio_sample(np.eye(2), n, k, r, seed=13)
        dist = representation_distance(self._batch(a, n, k), b)
        delta = 1e-3
        assert dist <= 4.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * r))

    def test_detects_distribution_shift(self):
        n, k, r = 400, 20, 4000
        a = correlated_ratio_sample(np.eye(2), n, k, r, seed=14)
        shifted = self._batch(a * 0.98, n, k)
        assert representation_distance(shifted, a) > 0.1

    def test_shape_mismatch_rejected(self):
        ratios = correlated_ratio_sample(np.eye(2), 100, 9, 50, seed=15)
        batch = self._batch(ratios, 100, 9)
        for narrow in (ratios[:, :1], ratios[:, 0]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                representation_distance(batch, narrow)
        with pytest.raises(ValueError, match="replication mismatch"):
            representation_distance(self._batch(ratios[:49], 100, 9), ratios)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distance_equals_direct_mask_count(self, d):
        # the largest difference of the two samples' counts at or below a
        # node of the pooled quantile grid, over R
        rng = np.random.default_rng(40 + d)
        for reps in (1, 7, 300):
            # eighths: many ties and many rows exactly on grid points
            a, b = (np.round(8.0 * rng.random((reps, d))) / 8.0 for _ in range(2))
            grid = quantile_grid([a, b])
            want = np.abs(self._mask_counts(a, grid) - self._mask_counts(b, grid)).max() / reps
            batch = OSBatch(values=a, n=100, k=(9,) * d, convention="n-k", seed=0)
            assert representation_distance(batch, b) == want

    def test_ecdf_on_grid_matches_direct_count(self):
        rng = np.random.default_rng(3)
        values = rng.random((500, 2))
        grid = quantile_grid([values])
        ecdf = ecdf_on_grid(values, grid)
        i, j = 2, 6
        direct = np.mean((values[:, 0] <= grid[0][i]) & (values[:, 1] <= grid[1][j]))
        assert ecdf[i, j] == direct

    @staticmethod
    def _mask_counts(values, grid):
        # the R x grid indicator array, summed over rows
        d = values.shape[1]
        mask = np.ones((values.shape[0],) + tuple(len(g) for g in grid), dtype=bool)
        for i, g in enumerate(grid):
            shape = [1] * d
            shape[i] = len(g)
            mask &= values[:, i].reshape([-1] + [1] * d) <= np.asarray(g).reshape(shape)[None]
        return mask.sum(axis=0)

    @classmethod
    def _mask_ecdf(cls, values, grid):
        return cls._mask_counts(values, grid) / values.shape[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_ecdf_on_grid_matches_mask(self, d):
        rng = np.random.default_rng(20 + d)
        for trial in range(6):
            reps = int(rng.integers(1, 400))
            # eighths: many ties among the rows and many rows exactly on grid points
            values = np.round(8.0 * rng.random((reps, d))) / 8.0
            if trial % 2:
                grid = quantile_grid([values])
            else:  # short unsorted grids with repeated points
                grid = [np.round(8.0 * rng.random(int(rng.integers(1, 6)))) / 8.0 for _ in range(d)]
            got = ecdf_on_grid(values, grid)
            want = self._mask_ecdf(values, grid)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

import tracemalloc

import numpy as np
import pytest

from mvos._special import ndtr
from mvos.diagnostics import ks_statistic, moment_summary


def _second_moments_rdd(centered):
    """E[(X_i - m_i)^2 (X_j - m_j)^2] through the R x d x d products of all
    pairs at once: the formula moment_summary used to form."""
    sq = centered[:, :, None] * centered[:, None, :]
    return np.mean(sq * sq, axis=0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 12])
@pytest.mark.parametrize("r", [2, 3, 7, 8, 9, 64, 500, 4000, 10**5])
def test_moment_summary_matches_rdd_formula_bit_for_bit(r, d):
    values = np.random.default_rng(r * 31 + d).standard_normal((r, d)) * np.linspace(0.5, 2.0, d) + 0.25
    got = moment_summary(values)
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / r
    want_se = np.sqrt(np.maximum(_second_moments_rdd(centered) - cov * cov, 0.0) / r)
    assert np.array_equal(got.cov, cov)
    assert np.array_equal(got.cov_se, want_se)
    assert np.array_equal(got.mean_se, np.sqrt(np.diag(cov) / r))


def test_moment_summary_memory_linear_in_d():
    # an R x d x d product would take 40 times R * d * 8 bytes here (about 256 MB)
    r, d = 20000, 40
    values = np.random.default_rng(1).standard_normal((r, d))
    tracemalloc.start()
    try:
        moment_summary(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * r * d * 8


def _ks_whole_matrix(sample, cdf):
    """The KS statistic through one sort, one cdf call and R x d
    differences for all columns at once: the formula ks_statistic used to
    form."""
    x = np.sort(np.asarray(sample, dtype=float), axis=0)
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    steps = (np.arange(1, n + 1) / n).reshape((n,) + (1,) * (x.ndim - 1))
    stat = np.maximum(steps - f, f - (steps - 1.0 / n)).max(axis=0)
    return float(stat) if x.ndim == 1 else stat


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (500,), (1, 3), (9, 1), (64, 5), (4000, 12), (30, 2, 3),
                                   (30000, 7), (70000, 2)])
def test_ks_statistic_matches_whole_matrix_formula_bit_for_bit(shape):
    # standard normal draws, a column of ties and one of a single value;
    # the last two shapes take two columns and one column per cdf call
    values = np.random.default_rng(sum(shape)).standard_normal(shape)
    if values.ndim > 1 and values.shape[1] > 1:
        values[::3, 0] = values[0, 0]
        values[:, -1] = 0.25
    for cdf in (ndtr, lambda x: np.clip(x, 0.0, 1.0)):
        got, want = ks_statistic(values, cdf), _ks_whole_matrix(values, cdf)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


def test_ks_statistic_memory_is_one_copy_of_the_sample():
    # the whole-matrix formula peaks at about 7.5 times R * d * 8 bytes here
    r, d = 10**5, 100
    values = np.random.default_rng(2).standard_normal((r, d))
    tracemalloc.start()
    try:
        ks_statistic(values, ndtr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * r * d * 8

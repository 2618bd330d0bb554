import tracemalloc

import numpy as np
import pytest

from mvos.diagnostics import moment_summary


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

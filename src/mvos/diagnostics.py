"""Shared statistical diagnostics for the simulation harness."""
from __future__ import annotations

import math
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from ._special import kolmogi, kolmogorov, ndtr

__all__ = [
    "ks_statistic",
    "ks_pvalue",
    "ks_critical_value",
    "ks_against_standard_normal",
    "MomentSummary",
    "moment_summary",
]


# values per cdf call in ks_statistic: a small sample's columns take one
# call, as each call has a fixed cost, and a large one's one column each
KS_BLOCK = 2**16


def ks_statistic(sample, cdf: Callable[[np.ndarray], np.ndarray]):
    """One-sample Kolmogorov-Smirnov statistic against a continuous cdf.

    An R x d matrix gives the d column statistics as an array: the columns
    are sorted in one d x R copy, and ``cdf`` is called on a flat array of
    as many whole columns as ``KS_BLOCK`` values hold (at least one), so
    beyond that copy the working memory is a few blocks.
    """
    sample = np.asarray(sample, dtype=float)
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    columns = np.array(sample.reshape(n, -1).T, order="C")
    columns.sort(axis=1)
    steps = np.arange(1, n + 1) / n
    below = steps - 1.0 / n
    stat, per = np.empty(len(columns)), max(1, KS_BLOCK // n)
    for lo in range(0, len(columns), per):
        block = columns[lo:lo + per]
        f = np.asarray(cdf(block.ravel()), dtype=float).reshape(block.shape)
        stat[lo:lo + per] = np.maximum(steps - f, f - below).max(axis=1)
    return float(stat[0]) if sample.ndim == 1 else stat.reshape(sample.shape[1:])


def ks_pvalue(stat: float, nobs: int) -> float:
    """Asymptotic (Kolmogorov-distribution) p-value of the statistic."""
    return float(kolmogorov(math.sqrt(nobs) * stat))


def ks_critical_value(level: float, nobs: int) -> float:
    """Statistic threshold at the given significance level, asymptotic."""
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    return _kolmogorov_quantile(level) / math.sqrt(nobs)


@cache
def _kolmogorov_quantile(level: float) -> float:
    # kolmogi bisects to the last bit, about 100 us; a config's level is fixed
    return float(kolmogi(level))


def ks_against_standard_normal(sample):
    """KS statistic against N(0, 1) of a sample, or of each column of a matrix."""
    return ks_statistic(sample, ndtr)


class MomentSummary(NamedTuple):
    """First and second moments of an R x d matrix with standard errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray


def moment_summary(values) -> MomentSummary:
    """Sample mean and covariance with asymptotic entrywise standard errors.

    The covariance stderr uses the delta-method variance
    (E[(X_i - m_i)^2 (X_j - m_j)^2] - cov_ij^2) / R, which needs no
    normality assumption.  The fourth moments are formed one column i at
    a time, as the R x d products (X_i - m_i)(X_j - m_j) over j, so the
    working memory is about 3 R d values at any d.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need an R x d matrix with R >= 2")
    r = v.shape[0]
    mean = v.mean(axis=0)
    centered = v - mean
    cov = centered.T @ centered / r
    mean_se = np.sqrt(np.diag(cov) / r)
    second = np.array([np.mean(np.square(centered * col[:, None]), axis=0) for col in centered.T])
    cov_se = np.sqrt(np.maximum(second - cov * cov, 0.0) / r)
    return MomentSummary(mean=mean, mean_se=mean_se, cov=cov, cov_se=cov_se)

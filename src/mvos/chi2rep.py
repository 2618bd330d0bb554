"""Normal-square-ratio representation of uniform order statistics.

The i-th of n uniform order statistics is distributed as the ratio of the
first 2i squared standard normals to the first 2(n+1); replacing the iid
normals by vectors drawn from N(0, Lambda), with Lambda the entrywise
square root of the limit covariance, yields a d-variate sample whose law
approaches that of the componentwise (n-k)-th order statistics.  Lambda
must itself be positive semidefinite, which the entrywise square root of
a PSD matrix need not be; the sampler therefore gates on an eigenvalue
check.

Neither sampler sums the normals.  The componentwise sums of squares of m
vectors from N(0, Lambda) are the diagonal of a Wishart_d(m, Lambda)
matrix, which Bartlett's decomposition draws exactly from at most d
chi-squares and d(d-1)/2 normals, so a replication costs O(d^2) whatever
n is.  Both samplers draw per replication and do their arithmetic once
per block of ``streams.replicate``, which holds at most
``streams.BLOCK_REPLICATIONS`` replications and
``streams.BLOCK_ELEMENTS`` factor entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dnorm import is_positive_semidefinite, _check_symmetric
from .orderstats import OSBatch
from .streams import replicate

__all__ = [
    "RatioVectorSample",
    "NotPositiveSemidefiniteError",
    "check_correlation",
    "univariate_ratio_sample",
    "correlated_ratio_sample",
    "representation_distance",
    "quantile_grid",
    "ecdf_on_grid",
]


class NotPositiveSemidefiniteError(ValueError):
    """Raised when the requested correlation matrix fails the PSD gate."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semidefinite (smallest eigenvalue {min_eigenvalue:.6e})"
        )


@dataclass(frozen=True)
class RatioVectorSample:
    """R x d matrix of correlated order-statistic ratios with metadata."""

    ratios: np.ndarray
    n: int
    k: int

    @property
    def d(self) -> int:
        return self.ratios.shape[1]


def univariate_ratio_sample(i: int, n: int, r: int, seed: int) -> np.ndarray:
    """R iid copies of (sum of first 2i squared normals) / (sum of first 2(n+1)).

    The two sums are independent chi-squares, so replication r draws
    chi^2(2i) and then chi^2(2(n + 1 - i)) from its own stream keyed by
    (seed, r) and returns the first over their total; the result has the
    Beta(i, n + 1 - i) distribution.  The draws are made per replication
    and the ratios once per block of ``streams.replicate``.
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    if r < 1:
        raise ValueError("need at least one replication")

    def draw(rngs: Sequence[np.random.Generator]) -> np.ndarray:
        num, rest = np.array([rng.chisquare((2 * i, 2 * (n + 1 - i))) for rng in rngs]).T
        return num / (num + rest)

    return replicate(np.empty(r), seed, 1, lambda: draw, 2)


def _symmetric_sqrt(lam: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(lam)
    vals = np.clip(vals, 0.0, None)  # eigensolver noise on a gated PSD input
    return (vecs * np.sqrt(vals)) @ vecs.T


def check_correlation(lam) -> np.ndarray:
    """Lambda as a float matrix after its shape checks: square, finite,
    symmetric and unit-diagonal.  Semidefiniteness is the separate gate."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    lam = _check_symmetric(lam, "lambda")
    if not np.allclose(np.diag(lam), 1.0, atol=1e-9):
        raise ValueError("lambda must have unit diagonal")
    return lam


def correlated_ratio_sample(lam, n: int, k: int, r: int, seed: int, threads: int = 1) -> RatioVectorSample:
    """Componentwise ratios driven by shared N(0, Lambda) draws.

    Component i's ratio is the sum of its first 2(n-k) squared coordinates
    over the sum of all 2(n+1), across 2(n+1) iid N(0, Lambda) vectors.
    Margins are Beta(n-k, k+1) regardless of the off-diagonal part of
    Lambda.

    The two parts of the sum are independent Wishart diagonals with
    2(n-k) and 2(k+1) degrees of freedom, diag(root A A^T root^T) for the
    symmetric root of Lambda and the d x min(d, m) lower-trapezoidal
    Bartlett factor A of a Wishart_d(m, I) matrix.  The d x m Gaussian
    matrix Z has Z Z^T = A A^T with A[j, j] = sqrt(chi^2(m - j)) for
    0-based j and iid N(0, 1) below the diagonal, all independent; this
    holds for every m >= 1, so fewer vectors than dimensions need no other
    path.

    Replication r draws from the stream keyed by (seed, r) the numerator's
    factor and then the remainder's, each as d x min(d, m) normals (those
    on and above the diagonal are overwritten or discarded) and then the
    min(d, m) chi-squares, one scalar call each, which costs less than one
    call on an array of degrees of freedom.  ``streams.replicate`` hands
    the replications over in blocks: each replication draws its factors
    with its own calls to its own generator, and the square roots, the
    diagonals and the products ``root @ A`` run once per block on the
    stacked factors, which gives each slice the bits of its own product.
    So the result depends neither on the blocks nor on ``threads``.
    """
    lam = check_correlation(lam)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if r < 1:
        raise ValueError("need at least one replication")
    ok, min_eig = is_positive_semidefinite(lam)
    if not ok:
        raise NotPositiveSemidefiniteError(min_eig)

    root = _symmetric_sqrt(lam)
    d = len(lam)
    factors = [(np.triu(np.ones((d, min(d, m)), dtype=bool), 1), range(m, m - min(d, m), -1))
               for m in (2 * (n - k), 2 * (k + 1))]

    def diagonal(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """diag(root A A^T root^T) for each stacked factor A."""
        a[:, upper] = 0.0
        return np.square(root @ a).sum(axis=2)

    def draw(rngs: Sequence[np.random.Generator]) -> np.ndarray:
        stacks = [np.empty((len(rngs), *upper.shape)) for upper, _ in factors]
        chi2 = [np.empty((len(rngs), len(dfs))) for _, dfs in factors]
        for j, rng in enumerate(rngs):
            normal, chisquare = rng.standard_normal, rng.chisquare
            for a, diag, (_, dfs) in zip(stacks, chi2, factors):
                normal(out=a[j])
                diag[j] = [chisquare(df) for df in dfs]
        for a, diag in zip(stacks, chi2):
            a[:, range(diag.shape[1]), range(diag.shape[1])] = np.sqrt(diag, out=diag)
        num, tail = (diagonal(a, upper) for a, (upper, _) in zip(stacks, factors))
        return num / (num + tail)

    elements = sum(upper.size for upper, _ in factors)
    ratios = replicate(np.empty((r, d)), seed, threads, lambda: draw, elements)
    return RatioVectorSample(ratios=ratios, n=int(n), k=int(k))


# ---------------------------------------------------------------------------
# distribution distance on a quantile grid

def quantile_grid(samples: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-component pooled quantiles at levels 0.1, ..., 0.9."""
    levels = np.linspace(0.1, 0.9, 9)
    pooled = np.concatenate([np.asarray(s, dtype=float) for s in samples], axis=0)
    return [np.quantile(pooled[:, i], levels) for i in range(pooled.shape[1])]


def ecdf_on_grid(values: np.ndarray, grid: Sequence[np.ndarray]) -> np.ndarray:
    """Joint empirical cdf of the rows of ``values`` on a tensor grid.

    Each row is coded per column by how many grid points lie below it;
    one count per code cell, summed cumulatively along every axis, gives
    the number of rows at or below each grid node.  Memory is
    O(R d + prod(len(g) + 1)), and the exact integer counts make the
    result equal to the mean of the R x grid indicator array.
    """
    values = np.asarray(values, dtype=float)
    r, d = values.shape
    if len(grid) != d:
        raise ValueError("grid dimension mismatch")
    grid = [np.asarray(g, dtype=float) for g in grid]
    orders = [np.argsort(g, kind="stable") for g in grid]
    shape = tuple(len(g) + 1 for g in grid)
    codes = [np.searchsorted(g[order], v, side="left") for g, order, v in zip(grid, orders, values.T)]
    counts = np.bincount(np.ravel_multi_index(codes, shape), minlength=math.prod(shape)).reshape(shape)
    for axis, order in enumerate(orders):
        # code c <= m exactly when the m-th smallest grid point is >= the value
        counts = np.cumsum(counts, axis=axis, out=counts).take(np.argsort(order), axis=axis)
    return counts / r


def representation_distance(os_batch: OSBatch, ratio_sample: RatioVectorSample) -> float:
    """Max absolute difference of the two joint empirical cdfs on a grid.

    Both inputs must describe the same (n, k, d); the grid is the tensor
    product of pooled per-component quantiles at levels 0.1 to 0.9.
    """
    ks = set(os_batch.k)
    if len(ks) != 1 or ks.pop() != ratio_sample.k:
        raise ValueError(f"rank mismatch: k = {os_batch.k} vs {ratio_sample.k}")
    if os_batch.n != ratio_sample.n:
        raise ValueError(f"sample-size mismatch: n = {os_batch.n} vs {ratio_sample.n}")
    if os_batch.d != ratio_sample.d:
        raise ValueError(f"dimension mismatch: d = {os_batch.d} vs {ratio_sample.d}")
    grid = quantile_grid([os_batch.values, ratio_sample.ratios])
    a = ecdf_on_grid(os_batch.values, grid)
    b = ecdf_on_grid(ratio_sample.ratios, grid)
    return float(np.abs(a - b).max())

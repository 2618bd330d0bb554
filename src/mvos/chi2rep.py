"""Normal-square-ratio representation of uniform order statistics.

The i-th of n uniform order statistics is distributed as the ratio of the
first 2i squared standard normals to the first 2(n+1); replacing the iid
normals by vectors drawn from N(0, Lambda), with Lambda the entrywise
square root of the limit covariance, yields a d-variate sample whose law
approaches that of the componentwise (n-k)-th order statistics.  Lambda
must itself be positive semidefinite, which the entrywise square root of
a PSD matrix need not be; the sampler therefore gates on an eigenvalue
check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dnorm import is_positive_semidefinite, _check_symmetric
from .orderstats import OSBatch
from .streams import run_in_ranges, stream_rng

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

# draws are consumed in blocks of this many vectors per replication
_BLOCK = 65536


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
    lam: np.ndarray
    seed: int

    @property
    def replications(self) -> int:
        return self.ratios.shape[0]

    @property
    def d(self) -> int:
        return self.ratios.shape[1]


def univariate_ratio_sample(i: int, n: int, r: int, seed: int) -> np.ndarray:
    """R iid copies of (sum of first 2i squared normals) / (sum of first 2(n+1)).

    Each replication draws from its own stream keyed by (seed, index); the
    result has the Beta(i, n + 1 - i) distribution.
    """
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    if r < 1:
        raise ValueError("need at least one replication")
    out = np.empty(r)
    num_terms = 2 * i
    den_terms = 2 * (n + 1)
    for rep in range(r):
        rng = stream_rng(seed, rep)
        num = 0.0
        den = 0.0
        done = 0
        while done < den_terms:
            take = min(_BLOCK, den_terms - done)
            sq = np.square(rng.standard_normal(take))
            cut = min(max(num_terms - done, 0), take)
            num += float(sq[:cut].sum())
            den += float(sq.sum())
            done += take
        out[rep] = num / den
    return out


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

    Per replication, 2(n+1) vectors are drawn; component i's ratio is the
    sum of its first 2(n-k) squared coordinates over the sum of all
    2(n+1).  Margins are Beta(n-k, k+1) regardless of the off-diagonal
    part of Lambda.

    Vectors are drawn in blocks of up to ``_BLOCK`` rows into two
    min(2(n+1), _BLOCK) x d buffers that each thread allocates once and
    reuses for every replication it runs.  For d >= 2 both sums are read
    off one in-place running sum down the rows of each block, which adds
    the rows in order: the sequential sum that ``sum(axis=0)`` takes on a
    C-ordered (m, d) array, so the ratios are bit for bit those of summing
    each block.  At d = 1 that axis-0 sum is pairwise instead, so the
    block is summed twice as such.  Replication r draws from the stream
    keyed by r, so the result does not depend on ``threads``.
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
    d = lam.shape[0]
    num_terms = 2 * (n - k)
    den_terms = 2 * (n + 1)
    out = np.empty((r, d))

    def run_range(lo: int, hi: int) -> None:
        z = np.empty((min(_BLOCK, den_terms), d))
        y = np.empty_like(z)
        for rep in range(lo, hi):
            rng = stream_rng(seed, rep)
            num = np.zeros(d)
            den = np.zeros(d)
            done = 0
            while done < den_terms:
                take = min(_BLOCK, den_terms - done)
                sq = y[:take]
                # z @ root.T as always: BLAS need not round root @ z.T the same way
                np.matmul(rng.standard_normal(out=z[:take]), root.T, out=sq)
                np.square(sq, out=sq)
                cut = min(max(num_terms - done, 0), take)
                if d == 1:
                    if cut:
                        num += sq[:cut].sum(axis=0)
                    den += sq.sum(axis=0)
                else:
                    np.cumsum(sq, axis=0, out=sq)
                    if cut:
                        num += sq[cut - 1]
                    den += sq[-1]
                done += take
            out[rep] = num / den

    run_in_ranges(r, threads, run_range)
    return RatioVectorSample(ratios=out, n=int(n), k=int(k), lam=lam, seed=int(seed))


# ---------------------------------------------------------------------------
# distribution distance on a quantile grid

def quantile_grid(samples: Sequence[np.ndarray], levels=None) -> list[np.ndarray]:
    """Per-component pooled quantiles; default levels 0.1, ..., 0.9."""
    if levels is None:
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


def representation_distance(os_batch: OSBatch, ratio_sample: RatioVectorSample, grid=None) -> float:
    """Max absolute difference of the two joint empirical cdfs on the grid.

    Both inputs must describe the same (n, k, d); the default grid is the
    tensor product of pooled per-component quantiles at levels 0.1 to 0.9.
    """
    ks = set(os_batch.k)
    if len(ks) != 1 or ks.pop() != ratio_sample.k:
        raise ValueError(f"rank mismatch: k = {os_batch.k} vs {ratio_sample.k}")
    if os_batch.n != ratio_sample.n:
        raise ValueError(f"sample-size mismatch: n = {os_batch.n} vs {ratio_sample.n}")
    if os_batch.d != ratio_sample.d:
        raise ValueError(f"dimension mismatch: d = {os_batch.d} vs {ratio_sample.d}")
    if grid is None:
        grid = quantile_grid([os_batch.values, ratio_sample.ratios])
    a = ecdf_on_grid(os_batch.values, grid)
    b = ecdf_on_grid(ratio_sample.ratios, grid)
    return float(np.abs(a - b).max())

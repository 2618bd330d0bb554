"""Normal-square-ratio representation of uniform order statistics.

The i-th of n uniform order statistics is distributed as the ratio of the
first 2i squared standard normals to the first 2(n+1); replacing the iid
normals by vectors drawn from N(0, Lambda), with Lambda the entrywise
square root of the limit covariance, yields a d-variate sample whose law
approaches that of the componentwise (n-k)-th order statistics.  Lambda
must itself be positive semidefinite, which the entrywise square root of
a PSD matrix need not be; the sampler therefore gates on an eigenvalue
check.

The sampler sums no normals.  The componentwise sums of squares of m
vectors from N(0, Lambda) are the diagonal of a Wishart_d(m, Lambda)
matrix, which Bartlett's decomposition draws exactly from at most d
Gamma variates and d^2 normals, those above the diagonal completing the
chi-squares on it, so a replication costs O(d^2) whatever n is.  At
d = 1 it is the univariate representation.  It draws ``RATIO_CHUNK``
replications per stream, a few generator calls a chunk, from the
chunk's one generator, and ``streams.replicate`` runs the chunks as its
replications, chunk c on ``stream_rng(seed, c)``'s stream: at most
``streams.BLOCK_REPLICATIONS`` chunks a block and
``streams.BLOCK_ELEMENTS`` factor entries, with the arithmetic once per
block.  So there is no replication loop or seeding of its own.

The grid distance codes each sample's rows by grid cell once and takes
the difference of the two joint empirical cdfs as one signed count table.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dnorm import is_positive_semidefinite, _check_symmetric
from .orderstats import OSBatch
from .streams import _reused, range_store, replicate

# replications per derived stream of the ratio sampler: chunk c holds
# replications c * RATIO_CHUNK to (c + 1) * RATIO_CHUNK - 1; the chunk
# layout is part of the reproducibility contract, so treat it as frozen
RATIO_CHUNK = 64

__all__ = [
    "RATIO_CHUNK",
    "NotPositiveSemidefiniteError",
    "check_correlation",
    "correlation_root",
    "correlated_ratio_sample",
    "ratio_sample",
    "representation_distance",
    "quantile_grid",
]


class NotPositiveSemidefiniteError(ValueError):
    """Raised when the requested correlation matrix fails the PSD gate."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semidefinite (smallest eigenvalue {min_eigenvalue:.6e})"
        )


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


def correlation_root(lam) -> tuple[np.ndarray, float]:
    """Lambda's symmetric root and its smallest eigenvalue, after
    ``check_correlation`` and the semidefiniteness gate, which raises
    ``NotPositiveSemidefiniteError``: what ``ratio_sample`` draws from."""
    lam = check_correlation(lam)
    ok, min_eig = is_positive_semidefinite(lam)
    if not ok:
        raise NotPositiveSemidefiniteError(min_eig)
    return _symmetric_sqrt(lam), min_eig


def correlated_ratio_sample(lam, n: int, k: int, r: int, seed: int, threads: int = 1) -> np.ndarray:
    """R x d componentwise ratios driven by shared N(0, Lambda) draws.

    Component i's ratio is the sum of its first 2(n-k) squared coordinates
    over the sum of all 2(n+1), across 2(n+1) iid N(0, Lambda) vectors.
    Margins are Beta(n-k, k+1), the law of the (n-k)-th of n uniform order
    statistics, regardless of the off-diagonal part of Lambda; so d = 1
    (Lambda = [[1]]) is the univariate representation, and k = 0 the
    maximum, Beta(n, 1).

    The two parts of the sum are independent Wishart diagonals with
    m = 2(n-k) and m = 2(k+1) degrees of freedom, diag(root A A^T root^T)
    for the symmetric root of Lambda and the d x q lower-trapezoidal
    Bartlett factor A of a Wishart_d(m, I) matrix, q = min(d, m).  The
    d x m Gaussian matrix Z has Z Z^T = A A^T with A[j, j]^2 chi^2(m - j)
    for 0-based j and iid N(0, 1) below the diagonal, all independent;
    this holds for every m >= 1, so fewer vectors than dimensions need no
    other path.  Since chi^2(m - j) = chi^2(m - q + 1) + chi^2(q - 1 - j)
    for independent parts, A[j, j]^2 = 2 G_j + Z[j, j+1]^2 + ... +
    Z[j, q-1]^2, added left to right, with G_j Gamma((m - q + 1) / 2) and
    Z[j, l] the normals above the diagonal of a d x q normal matrix.

    Replications come in chunks of ``RATIO_CHUNK``, each drawn in full.
    Chunk c draws from its one generator, ``streams.stream_rng(seed, c)``'s
    stream, the numerator's factors and
    then the remainder's, each as one ``standard_normal`` call of shape
    (RATIO_CHUNK, d, q) and one ``standard_gamma`` call of shape
    (RATIO_CHUNK, q).  ``streams.replicate`` runs the chunks, split
    by whole chunks across ``threads``, and the diagonals and the products
    ``root @ A`` run once per block of chunks on the stacked factors,
    which gives each slice the bits of its own product.  So replication
    r's ratios depend only on (seed, r): neither on R nor on ``threads``.
    """
    check_correlation(lam)
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if not 1 <= r <= 2**32:
        raise ValueError("need 1 <= replications <= 2**32")
    return ratio_sample(correlation_root(lam)[0], n, k, r, seed, threads)


def ratio_sample(root: np.ndarray, n: int, k: int, r: int, seed: int, threads: int = 1) -> np.ndarray:
    """``correlated_ratio_sample``'s ratios from Lambda's symmetric root as
    ``correlation_root`` returns it, with no checks of their own: n, k and
    r must pass that function's, so a caller drawing at several sizes
    checks, gates and roots Lambda once.  A block's factor stacks and
    products are kept in the thread's store (``streams.range_store``)."""
    d = len(root)
    # per factor: width q, Gamma shape and the mask of the entries above the diagonal
    factors = []
    for m in (2 * (n - k), 2 * (k + 1)):
        q = min(d, m)
        factors.append((q, (m - q + 1) / 2, np.triu(np.ones((d, q), dtype=bool), 1)))

    def diagonal(z: np.ndarray, g: np.ndarray, upper: np.ndarray, product: np.ndarray) -> np.ndarray:
        """diag(root A A^T root^T) for the factors A completed from the
        stacked normals ``z`` and Gamma variates ``g``; ``product`` holds
        root A."""
        q = g.shape[1]
        g *= 2.0
        for col in range(1, q):
            g[:, :col] += np.square(z[:, :col, col])
        z[:, upper] = 0.0
        z[:, range(q), range(q)] = np.sqrt(g, out=g)
        return np.square(np.matmul(root, z, out=product), out=product).sum(axis=2)

    def make_draw() -> Callable[[list], np.ndarray]:
        store = range_store()

        def draw(rngs: list) -> np.ndarray:
            b = len(rngs)
            stacks = [(_reused(store, f"z{i}", (b, RATIO_CHUNK, d, q)), _reused(store, f"g{i}", (b, RATIO_CHUNK, q)))
                      for i, (q, _, _) in enumerate(factors)]
            for j, rng in enumerate(rngs):
                for (z, g), (_, shape, _) in zip(stacks, factors):
                    rng.standard_normal(out=z[j])
                    rng.standard_gamma(shape, out=g[j])
            num, tail = (diagonal(z.reshape(-1, d, q), g.reshape(-1, q), upper, _reused(store, "product", (b * RATIO_CHUNK, d, q)))
                         for (z, g), (q, _, upper) in zip(stacks, factors))
            return (num / (num + tail)).reshape(b, RATIO_CHUNK, d)

        return draw

    # the chunks are replicate's replications, each drawn in full
    chunks, elements = -(-r // RATIO_CHUNK), RATIO_CHUNK * sum(d * q for q, _, _ in factors)
    out = replicate(np.empty((chunks, RATIO_CHUNK, d)), seed, threads, make_draw, elements)
    return out.reshape(-1, d)[:r]


# ---------------------------------------------------------------------------
# distribution distance on a quantile grid

def quantile_grid(samples: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-component pooled quantiles at levels 0.1, ..., 0.9, all
    columns in one call."""
    levels = np.linspace(0.1, 0.9, 9)
    pooled = np.concatenate([np.asarray(s, dtype=float) for s in samples], axis=0)
    return list(np.quantile(pooled, levels, axis=0).T)


def _cell_counts(values: np.ndarray, grid: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of ``values`` per cell of the sorted ``grid``: a row's cell
    is, per column, how many grid points lie below it, from 0 to
    len(g) - 1.  A row above a column's last point lies at or below no
    node, so it is left out, and the table has prod(len(g)) cells."""
    shape = tuple(len(g) for g in grid)
    codes = np.array([np.searchsorted(g, v, side="left") for g, v in zip(grid, values.T)])
    codes = codes[:, np.all(codes < np.array(shape)[:, None], axis=0)]
    return np.bincount(np.ravel_multi_index(codes, shape), minlength=math.prod(shape)).reshape(shape)


def _running_sums(counts: np.ndarray) -> np.ndarray:
    """The integer table ``counts`` summed cumulatively along every axis, in
    place: one slice add per layer of an axis, each a long inner loop, where
    ``np.cumsum`` walks the table as many loops of one axis's length."""
    for axis in range(counts.ndim):
        layers = np.moveaxis(counts, axis, 0)
        for i in range(1, len(layers)):
            layers[i] += layers[i - 1]
    return counts


def representation_distance(os_batch: OSBatch, ratios: np.ndarray) -> float:
    """Max absolute difference of the two joint empirical cdfs on a grid.

    ``ratios`` must have the width d and the number R of rows of the order
    statistics; both arms are meant to be drawn at one (n, k).  The grid
    is the tensor product of pooled per-component quantiles at levels 0.1
    to 0.9.  The difference is taken on the counts, as one signed table
    summed cumulatively along every axis, so the result is an exact count
    over R.
    """
    values, ratios = np.asarray(os_batch.values, dtype=float), np.asarray(ratios, dtype=float)
    if ratios.ndim != 2 or ratios.shape[1] != values.shape[1]:
        raise ValueError(f"dimension mismatch: d = {values.shape[1]} vs ratios of shape {ratios.shape}")
    if len(values) != len(ratios):
        raise ValueError(f"replication mismatch: R = {len(values)} vs {len(ratios)}")
    # the ecdfs at the sorted nodes are those at the nodes in any order
    grid = [np.sort(g) for g in quantile_grid([values, ratios])]
    diff = _cell_counts(values, grid)
    diff -= _cell_counts(ratios, grid)
    _running_sums(diff)
    return float(max(diff.max(), -diff.min()) / len(values))

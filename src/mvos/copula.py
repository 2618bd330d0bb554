"""Copula models attracted to an extreme-value limit, with exact samplers.

Each model carries the norm governing its upper-tail expansion
``C(u) = 1 - ||1 - u||_D + o(||1 - u||)``: the 1-norm for independence,
the sup-norm for comonotonicity, and the logistic p-norm for the
Gumbel-Hougaard family.

Every model samples in two steps: ``latent_sampler(n)`` returns a draw
that fills an n x d latent matrix from a generator, and ``to_uniform``
maps it elementwise to the copula scale through one nondecreasing map.
The draw allocates its buffers once and overwrites them on every call.
Such maps commute with order statistics, so a caller that keeps only a
few order statistics per column can select them on the latent draw, at
the same ranks, and map just those.

A caller that keeps only order statistics takes ``os_selector(model, n,
ranks)``: each call draws one replication as the latent draw does and
returns the latent order statistics of its columns at the given ranks,
equal to ``componentwise_os`` on the full draw.  Most models select on
the full draw.  The Gumbel model with p > 1 and n >= BRACKET_MIN_N
brackets each row's latent values from a table of Kanter's angle function
and runs the positive-stable formula only on the rows that can reach the
ranks (about 1% of them at n = 2e4); see ``_BracketedStableSelector``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dnorm import DNormSpec, LogisticP, SupNorm
from .orderstats import componentwise_os
from .streams import stream_rng

__all__ = [
    "Independence",
    "Comonotone",
    "GumbelLogistic",
    "CopulaModel",
    "copula_cdf",
    "copula_sample",
    "sample_rows",
    "os_selector",
    "log_positive_stable",
    "tail_expansion_check",
]

# draws one latent n x d matrix from the generator into the sampler's buffers
LatentSampler = Callable[[np.random.Generator], np.ndarray]
# draws one replication from the generator and returns its d latent order
# statistics at the selector's ranks
OSSelector = Callable[[np.random.Generator], np.ndarray]

# The bracketed Gumbel selector cuts V / pi into STABLE_BUCKETS buckets.
# Below BRACKET_MIN_N rows its bound work costs more than the formula it
# saves, and the full draw is selected instead.  Per replication against
# the full draw (p = 2, 2-vCPU Xeon): 1.22x at n = 500, 1.05x at 1000 and
# 0.81x at 4096 for d = 5; 1.10x, 0.92x and 0.69x for d = 2.  The bound
# work grows with n d and the saving with n, so at d = 16 the two take the
# same time (1.00x at n = 4096).
STABLE_BUCKETS = 4096
BRACKET_MIN_N = 4096

# rows per derived stream inside copula_sample; the chunk layout is part of
# the reproducibility contract, so treat it as frozen
SAMPLE_CHUNK = 65536


@dataclass(frozen=True)
class Independence:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def tail_dnorm(self) -> DNormSpec:
        return LogisticP(1.0)

    def latent_sampler(self, n: int) -> LatentSampler:
        rows = np.empty((n, self.d))
        return lambda rng: rng.random(out=rows)

    def to_uniform(self, latent: np.ndarray) -> np.ndarray:
        return latent

    def label(self) -> str:
        return f"independence(d={self.d})"


@dataclass(frozen=True)
class Comonotone:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def tail_dnorm(self) -> DNormSpec:
        return SupNorm()

    def latent_sampler(self, n: int) -> LatentSampler:
        column = np.empty(n)
        rows = np.empty((n, self.d))

        def draw(rng: np.random.Generator) -> np.ndarray:
            rng.random(out=column)
            rows[:] = column[:, None]
            return rows

        return draw

    def to_uniform(self, latent: np.ndarray) -> np.ndarray:
        return latent

    def label(self) -> str:
        return f"comonotone(d={self.d})"


@dataclass(frozen=True)
class GumbelLogistic:
    """Gumbel-Hougaard copula exp(-((-log u_1)^p + ... )^(1/p)), p >= 1."""

    d: int
    p: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not self.p >= 1:
            raise ValueError("Gumbel copula requires p >= 1")

    @property
    def tail_dnorm(self) -> DNormSpec:
        return LogisticP(self.p)

    # Archimedean mixture: S positive stable with index 1/p, E iid unit
    # exponentials, U_i = psi(E_i / S) with psi(t) = exp(-t^(1/p)).  The
    # latent value is -E_i at p = 1 and log S - log E_i otherwise, so the
    # (E_i / S)^(1/p) power is taken in log space and large p stays stable.
    # Both latent values increase with U_i, as every model's must.

    def latent_sampler(self, n: int) -> LatentSampler:
        rows = np.empty((n, self.d))
        if self.p == 1.0:
            def draw(rng: np.random.Generator) -> np.ndarray:
                rng.standard_exponential(out=rows)
                return np.negative(rows, out=rows)

            return draw
        work = np.empty((4, n))

        def draw(rng: np.random.Generator) -> np.ndarray:
            log_s = log_positive_stable(1.0 / self.p, n, rng, work)
            rng.standard_exponential(out=rows)
            with np.errstate(divide="ignore"):
                np.log(rows, out=rows)
            return np.subtract(log_s[:, None], rows, out=rows)

        return draw

    def to_uniform(self, latent: np.ndarray) -> np.ndarray:
        if self.p == 1.0:
            return np.exp(latent)
        return np.exp(-np.exp(-latent / self.p))

    def label(self) -> str:
        return f"gumbel(d={self.d}, p={self.p})"


CopulaModel = Union[Independence, Comonotone, GumbelLogistic]


# ---------------------------------------------------------------------------
# distribution functions

def copula_cdf(model: CopulaModel, u) -> float:
    """C(u) for u in the unit cube; accepts a vector or a (..., d) array."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != model.d:
        raise ValueError(f"u has width {u.shape[-1]}, model dimension is {model.d}")
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("u must lie in [0, 1]^d")
    if isinstance(model, Independence):
        out = np.prod(u, axis=-1)
    elif isinstance(model, Comonotone):
        out = np.min(u, axis=-1)
    else:
        with np.errstate(divide="ignore"):
            t = -np.log(u)
        # scaled p-norm over the last axis; rows touching u=0 give C=0
        m = t.max(axis=-1)
        zero = ~np.isfinite(m)
        safe_m = np.where((m == 0) | zero, 1.0, m)
        s = safe_m * np.sum((t / safe_m[..., None]) ** model.p, axis=-1) ** (1.0 / model.p)
        s = np.where(m == 0, 0.0, s)
        out = np.where(zero, 0.0, np.exp(-s))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sampling

def log_positive_stable(
    alpha: float, size: int, rng: np.random.Generator, work: Optional[np.ndarray] = None
) -> np.ndarray:
    """log of one-sided stable variates with Laplace transform exp(-s^alpha).

    Chambers-Mallows-Stuck construction specialized to total positive skew
    (Kanter's representation), valid for 0 < alpha < 1.  Kept on the log
    scale: for small alpha the variates themselves leave the double range.

    ``work``, if given, is a C-ordered (4, size) float array that the draw
    is computed in; the result is its first row.  Without it one is
    allocated.  Either way the variates are, bit for bit,

        log sin(alpha V) - log sin(V) / alpha
            + ((1 - alpha) / alpha) (log sin((1 - alpha) V) - log W)

    with V uniform on (0, pi) and W unit exponential, drawn in that order.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if work is None:
        work = np.empty((4, size))
    v, log_w = work[1], work[3]
    rng.random(out=v)
    v *= math.pi  # rng.uniform(0, pi) computes this product too
    rng.standard_exponential(out=log_w)
    np.log(log_w, out=log_w)
    return _log_stable_from_angle(alpha, work)


def _log_stable_from_angle(alpha: float, work: np.ndarray) -> np.ndarray:
    """Kanter's formula on V = work[1] and log W = work[3], in place.

    Returns work[0]; rows 1 and 2 are overwritten.  Each element takes the
    same ufuncs in the same order whatever the array's length, so a subset
    of rows gives the same bits as the full draw.  The three sines and
    their logs run as one call each over rows 0-2.
    """
    out, v, tail, log_w = work
    # the formula's operations in its order; products and sums of two
    # terms are exact under swapping the operands
    np.multiply(v, alpha, out=out)
    np.multiply(v, 1.0 - alpha, out=tail)
    sines = work[:3]
    np.sin(sines, out=sines)
    np.log(sines, out=sines)
    np.divide(v, alpha, out=v)
    np.subtract(out, v, out=out)
    np.subtract(tail, log_w, out=tail)
    np.multiply(tail, (1.0 - alpha) / alpha, out=tail)
    return np.add(out, tail, out=out)


def _stable_bracket_table(p: float) -> np.ndarray:
    """Bounds on B(V) = log S + c log W for V in each of STABLE_BUCKETS buckets.

    Column a holds (lower, upper) for V in [V_a, V_a+1], V_a = (a / buckets) pi
    computed as the draw computes V: the formula at the two edges (with
    log W = 0), widened by the slack 1e-9 p^2.  The first and last columns
    are (-inf, inf): B has no finite value at V = 0 and grows without bound
    towards pi.
    """
    work = np.zeros((4, STABLE_BUCKETS + 1))
    np.divide(np.arange(STABLE_BUCKETS + 1), STABLE_BUCKETS, out=work[1])
    work[1] *= math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        edges = _log_stable_from_angle(1.0 / p, work)
    slack = 1e-9 * p * p
    table = np.stack((edges[:-1] - slack, edges[1:] + slack))
    table[:, [0, -1]] = [[-np.inf], [np.inf]]
    return table


class _BracketedStableSelector:
    """Gumbel (p > 1) order statistics that run Kanter's formula only on
    the rows that can reach the selected ranks.

    It draws V, W and the n x d exponentials E exactly as the latent draw
    does, and selects the same values.  The latent value of row i in
    column j is log S_i - log E_ij, with log S = B(V) - c log W,
    c = (1 - alpha) / alpha and B = (1 / alpha) log K, where
    K(v) = sin(alpha v)^alpha sin((1 - alpha) v)^(1 - alpha) / sin v is
    Zolotarev's function, which increases on (0, pi) (Kanter 1975;
    Devroye 2009).  Why the selected values are exact:

    * Monotone B.  V / pi falls in one of STABLE_BUCKETS equal buckets;
      the bucket index is exact (a power-of-two scaling of the uniform)
      and rounding V = u pi is monotone, so V lies between the computed
      edges of its bucket and B(V) between B at those edges.
    * Slack larger than the rounding error.  Inside the interior buckets
      every log sine is below 8 + log p in magnitude and moves by at most
      4096 ulps when its argument alpha V or (1 - alpha) V is rounded, and
      |log W| <= 745, so the computed formula and the computed table
      entries each differ from the exact B - c log W and B(edge) by less
      than about 4e-12 p (2.7e-13 p is the largest seen against extended
      precision).  The table is widened by 1e-9 p^2, and the bounds of
      log S are its entries minus c log W, which rounds by less than
      1e-13 p more.  The latent bounds subtract the same log E_ij that the
      latent value does, and rounding a difference is monotone.
    * Dropped rows lie strictly below the target.  In column j the r_j-th
      smallest lower bound t_j is at most the r_j-th smallest latent
      value.  A row is dropped only when its upper bound is below t_j in
      every column, so each of its values lies strictly below that
      column's target; selecting at rank r_j - (rows dropped) among the
      rest gives the same value.  The first and last buckets, W = 0 and
      E = 0 give bounds of +-inf or NaN.  An upper bound of inf is never
      below t_j and a NaN comparison is false, so such rows stay
      candidates.  A lower bound of inf or NaN comes only with a latent
      value of inf or NaN; taking those as one class above every number
      (``np.partition`` orders them last), t_j stays at most the target.
    * Shared ufuncs give equal bits.  The rows that remain run
      ``_log_stable_from_angle``, the helper ``log_positive_stable``
      uses, on their own V and log W, and log E is the full draw's, so
      every candidate's latent value is the full draw's value bit for bit.

    All n-sized buffers are allocated once per selector; ``keep`` and
    ``candidates`` describe the last replication.
    """

    def __init__(self, model: "GumbelLogistic", n: int, ranks: np.ndarray):
        d = model.d
        self.alpha = 1.0 / model.p
        self.coef = (1.0 - self.alpha) / self.alpha
        self.table = _stable_bracket_table(model.p)
        self.ranks = np.broadcast_to(np.asarray(ranks, dtype=int), (d,))
        self.n = n
        self.kth = np.unique(self.ranks - 1)
        self.target_index = np.arange(d) * n + self.ranks - 1
        # rows 1 and 3 hold V and log W, as in log_positive_stable
        self.draw = np.empty((4, n))
        self.log_e = np.empty((n, d))
        self.bucket = np.empty(n, dtype=np.intp)
        self.scaled = np.empty(n)
        self.bounds = np.empty((2, n))
        self.plane = np.empty((d, n))
        self.below = np.empty((d, n), dtype=bool)
        self.keep = np.empty(n, dtype=bool)
        self.candidates = n

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        # V, W and E in the order the latent draw takes them
        v, log_w = self.draw[1], self.draw[3]
        rng.random(out=v)
        np.multiply(v, STABLE_BUCKETS, out=self.bucket, casting="unsafe")
        v *= math.pi
        rng.standard_exponential(out=log_w)
        np.log(log_w, out=log_w)
        rng.standard_exponential(out=self.log_e)
        with np.errstate(divide="ignore"):
            np.log(self.log_e, out=self.log_e)
        # (lower, upper) bounds of log S, then of each latent value
        lower, upper = self.bounds
        np.take(self.table, self.bucket, axis=1, out=self.bounds)
        np.multiply(log_w, self.coef, out=self.scaled)
        np.subtract(self.bounds, self.scaled, out=self.bounds)
        plane = self.plane
        np.subtract(lower, self.log_e.T, out=plane)
        plane.partition(self.kth, axis=1)
        target = np.take(plane, self.target_index)  # t_j
        # a row is dropped when its upper bound is below t_j in every column
        np.subtract(upper, self.log_e.T, out=plane)
        np.less(plane, target[:, None], out=self.below)
        np.logical_and.reduce(self.below, axis=0, out=self.keep)
        np.logical_not(self.keep, out=self.keep)
        work = np.compress(self.keep, self.draw, axis=1)
        log_s = _log_stable_from_angle(self.alpha, work)
        latent = np.compress(self.keep, self.log_e, axis=0)
        np.subtract(log_s[:, None], latent, out=latent)
        self.candidates = latent.shape[0]
        return componentwise_os(latent, self.ranks - (self.n - self.candidates))


def os_selector(model: CopulaModel, n: int, ranks: np.ndarray) -> OSSelector:
    """Per-replication selector of the model's latent order statistics.

    Gumbel with p > 1 at n >= BRACKET_MIN_N takes the bracketed selector;
    every other model and size selects on the full latent draw.
    """
    if isinstance(model, GumbelLogistic) and model.p > 1.0 and n >= BRACKET_MIN_N:
        return _BracketedStableSelector(model, n, ranks)
    draw = model.latent_sampler(n)
    return lambda rng: componentwise_os(draw(rng), ranks)


def sample_rows(model: CopulaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid rows from the model using the supplied generator: the
    model's monotone map applied to its latent draw."""
    return model.to_uniform(model.latent_sampler(n)(rng))


def copula_sample(model: CopulaModel, n: int, seed: int) -> np.ndarray:
    """Draw a reproducible n x d matrix of copula observations.

    Rows are produced in fixed chunks, each from the stream keyed by
    (seed, chunk index), so any worker partition of the chunks reassembles
    to the identical batch.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = []
    for c in range(0, n, SAMPLE_CHUNK):
        take = min(SAMPLE_CHUNK, n - c)
        parts.append(sample_rows(model, take, stream_rng(seed, c // SAMPLE_CHUNK)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# tail expansion

def tail_expansion_check(model: CopulaModel, x, t_grid) -> np.ndarray:
    """Finite-t quotients (1 - C(1 - t x)) / t along a decreasing t grid.

    As t drops to 0 the quotients approach the model's tail norm at x;
    returns an array with columns (t, quotient).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != model.d:
        raise ValueError("x must be a vector of the model dimension")
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    if x.max() > 0 and np.any(t_grid * x.max() > 1):
        raise ValueError("t * max(x) must stay inside the unit cube")
    rows = np.empty((t_grid.size, 2))
    for idx, t in enumerate(t_grid):
        rows[idx, 0] = t
        rows[idx, 1] = (1.0 - copula_cdf(model, 1.0 - t * x)) / t
    return rows

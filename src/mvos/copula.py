"""Copula models attracted to an extreme-value limit, with exact samplers.

Each model carries the norm governing its upper-tail expansion
``C(u) = 1 - ||1 - u||_D + o(||1 - u||)``: the 1-norm for independence,
the sup-norm for comonotonicity, and the logistic p-norm for the
Gumbel-Hougaard family.

Every model samples in two steps: ``latent_rows`` draws an n x d latent
matrix and ``to_uniform`` maps it elementwise to the copula scale through
one nondecreasing map.  Such maps commute with order statistics, so a
caller that keeps only a few order statistics per column can select them
on the latent draw, at the same ranks, and map just those.

A caller that draws many latent matrices of one size takes
``latent_sampler(n)``: it allocates the draw's buffers once and
overwrites them on every call, consuming the generator exactly as
``latent_rows`` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .dnorm import DNormSpec, LogisticP, SupNorm, dnorm_eval
from .streams import stream_rng

__all__ = [
    "Independence",
    "Comonotone",
    "GumbelLogistic",
    "CopulaModel",
    "UniformSampleBatch",
    "copula_cdf",
    "copula_sample",
    "sample_rows",
    "positive_stable",
    "log_positive_stable",
    "tail_expansion_check",
]

# draws one latent n x d matrix from the generator into the sampler's buffers
LatentSampler = Callable[[np.random.Generator], np.ndarray]

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

    def latent_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.latent_sampler(n)(rng)

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

    def latent_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.latent_sampler(n)(rng)

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

    def latent_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.latent_sampler(n)(rng)

    def to_uniform(self, latent: np.ndarray) -> np.ndarray:
        if self.p == 1.0:
            return np.exp(latent)
        return np.exp(-np.exp(-latent / self.p))

    def label(self) -> str:
        return f"gumbel(d={self.d}, p={self.p})"


CopulaModel = Union[Independence, Comonotone, GumbelLogistic]


@dataclass(frozen=True)
class UniformSampleBatch:
    """An n x d block of copula observations plus its seed provenance."""

    rows: np.ndarray
    seed: int
    model: str
    chunk_size: int

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


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
    out, v, w, t = work
    rng.random(out=v)
    v *= math.pi  # rng.uniform(0, pi) computes this product too
    rng.standard_exponential(out=w)
    # the formula's operations in its order; products and sums of two
    # terms are exact under swapping the operands
    np.multiply(v, alpha, out=out)
    np.sin(out, out=out)
    np.log(out, out=out)
    np.sin(v, out=t)
    np.log(t, out=t)
    np.divide(t, alpha, out=t)
    np.subtract(out, t, out=out)
    np.multiply(v, 1.0 - alpha, out=v)
    np.sin(v, out=v)
    np.log(v, out=v)
    np.log(w, out=w)
    np.subtract(v, w, out=v)
    np.multiply(v, (1.0 - alpha) / alpha, out=v)
    np.add(out, v, out=out)
    return out


def positive_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """One-sided stable variates; alpha = 1 is the point mass at 1."""
    if alpha == 1.0:
        return np.ones(size)
    return np.exp(log_positive_stable(alpha, size, rng))


def sample_rows(model: CopulaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid rows from the model using the supplied generator: the
    model's monotone map applied to its latent draw."""
    return model.to_uniform(model.latent_rows(n, rng))


def copula_sample(model: CopulaModel, n: int, seed: int) -> UniformSampleBatch:
    """Draw a reproducible batch of n rows.

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
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    return UniformSampleBatch(rows=rows, seed=seed, model=model.label(), chunk_size=SAMPLE_CHUNK)


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


def tail_norm_value(model: CopulaModel, x) -> float:
    """Limit of the tail-expansion quotients at x."""
    return dnorm_eval(model.tail_dnorm, x)

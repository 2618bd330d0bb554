"""Componentwise order statistics, their standardizations, and the
closed-form covariance of the joint normal limit.

For per-component ranks n - k_i with k_i growing but k_i / n vanishing,
the standardized vector converges to a centered normal whose covariance
has unit diagonal and off-diagonal entries

    sigma_ij = k_ij + k_ji - || k_ij e_i + k_ji e_j ||_D,

where k_ij is the limit of sqrt(k_i / k_j) and the norm is the tail norm
of the underlying copula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .dnorm import DNormSpec, dnorm_eval, spec_dimension

if TYPE_CHECKING:  # margins imports this module for PowerKRule
    from .margins import NormingConstants

__all__ = [
    "KRatioMatrix",
    "PowerKRule",
    "IntermediateSpec",
    "OSBatch",
    "componentwise_os",
    "standardize_copula_case",
    "standardize_general_case",
    "theoretical_sigma",
    "theoretical_sigma_equal_k",
    "CONVENTIONS",
]

CONVENTIONS = ("n-k", "n-k+1")


@dataclass(frozen=True)
class KRatioMatrix:
    """Limits k_ij of sqrt(k_i / k_j): k_ij = sqrt(w_i / w_j) for one
    positive weight vector w, which makes the diagonal 1, k_ij k_ji = 1 and
    k_ij k_jm = k_im."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("ratio matrix must be square and non-empty")
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise ValueError("ratios must be positive and finite")
        # entry (i, j) of the right side is k_0j / k_0i, which is k_ij for
        # every (i, j) exactly when k_ij = sqrt(w_i / w_j) for one w
        if not np.allclose(m, m[0] / m[0][:, None], rtol=1e-9, atol=0.0):
            raise ValueError("ratios must be sqrt(w_i / w_j) for one positive weight vector w")

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def ones(cls, d: int) -> "KRatioMatrix":
        return cls(np.ones((d, d)))

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "KRatioMatrix":
        """k_ij = sqrt(w_i / w_j) for positive per-component weights."""
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        r = np.sqrt(w[:, None] / w[None, :])
        return cls(r)


@dataclass(frozen=True)
class PowerKRule:
    """k(n) = floor(c * n^gamma) with gamma in (0, 1) and c > 0."""

    c: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    def __call__(self, n: int) -> int:
        return int(math.floor(self.c * n ** self.gamma))


@dataclass(frozen=True)
class IntermediateSpec:
    """Per-component rank rules plus the index convention.

    ``convention`` selects between ranks n - k (copula-case displays) and
    n - k + 1 (general-case displays); the two differ by one order
    statistic, an asymptotically negligible shift.
    """

    rules: tuple[PowerKRule, ...]
    convention: str = "n-k"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if not self.rules:
            raise ValueError("at least one rule is required")
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def d(self) -> int:
        return len(self.rules)

    def k_vector(self, n: int) -> np.ndarray:
        ks = np.array([rule(n) for rule in self.rules], dtype=int)
        if np.any(ks < 1) or np.any(ks > n - 1):
            raise ValueError(f"k(n) = {ks.tolist()} leaves the band [1, n-1] at n = {n}")
        return ks

    def ranks(self, n: int) -> np.ndarray:
        """1-based target ranks per component under the convention."""
        ks = self.k_vector(n)
        return n - ks if self.convention == "n-k" else n - ks + 1

    def ratio_matrix(self) -> KRatioMatrix:
        """Limit ratios; requires one common growth exponent.

        Mixed exponents would drive k_i / k_j to 0 or infinity, leaving the
        asymptotic regime, so they are rejected.
        """
        gammas = {rule.gamma for rule in self.rules}
        if len(gammas) > 1:
            raise ValueError("mixed growth exponents have no finite positive ratio limit")
        return KRatioMatrix.from_weights([rule.c for rule in self.rules])

    @classmethod
    def equal(cls, d: int, c: float = 1.0, gamma: float = 0.5, convention: str = "n-k") -> "IntermediateSpec":
        return cls(tuple(PowerKRule(c, gamma) for _ in range(d)), convention)


@dataclass(frozen=True)
class OSBatch:
    """R x d componentwise order-statistic values plus extraction metadata.

    ``values`` may hold raw copula-scale observations or standardized ones;
    ``scale`` records which.
    """

    values: np.ndarray
    n: int
    k: tuple[int, ...]
    convention: str
    seed: int
    scale: str = "raw"


# ---------------------------------------------------------------------------
# extraction and standardization

def componentwise_os(sample, j) -> np.ndarray:
    """The j_i-th smallest value of column i, via linear-time selection.

    ``j`` is 1-based and may be a scalar (broadcast to all columns) or a
    per-column vector.  Ties are kept as stored.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2:
        raise ValueError("sample must be an n x d matrix")
    n, d = sample.shape
    j = np.broadcast_to(np.asarray(j, dtype=int), (d,))
    if np.any(j < 1) or np.any(j > n):
        raise ValueError(f"ranks {j.tolist()} out of range for n = {n}")
    out = np.empty(d)
    for i in range(d):
        idx = j[i] - 1
        out[i] = np.partition(sample[:, i], idx)[idx]
    return out


def standardize_copula_case(values, n: int, k) -> np.ndarray:
    """(n / sqrt(k_i)) * (x_i - (n - k_i) / n) on copula-scale inputs."""
    values = np.asarray(values, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(k >= n) or np.any(k < 1):
        raise ValueError("need 1 <= k_i < n")
    center = (n - k) / n
    return (n / np.sqrt(k)) * (values - center)


def standardize_general_case(values, constants: Sequence[NormingConstants]) -> np.ndarray:
    """(x_i - b_i) / a_i with per-component norming constants."""
    values = np.asarray(values, dtype=float)
    a = np.array([c.a for c in constants], dtype=float)
    b = np.array([c.b for c in constants], dtype=float)
    if np.any(a <= 0):
        raise ValueError("scales must be positive")
    return (values - b) / a


# ---------------------------------------------------------------------------
# the limit covariance

def theoretical_sigma(dnorm: DNormSpec, ratios: KRatioMatrix, seed: Optional[int] = None) -> np.ndarray:
    """Closed-form limit covariance for the given tail norm and rank ratios.

    The norm is evaluated once, at the stack of the d(d - 1)/2 pair points
    k_ij e_i + k_ji e_j (i < j), so a generator-based norm draws its
    sample once for all pairs."""
    d = ratios.d
    dim = spec_dimension(dnorm)
    if dim is not None and dim != d:
        raise ValueError(f"norm dimension {dim} does not match ratio dimension {d}")
    i, j = np.triu_indices(d, 1)
    kij, kji = ratios.entries[i, j], ratios.entries[j, i]
    points = np.zeros((len(i), d))
    points[np.arange(len(i)), i] = kij
    points[np.arange(len(i)), j] = kji
    sigma = np.eye(d)
    sigma[i, j] = sigma[j, i] = kij + kji - dnorm_eval(dnorm, points, seed)
    return sigma


def theoretical_sigma_equal_k(dnorm: DNormSpec, d: int) -> np.ndarray:
    """Equal-rank special case, Sigma at unit ratios: sigma_ij = 2 - ||e_i + e_j||_D off diagonal."""
    return theoretical_sigma(dnorm, KRatioMatrix.ones(d))

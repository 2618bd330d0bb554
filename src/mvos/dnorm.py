"""Tail-dependence norms (D-norms): analytic families, generator-based
Monte Carlo evaluation, axiom validation, and derived matrices.

A D-norm is ``x -> E(max_i |x_i| Z_i)`` for a nonnegative random vector Z
with unit componentwise means.  The analytic families here are the sup-norm
(complete dependence) and the logistic family ``(sum |x_i|^p)^(1/p)``,
``p >= 1``, whose ``p = 1`` end is the independence case.  A
generator-based norm is a Monte Carlo average over the generator's draws
from one stream of ``streams.stream_rng``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .streams import stream_rng

__all__ = [
    "SupNorm",
    "LogisticP",
    "GeneratorBased",
    "DNormSpec",
    "Generator",
    "ConstantOne",
    "RandomIndex",
    "FrechetLogistic",
    "dnorm_eval",
    "mc_eval",
    "evd_eval",
    "dnorm_validate",
    "lambda_matrix",
    "is_positive_semidefinite",
    "PSDResult",
    "PropertyCheck",
    "ValidationReport",
]


# ---------------------------------------------------------------------------
# generators

@dataclass(frozen=True)
class _Dimensioned:
    """A model of dimension d >= 1: the generators here and the copula
    models.  A subclass with more to check calls this check first."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


class Generator:
    """Base class for D-norm generators: Z >= 0 componentwise, E(Z_i) = 1.

    Subclasses set ``d`` and implement ``sample``; anything satisfying the
    two moment constraints defines a valid norm.
    """

    d: int

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw (size, d) generator realizations."""
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConstantOne(Generator, _Dimensioned):
    """Degenerate generator Z = (1, ..., 1); its norm is the sup-norm."""

    def sample(self, size, rng):
        return np.ones((size, self.d))

    def label(self):
        return f"constant_one(d={self.d})"


@dataclass(frozen=True)
class RandomIndex(Generator, _Dimensioned):
    """Z = d * e_J with J uniform on the coordinates; its norm is the 1-norm."""

    def sample(self, size, rng):
        out = np.zeros((size, self.d))
        j = rng.integers(0, self.d, size=size)
        out[np.arange(size), j] = float(self.d)
        return out

    def label(self):
        return f"random_index(d={self.d})"


@dataclass(frozen=True)
class FrechetLogistic(Generator, _Dimensioned):
    """Iid Frechet(shape p) components rescaled by Gamma(1 - 1/p) to unit mean.

    Generates the logistic norm (sum |x_i|^p)^(1/p).  Requires p > 1: the
    shape-1 Frechet distribution has no finite mean, and the 1-norm is
    already served by :class:`RandomIndex`.
    """

    p: float

    def __post_init__(self):
        super().__post_init__()
        if not self.p > 1:
            raise ValueError("FrechetLogistic requires p > 1")

    def sample(self, size, rng):
        e = rng.exponential(size=(size, self.d))
        return e ** (-1.0 / self.p) / math.gamma(1.0 - 1.0 / self.p)

    def label(self):
        return f"frechet_logistic(d={self.d}, p={self.p})"


# ---------------------------------------------------------------------------
# norm specifications

@dataclass(frozen=True)
class SupNorm:
    """max_i |x_i|; the complete-dependence end of the family."""

    def label(self) -> str:
        return "sup"


@dataclass(frozen=True)
class LogisticP:
    """(sum |x_i|^p)^(1/p), p >= 1; p = 1 is the 1-norm (independence)."""

    p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("logistic family requires p >= 1")

    def label(self) -> str:
        return f"logistic(p={self.p})"


@dataclass(frozen=True)
class GeneratorBased:
    """Monte Carlo norm E(max_i |x_i| Z_i) averaged over mc_samples draws.

    Evaluation is deterministic given an evaluation seed; common random
    numbers across calls with the same seed make homogeneity, monotonicity
    and the triangle inequality hold per sample.
    """

    gen: Generator
    mc_samples: int = 100_000

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    def label(self) -> str:
        return f"generator[{self.gen.label()}, m={self.mc_samples}]"


DNormSpec = Union[SupNorm, LogisticP, GeneratorBased]


def spec_dimension(spec: DNormSpec) -> Optional[int]:
    """Dimension pinned by a generator-based norm, or None for dimension-free families."""
    if isinstance(spec, GeneratorBased):
        return spec.gen.d
    return None


# ---------------------------------------------------------------------------
# evaluation

def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a nonempty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def logistic_norm(x: np.ndarray, p: float) -> float:
    """(sum |x_i|^p)^(1/p), computed in scaled form to survive large p."""
    ax = np.abs(np.asarray(x, dtype=float))
    m = ax.max()
    if m == 0.0:
        return 0.0
    return float(m * np.sum((ax / m) ** p) ** (1.0 / p))


def mc_eval(spec: GeneratorBased, x, seed: Optional[int] = None) -> tuple[float, float]:
    """Monte Carlo estimate of the norm with its sample standard error,
    from ``mc_samples`` generator draws on the stream ``stream_rng(seed)``
    (seed 0 by default).  The standard error has no normal level where
    max_i |x_i| Z_i has infinite variance, as for ``FrechetLogistic`` at
    p <= 2."""
    x = _as_vector(x)
    if x.size != spec.gen.d:
        raise ValueError(f"x has length {x.size}, generator dimension is {spec.gen.d}")
    rng = stream_rng(seed if seed is not None else 0)
    m = spec.mc_samples
    # chunked so mc_samples ~ 1e6 stays inside a modest memory budget
    chunk = max(1, min(m, 2 ** 23 // max(1, spec.gen.d)))
    total = 0.0
    total_sq = 0.0
    done = 0
    ax = np.abs(x)
    while done < m:
        take = min(chunk, m - done)
        z = spec.gen.sample(take, rng)
        vals = np.max(ax * z, axis=1)
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
        done += take
    mean = total / m
    var = max(total_sq / m - mean * mean, 0.0)
    stderr = math.sqrt(var / m)
    return mean, stderr


def dnorm_eval(spec: DNormSpec, x, seed: Optional[int] = None) -> float:
    """Evaluate the norm at x.

    Analytic families ignore the seed; generator-based specs average
    max_i |x_i| Z_i over ``mc_samples`` draws from the stream keyed by
    ``seed`` (default 0).
    """
    x = _as_vector(x)
    if isinstance(spec, SupNorm):
        return float(np.abs(x).max())
    if isinstance(spec, LogisticP):
        return logistic_norm(x, spec.p)
    if isinstance(spec, GeneratorBased):
        return mc_eval(spec, x, seed)[0]
    raise TypeError(f"not a D-norm spec: {spec!r}")


def evd_eval(spec: DNormSpec, x, seed: Optional[int] = None) -> float:
    """Extreme-value distribution value exp(-||x||_D) for x <= 0."""
    x = _as_vector(x)
    if np.any(x > 0):
        raise ValueError("EVD evaluation requires x <= 0 componentwise")
    return float(np.exp(-dnorm_eval(spec, x, seed)))


# ---------------------------------------------------------------------------
# axiom validation

class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    worst_violation: float
    tolerance: float


@dataclass
class ValidationReport:
    spec_label: str
    trials: int
    seed: int
    checks: list[PropertyCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"validation of {self.spec_label} ({self.trials} trials, seed {self.seed})"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<16} {status}  worst={c.worst_violation:.3e}  tol={c.tolerance:.3e}")
        return "\n".join(lines)


_FP_TOL = 1e-9


def dnorm_validate(spec: DNormSpec, trials: int, seed: int = 0) -> ValidationReport:
    """Check the norm axioms on random vectors, in the generator's
    dimension or, for the dimension-free families, in d = 3.

    Verifies standardization (unit coordinates map to 1), absolute
    homogeneity, the triangle inequality, monotonicity in |x|, and the
    sup-norm / 1-norm envelope.  Generator-based specs are evaluated with
    common random numbers inside each trial, so homogeneity, monotonicity
    and the triangle inequality are exact per sample; standardization and
    the envelope get a 4 standard error allowance.  The random vectors come
    from the stream ``stream_rng(seed, 0xD)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = spec_dimension(spec) or 3

    rng = stream_rng(seed, 0xD)
    is_mc = isinstance(spec, GeneratorBased)

    def ev_se(x, t):
        # one evaluation seed per trial: common random numbers within a trial
        if is_mc:
            return mc_eval(spec, x, seed=t + seed * 7919)
        return dnorm_eval(spec, x), 0.0

    worst = {k: 0.0 for k in ("standardization", "homogeneity", "triangle", "monotonicity", "bounds")}
    tol = {k: _FP_TOL for k in worst}

    # standardization on every coordinate
    se_std = 0.0
    for j in range(dim):
        val, se = ev_se(np.eye(dim)[j], j)
        worst["standardization"] = max(worst["standardization"], abs(val - 1.0))
        se_std = max(se_std, se)
    if is_mc:
        tol["standardization"] = max(_FP_TOL, 4.0 * se_std)

    se_bounds = 0.0
    for t in range(trials):
        x = rng.uniform(-2.0, 2.0, size=dim)
        y = rng.uniform(-2.0, 2.0, size=dim)
        c = rng.uniform(-3.0, 3.0)
        nx, se_x = ev_se(x, t)
        ny, _ = ev_se(y, t)
        nxy, _ = ev_se(x + y, t)
        ncx, _ = ev_se(c * x, t)
        scale = max(1.0, nx, ny)
        worst["homogeneity"] = max(worst["homogeneity"], abs(ncx - abs(c) * nx) / scale)
        worst["triangle"] = max(worst["triangle"], (nxy - nx - ny) / scale)
        shrink, _ = ev_se(x * rng.uniform(0.0, 1.0, size=dim), t)
        worst["monotonicity"] = max(worst["monotonicity"], (shrink - nx) / scale)
        lo = float(np.abs(x).max())
        hi = float(np.abs(x).sum())
        worst["bounds"] = max(worst["bounds"], lo - nx, nx - hi)
        se_bounds = max(se_bounds, se_x)
    if is_mc:
        tol["bounds"] = max(_FP_TOL, 4.0 * se_bounds)

    checks = [PropertyCheck(k, worst[k] <= tol[k], worst[k], tol[k]) for k in worst]
    return ValidationReport(spec.label(), trials, seed, checks)


# ---------------------------------------------------------------------------
# derived matrices

class PSDResult(NamedTuple):
    ok: bool
    min_eigenvalue: float


def _check_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{what} must be symmetric")
    return m


def is_positive_semidefinite(m, tol: Optional[float] = None) -> PSDResult:
    """Semidefiniteness via the smallest eigenvalue.

    With ``tol=None`` the threshold is 1e-10 relative to the largest
    absolute eigenvalue, which absorbs eigensolver noise.
    """
    m = _check_symmetric(m, "matrix")
    eigs = np.linalg.eigvalsh(m)
    smallest = float(eigs[0])
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.abs(eigs).max()))
    return PSDResult(smallest >= -tol, smallest)


def lambda_matrix(sigma) -> np.ndarray:
    """Entrywise square root of a unit-diagonal covariance matrix."""
    sigma = _check_symmetric(sigma, "sigma")
    if np.any(sigma < 0):
        raise ValueError("sigma has a negative entry; not a valid covariance of this family")
    if not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
        raise ValueError("sigma must have unit diagonal")
    off = sigma[~np.eye(sigma.shape[0], dtype=bool)]
    if off.size and off.max() > 1.0 + 1e-12:
        raise ValueError("off-diagonal entries must lie in [0, 1]")
    return np.sqrt(sigma)

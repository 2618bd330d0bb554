"""Tail-dependence norms (D-norms): analytic families, generator-based
Monte Carlo evaluation, axiom validation, and derived matrices.

A D-norm is ``x -> E(max_i |x_i| Z_i)`` for a nonnegative random vector Z
with unit componentwise means.  The analytic families here are the sup-norm
(complete dependence) and the logistic family ``(sum |x_i|^p)^(1/p)``,
``p >= 1``, whose ``p = 1`` end is the independence case.  A
generator-based norm is a Monte Carlo average over the generator's draws
from one stream of ``streams.stream_rng``; the evaluators take one point
or a (k, d) stack of points, and a stack's points share those draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .streams import derive_seed, stream_rng

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

    Evaluation is deterministic given an evaluation seed.  The points of
    one evaluation share their draws (as do calls with the same seed), so
    homogeneity, monotonicity, the triangle inequality and the envelope
    between the coordinates' values hold per sample.
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

def _as_points(x) -> np.ndarray:
    """x as a finite float array: one nonempty vector, or a (k, d) stack of
    them, one a row."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("x must be a nonempty 1-d vector or a 2-d stack of them")
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


# array elements of one chunk of generator draws: a chunk is
# MC_CHUNK_ELEMENTS // d draws, so mc_samples ~ 1e6 stays inside a modest
# memory budget
MC_CHUNK_ELEMENTS = 2**23


def mc_eval(spec: GeneratorBased, x, seed: Optional[int] = None):
    """Monte Carlo estimate of the norm with its sample standard error,
    from ``mc_samples`` generator draws on the stream ``stream_rng(seed)``
    (seed 0 by default): two floats for a point x, or two length-k arrays
    for a (k, d) stack x, every point on the same draws.  Each point's
    values are those of an evaluation of that point alone: the draws come
    in chunks of ``MC_CHUNK_ELEMENTS // d``, and each chunk's maximum,
    sum and square-sum are formed point by point.  The standard error has
    no normal level where max_i |x_i| Z_i has infinite variance, as for
    ``FrechetLogistic`` at p <= 2."""
    points = _as_points(x)
    if points.shape[-1] != spec.gen.d:
        raise ValueError(f"x has length {points.shape[-1]}, generator dimension is {spec.gen.d}")
    rng = stream_rng(seed if seed is not None else 0)
    m = spec.mc_samples
    chunk = max(1, min(m, MC_CHUNK_ELEMENTS // spec.gen.d))
    stack = np.abs(np.atleast_2d(points))
    total = [0.0] * len(stack)
    total_sq = [0.0] * len(stack)
    done = 0
    while done < m:
        take = min(chunk, m - done)
        z = spec.gen.sample(take, rng)
        for i, ax in enumerate(stack):
            vals = np.max(ax * z, axis=1)
            total[i] += float(vals.sum())
            total_sq[i] += float(np.square(vals).sum())
        done += take
    mean = np.array(total) / m
    stderr = np.sqrt(np.maximum(np.array(total_sq) / m - mean * mean, 0.0) / m)
    return (mean, stderr) if points.ndim == 2 else (float(mean[0]), float(stderr[0]))


def dnorm_eval(spec: DNormSpec, x, seed: Optional[int] = None):
    """The norm at a point x, a float, or at each point of a (k, d) stack
    x, a length-k array.

    Analytic families ignore the seed and evaluate a stack point by point;
    generator-based specs average max_i |x_i| Z_i over ``mc_samples``
    draws from the stream keyed by ``seed`` (default 0), one set of draws
    for the whole stack (``mc_eval``).
    """
    points = _as_points(x)
    stack = np.atleast_2d(points)
    if isinstance(spec, SupNorm):
        values = np.abs(stack).max(axis=1)
    elif isinstance(spec, LogisticP):
        values = np.array([logistic_norm(row, spec.p) for row in stack])
    elif isinstance(spec, GeneratorBased):
        values = mc_eval(spec, stack, seed)[0]
    else:
        raise TypeError(f"not a D-norm spec: {spec!r}")
    return values if points.ndim == 2 else float(values[0])


def evd_eval(spec: DNormSpec, x, seed: Optional[int] = None) -> float:
    """Extreme-value distribution value exp(-||x||_D) for x <= 0."""
    x = _as_points(x)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d vector")
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
    envelope max_i |x_i| N(e_i) <= N(x) <= sum_i |x_i| N(e_i).  Each
    trial evaluates x, y, x + y, cx, a shrunk x and the unit vectors e_i
    in one call, so for a generator-based spec all of them share one
    draw, and homogeneity, monotonicity, the triangle inequality and the
    envelope hold exactly for any sample of a nonnegative generator: these
    four checks carry only a rounding tolerance.  Standardization is
    checked once, on a draw of its own, with an allowance of 4 times the
    largest standard error; where max_i |x_i| Z_i has infinite variance
    (``FrechetLogistic`` at p <= 2) that allowance has no normal level.
    The random vectors come from the stream ``stream_rng(seed, 0xD)``;
    trial t evaluates on the stream of ``derive_seed(seed, 0xE, t)`` and
    standardization on that of ``derive_seed(seed, 0xE)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = spec_dimension(spec) or 3
    rng = stream_rng(seed, 0xD)
    eye = np.eye(dim)
    tol = dict.fromkeys(("standardization", "homogeneity", "triangle", "monotonicity", "bounds"), _FP_TOL)
    if isinstance(spec, GeneratorBased):
        unit, unit_se = mc_eval(spec, eye, derive_seed(seed, 0xE))
        tol["standardization"] = max(_FP_TOL, 4.0 * float(unit_se.max()))
    else:
        unit = dnorm_eval(spec, eye)
    worst = dict.fromkeys(tol, 0.0)
    worst["standardization"] = float(np.abs(unit - 1.0).max())

    for t in range(trials):
        x = rng.uniform(-2.0, 2.0, size=dim)
        y = rng.uniform(-2.0, 2.0, size=dim)
        c = rng.uniform(-3.0, 3.0)
        shrunk = x * rng.uniform(0.0, 1.0, size=dim)
        values = dnorm_eval(spec, np.vstack([x, y, x + y, c * x, shrunk, eye]), derive_seed(seed, 0xE, t))
        nx, ny, nxy, ncx, nshrunk = (float(v) for v in values[:5])
        scale = max(1.0, nx, ny)
        worst["homogeneity"] = max(worst["homogeneity"], abs(ncx - abs(c) * nx) / scale)
        worst["triangle"] = max(worst["triangle"], (nxy - nx - ny) / scale)
        worst["monotonicity"] = max(worst["monotonicity"], (nshrunk - nx) / scale)
        envelope = np.abs(x) * values[5:]
        worst["bounds"] = max(worst["bounds"], float(envelope.max()) - nx, nx - float(envelope.sum()))

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

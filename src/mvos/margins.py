"""Marginal distribution models with differentiable upper tails.

Four closed-form families, one per tail regime: standard normal and
standard exponential (type 1), Pareto with index alpha (type 2, infinite
endpoint), and the triangular density 1 - |x| on (-1, 1) (type 3, finite
endpoint, alpha = 2).  Each model exposes cdf, density, generalized
inverse and the upper endpoint; the type-1 families also give the
integrated tail their von Mises quotient needs.

The scaling constants are ``b = F^{-1}(1 - k/n)`` and
``a = sqrt(k) / (n f(b))``; the Smirnov quotient
``(k + n (F(a x + b) - 1)) / sqrt(k)`` must tend to x for asymptotic
normality of the (n-k)-th order statistic, and the three von Mises
quotients are the differentiable sufficient conditions by tail type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from ._special import ndtr, ndtri
from .orderstats import PowerKRule

__all__ = [
    "MarginalModel",
    "StandardNormal",
    "StandardExponential",
    "Pareto",
    "Triangular",
    "NormingConstants",
    "marginal_eval",
    "marginal_quantile",
    "norming_constants",
    "smirnov_quotient",
    "smirnov_check",
    "SmirnovRow",
    "von_mises_check",
    "VonMisesResult",
    "quantile_transform",
    "make_k_rule",
]


class MarginalModel:
    """Base class: a univariate df with density positive near its upper end.

    The tail constants below are fixed per family, so subclasses set them
    as class attributes rather than constructor parameters.
    """

    name: ClassVar[str] = "marginal"
    upper_endpoint: ClassVar[float] = math.inf
    von_mises_type: ClassVar[int] = 1
    von_mises_alpha: ClassVar[Optional[float]] = None

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - F in a cancellation-free closed form."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def tail_integral(self, x):
        """Integral of 1 - F over (x, upper endpoint); needed for type 1 only."""
        raise NotImplementedError

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class StandardNormal(MarginalModel):
    name = "normal"

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float))

    def sf(self, x):
        return ndtr(-np.asarray(x, dtype=float))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def quantile(self, u):
        return ndtri(np.asarray(u, dtype=float))

    def tail_integral(self, x):
        # E(Z - x)^+ = phi(x) - x (1 - Phi(x)); sf avoids cancellation in 1-Phi
        x = np.asarray(x, dtype=float)
        return self.pdf(x) - x * self.sf(x)


@dataclass(frozen=True)
class StandardExponential(MarginalModel):
    name = "exponential"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.expm1(-np.maximum(x, 0.0)))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, np.exp(-np.maximum(x, 0.0)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, np.exp(-np.maximum(x, 0.0)))

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float))

    def tail_integral(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.maximum(x, 0.0)) + np.where(x < 0, -x, 0.0)


@dataclass(frozen=True)
class Pareto(MarginalModel):
    """F(x) = 1 - x^(-alpha) on [1, inf)."""

    name = "pareto"
    von_mises_type = 2
    alpha: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("Pareto requires alpha > 0")

    @property
    def von_mises_alpha(self) -> float:
        return self.alpha

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1, 0.0, 1.0 - np.maximum(x, 1.0) ** (-self.alpha))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1, 1.0, np.maximum(x, 1.0) ** (-self.alpha))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1, 0.0, self.alpha * np.maximum(x, 1.0) ** (-self.alpha - 1.0))

    def quantile(self, u):
        return (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / self.alpha)

    def label(self) -> str:
        return f"pareto(alpha={self.alpha})"


@dataclass(frozen=True)
class Triangular(MarginalModel):
    """Density 1 - |x| on (-1, 1); finite endpoint, tail index 2."""

    name = "triangular"
    upper_endpoint = 1.0
    von_mises_type = 3
    von_mises_alpha = 2.0

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        return np.where(x < 0, 0.5 * (1.0 + x) ** 2, 1.0 - 0.5 * (1.0 - x) ** 2)

    def sf(self, x):
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        return np.where(x < 0, 1.0 - 0.5 * (1.0 + x) ** 2, 0.5 * (1.0 - x) ** 2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1, 1.0 - np.abs(x), 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.5, np.sqrt(2.0 * u) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u)))


# ---------------------------------------------------------------------------
# pointwise operations

def marginal_eval(model: MarginalModel, x):
    """Return (F(x), f(x)); density queries above the upper endpoint are errors."""
    x = np.asarray(x, dtype=float)
    if np.any(x > model.upper_endpoint):
        raise ValueError(f"x exceeds the upper endpoint {model.upper_endpoint}")
    F = model.cdf(x)
    f = model.pdf(x)
    if x.ndim == 0:
        return float(F), float(f)
    return F, f


def marginal_quantile(model: MarginalModel, u):
    """Generalized inverse F^{-1}(u) = inf{t : F(t) >= u} for u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0) or np.any(u >= 1):
        raise ValueError("u must lie strictly inside (0, 1)")
    q = model.quantile(u)
    return float(q) if u.ndim == 0 else q


class NormingConstants(NamedTuple):
    a: float
    b: float
    n: int
    k: int


def norming_constants(model: MarginalModel, n: int, k: int) -> NormingConstants:
    """Centering b = F^{-1}(1 - k/n) and scale a = sqrt(k) / (n f(b))."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    with np.errstate(over="ignore"):  # an infinite b is refused just below
        b = float(model.quantile(1.0 - k / n))
    fb = float(model.pdf(b))
    if not math.isfinite(fb) or fb <= 0.0:
        raise ValueError(f"{model.label()} has no norming constants at n = {n}, k = {k}: "
                         f"density vanishes at the centering point b={b}")
    a = math.sqrt(k) / (n * fb)
    return NormingConstants(a=a, b=b, n=int(n), k=int(k))


# ---------------------------------------------------------------------------
# Smirnov condition

class SmirnovRow(NamedTuple):
    n: int
    k: int
    x: float
    quotient: float
    clipped: bool


def smirnov_quotient(
    model: MarginalModel,
    x: float,
    n: int,
    k: int,
    scale: Optional[float] = None,
    center: Optional[float] = None,
) -> tuple[float, bool]:
    """(k + n (F(scale * x + center) - 1)) / sqrt(k), defaulting to the
    canonical constants.  Arguments past the upper endpoint are clipped
    (F = 1) and flagged rather than raised."""
    if scale is None or center is None:
        cons = norming_constants(model, n, k)
        scale = cons.a if scale is None else scale
        center = cons.b if center is None else center
    if scale <= 0:
        raise ValueError("scale must be positive")
    arg = scale * x + center
    clipped = bool(arg > model.upper_endpoint)
    # n (F(arg) - 1) = -n sf(arg); the survival form avoids cancellation
    sf = 0.0 if clipped else float(model.sf(arg))
    return (k - n * sf) / math.sqrt(k), clipped


def make_k_rule(rule) -> Callable[[int], int]:
    """Parse a k-rule: a callable passes through, 'sqrt' is floor(n^0.5) and
    a number gamma is floor(n^gamma), both as :class:`PowerKRule`."""
    if callable(rule):
        return rule
    return PowerKRule(1.0, 0.5 if rule == "sqrt" else float(rule))


def smirnov_check(model: MarginalModel, x_grid, n_grid, k_rule="sqrt") -> list[SmirnovRow]:
    """Quotient table over (n, x); the limit in n is x at every grid point."""
    k_of = make_k_rule(k_rule)
    rows = []
    for n in n_grid:
        n = int(n)
        k = min(k_of(n), n - 1)
        for x in x_grid:
            q, clipped = smirnov_quotient(model, float(x), n, k)
            rows.append(SmirnovRow(n=n, k=k, x=float(x), quotient=q, clipped=clipped))
    return rows


# ---------------------------------------------------------------------------
# von Mises conditions

class VonMisesResult(NamedTuple):
    rows: list[tuple[float, float]]
    limit: float
    condition: int


def von_mises_check(model: MarginalModel, x_grid) -> VonMisesResult:
    """Evaluate the tail-type quotient along a grid increasing to the endpoint.

    Type 1: f(x) * integral_x(1 - F) / (1 - F(x))^2, limit 1.
    Type 2: x f(x) / (1 - F(x)), limit alpha (infinite endpoint).
    Type 3: (endpoint - x) f(x) / (1 - F(x)), limit alpha (finite endpoint).
    Overflowing grid points near the endpoint are dropped; at least the
    last stable point is always reported.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise ValueError("x grid must be a nonempty vector")
    if np.any(np.diff(x_grid) <= 0):
        raise ValueError("x grid must be strictly increasing")
    if np.any(x_grid >= model.upper_endpoint):
        raise ValueError("x grid must stay below the upper endpoint")

    ctype = model.von_mises_type
    limit = 1.0 if ctype == 1 else float(model.von_mises_alpha)
    rows: list[tuple[float, float]] = []
    for x in x_grid:
        sf = float(model.sf(x))
        f = float(model.pdf(x))
        if ctype == 1:
            num = f * float(model.tail_integral(x))
            den = sf * sf
        elif ctype == 2:
            num = x * f
            den = sf
        else:
            num = (model.upper_endpoint - x) * f
            den = sf
        if den <= 0.0 or not math.isfinite(num / den):
            break  # past numerical resolution of the tail; keep earlier rows
        rows.append((float(x), num / den))
    if not rows:
        raise ValueError("no stable grid point below the endpoint")
    return VonMisesResult(rows=rows, limit=limit, condition=ctype)


# ---------------------------------------------------------------------------
# quantile transform

def quantile_transform(models: Sequence[MarginalModel], rows) -> np.ndarray:
    """Componentwise quantile application to a uniform matrix."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-d matrix")
    if len(models) != rows.shape[1]:
        raise ValueError(f"{len(models)} margins for width-{rows.shape[1]} rows")
    out = np.empty_like(rows)
    for i, model in enumerate(models):
        out[:, i] = marginal_quantile(model, rows[:, i])
    return out

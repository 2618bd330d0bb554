"""Copula models attracted to an extreme-value limit, with exact samplers.

Each model carries the norm governing its upper-tail expansion
``C(u) = 1 - ||1 - u||_D + o(||1 - u||)``: the 1-norm for independence,
the sup-norm for comonotonicity, and the logistic p-norm for the
Gumbel-Hougaard family.

``sample_rows`` and ``os_selector`` draw from the same streams, so
selecting on ``sample_rows`` gives the selector's values bit for bit,
except for Gumbel configs at p != 2 whose selection stops among the top
rows:

* Without a positive-stable frailty (independence, comonotone, and Gumbel
  with p = 1, the independence law) a column is a univariate sample, or
  one sample repeated (comonotone), and by Renyi's (1953) representation
  its q-th largest value is minus the sum of its first q spacings.  The
  selector draws exactly the deepest column's depth spacings, at any rank,
  and sums each column's with one reduce along the row axis;
  ``sample_rows`` sums all n in the same row order and puts them in a
  uniformly random order.
* With one (Gumbel, p > 1), ``_MaxOrderRows`` draws top rows in decreasing
  order of their maximum; the selector draws them in batches and stops
  each replication once its columns' order statistics are known, after
  O(k) rows.  At p = 2 every row is drawn so, in closed form (at d = 2
  from four uniforms, with no frailty), and ``sample_rows`` places all n
  at random.  At other p ``sample_rows`` draws Marshall & Olkin's (1988)
  rows, U_j = exp(-(E_j / S)^(1 / p)) (``_marshall_olkin``), and so does
  the selector of a config whose first batch of top rows would reach
  deep into the sample (``_marshall_olkin_path``), selecting on all n.

A block's replications each draw from their own generator, and the
arithmetic runs once on the block's arrays.  This module only samples,
from the generators it is handed; ``copula_sample`` alone builds its own,
by ``streams.stream_rng``.  A replication draws every variate from one
generator: a selector's block gets it from ``streams.replicate``, and
``sample_rows`` handed ``stream_rng(seed, r)`` draws from the same one,
so both draw the same values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dnorm import DNormSpec, LogisticP, SupNorm, _Dimensioned, dnorm_eval
from .streams import _reused, range_store, stream_rng

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

# stable proposals a top row holds at p != 2; the i-th of n rows rejects
# one with probability about i / n, so most replications need no second round
_TRIES = 3

# rows per step of sample_rows' p = 2 top rows and of Marshall-Olkin rows,
# which keeps the temporaries small
_CHUNK = 4096

# the largest Gumbel p.  _log_kanter's terms are log sin(alpha V), at least
# -745 while alpha V stays above the smallest double, p log sin V, and
# (p - 1)(log sin((1 - alpha) V) - log W).  For the nonzero uniforms and
# exponentials numpy draws (U >= 2**-53, V = pi U, W >= 2**-60),
# |log sin| <= 37 and |log W| <= 42, so |log X| <= 37 p + 79 p + 745, and
# the latent maxima m = log d - p log g are at most 81 p for n < 2**63.
# The sums the sampler forms of them (log theta + log X, m - log S) stay
# below 2**8 p, and p <= 2**1014 keeps them below 2**1022, a factor 4
# under the largest double.  Past the cap they overflow: p = 4e307 gave
# NaN rows.
MAX_P = 2.0**1014

# rows per derived stream inside copula_sample; the chunk layout is part of
# the reproducibility contract, so treat it as frozen
SAMPLE_CHUNK = 65536


@dataclass(frozen=True)
class Independence(_Dimensioned):
    @property
    def tail_dnorm(self) -> DNormSpec:
        return LogisticP(1.0)

    def label(self) -> str:
        return f"independence(d={self.d})"


@dataclass(frozen=True)
class Comonotone(_Dimensioned):
    @property
    def tail_dnorm(self) -> DNormSpec:
        return SupNorm()

    def label(self) -> str:
        return f"comonotone(d={self.d})"


@dataclass(frozen=True)
class GumbelLogistic(_Dimensioned):
    """Gumbel-Hougaard copula exp(-((-log u_1)^p + ... )^(1/p)), 1 <= p <= ``MAX_P``."""

    p: float

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.p <= MAX_P:
            raise ValueError(f"Gumbel copula requires 1 <= p <= 2**1014, got p = {self.p}")

    @property
    def tail_dnorm(self) -> DNormSpec:
        return LogisticP(self.p)

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

def log_positive_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """log of one-sided stable variates with Laplace transform exp(-s^alpha),
    0 < alpha < 1, by Kanter's formula on V uniform on (0, pi) and W unit
    exponential, drawn in that order; for small alpha only the log of such
    variates stays in the double range."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return _log_kanter(alpha, rng.random(size), np.log(rng.standard_exponential(size)))


def _log_kanter(alpha: float, u: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """log sin(alpha V) - log sin(V) / alpha
    + ((1 - alpha) / alpha) (log sin((1 - alpha) V) - log W) for V = pi u,
    by elementwise ufuncs in the formula's order, so an element's bits do
    not depend on its array and equal the formula's as written."""
    s = np.multiply.outer(np.array([alpha, 1.0, 1.0 - alpha]), np.multiply(u, math.pi))
    np.log(np.sin(s, out=s), out=s)
    out = np.subtract(s[0], np.divide(s[1], alpha, out=s[1]), out=s[0])
    s[2] -= log_w
    s[2] *= (1.0 - alpha) / alpha
    out += s[2]
    return out


def _inverse_frailty_half(r: np.ndarray, log_u: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """1 / S for S with density proportional to s^(-1/2) exp(-theta s - 1 / (4 s)),
    the frailty given a row maximum at alpha = 1/2, r = sqrt(theta), from
    uniforms U (given as log U), U' and V on (0, 1]: 1 / S is inverse
    Gaussian IG(2 r, 2 r^2), drawn as Michael, Schucany & Haas (1976) do.
    With E = -log U, E sin^2(pi U' / 2) is Gamma(1) Beta(1/2, 1/2) =
    Gamma(1/2) in law, so nu = 2 E sin^2(pi U' / 2) is chi-square with one
    degree of freedom.  The smaller root of the IG quadratic in nu is r z,
    with z = 8 / (sqrt(t + 4) + sqrt(t))^2 and t = nu / r, which has no
    cancellation and is 2 at nu = 0; 1 / S is that root where
    V (2 + z) <= 2, else the larger one, 4 r / z.  Elementwise ufuncs only,
    so an element's bits do not depend on its array.  It overwrites the
    arrays of log U, U' and V with its temporaries, and returns 1 / S in
    log U's."""
    t = np.sin(np.multiply(u, math.pi / 2.0, out=u), out=u)
    np.multiply(np.multiply(t, t, out=t), np.multiply(log_u, -2.0, out=log_u), out=t)  # nu
    np.divide(t, r, out=t)
    z = np.sqrt(np.add(t, 4.0, out=log_u), out=log_u)
    z += np.sqrt(t, out=t)
    np.divide(8.0, np.multiply(z, z, out=z), out=z)
    smaller = np.less_equal(np.multiply(v, np.add(2.0, z, out=t), out=v), 2.0)
    larger = np.divide(np.multiply(4.0, r, out=t), z, out=t)
    inverse = np.multiply(r, z, out=z)
    np.copyto(inverse, larger, where=np.logical_not(smaller, out=smaller))
    return inverse


def _pair_gap(g: np.ndarray, log_u: np.ndarray, v: np.ndarray, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """D (D + 2 g), D = min(E, g V / U), from E = -log U' and uniforms U'
    (given as log U') and U = 1 - V on (0, 1]: the gap X = Delta / S below
    a top row's maximum -g^2 / 2 at p = 2 and d = 2, where Delta is a unit
    exponential and S the row's frailty.  Given g, S has Laplace transform
    (g / h) exp(g - h), h = sqrt(g^2 + x), so P(sqrt(g^2 + X) > h) = P(X >
    h^2 - g^2) = (g / h) exp(g - h) = P(g + E > h) P(g / U > h) for h >= g:
    sqrt(g^2 + X) is min(g + E, g / U) = g + D in law, and X = (g + D)^2 -
    g^2 = D (D + 2 g), a form with no cancellation.  Elementwise ufuncs
    only, so an element's bits do not depend on its array.  E is 0 - log
    U', +0.0 where U' = 1 (-log U' would be -0.0), so the result is never
    -0.0, which ``_MaxOrderRows`` needs to place it by arithmetic.  The
    result goes to ``out`` (a new array if None), and U's array, which it
    overwrites, holds the temporaries."""
    d = np.divide(v, u, out=out)
    np.minimum(np.multiply(d, g, out=d), np.subtract(0.0, log_u, out=u), out=d)
    return np.multiply(d, np.add(d, np.multiply(g, 2.0, out=u), out=u), out=d)


def _stable(model: CopulaModel) -> bool:
    """Whether the model's rows share a positive-stable frailty: Gumbel with p > 1."""
    return isinstance(model, GumbelLogistic) and model.p > 1.0


def _spacings(model: CopulaModel) -> int:
    """Spacing sequences of a frailty-free model: one per column, or one
    that comonotone columns share."""
    return 1 if isinstance(model, Comonotone) else model.d


def _to_uniform(model: GumbelLogistic, latent: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The nondecreasing map from ``_MaxOrderRows``' latent scale to the
    copula's: exp(-sqrt(-x)) at p = 2, where x = -E / S, else
    exp(-exp(-x / p))."""
    if model.p == 2.0:
        u = np.negative(latent, out=out)
        np.sqrt(u, out=u)
    else:
        u = np.divide(latent, -model.p, out=out)
        np.exp(u, out=u)
    return np.exp(np.negative(u, out=u), out=u)


def _marshall_olkin(model: GumbelLogistic, out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the n x d array ``out`` with n iid Gumbel (p > 1) rows on the
    latent scale log S - log E_j, S positive stable with index 1 / p and
    E_j iid unit exponentials, which ``_to_uniform`` maps to
    U_j = exp(-(E_j / S)^(1 / p)) (Marshall & Olkin 1988).  Chunks of
    ``_CHUNK`` rows each draw their S (``log_positive_stable``), then their
    exponentials, from ``rng``."""
    for start in range(0, len(out), _CHUNK):
        f = out[start:start + _CHUNK]
        log_s = log_positive_stable(1.0 / model.p, len(f), rng)[:, None]
        rng.standard_exponential(out=f)
        np.subtract(log_s, np.log(f, out=f), out=f)
    return out


def _spacing_terms(rngs: Sequence[np.random.Generator], n: int, rows: int, width: int, scratch: dict) -> np.ndarray:
    """The Renyi spacings of the first ``rows`` of n rows: rows x width x
    len(rngs) values E_i / (n - i + 1) at 1-based row i, as log U divided
    by -(n - i + 1), with log U = -E and U = 1 - V for each replication's
    uniforms V, ``width`` per row, drawn row by row by its generator in
    ``rngs``.  A frailty-free column's i-th largest value log U is minus
    the sum of its first i."""
    raw, e = _reused(scratch, "raw", (len(rngs), rows, width)), _reused(scratch, "e", (rows, width, len(rngs)))
    for rng, u in zip(rngs, raw):
        rng.random(out=u)
    np.log(np.subtract(1.0, raw.transpose(1, 2, 0), out=e), out=e)  # rows first
    return np.divide(e, np.arange(-n, rows - n, dtype=float)[:, None, None], out=e)


class _MaxOrderRows:
    """A block of Gumbel (p > 1) replications' n rows on the latent scale,
    the top ones in decreasing order of the row maximum, as d x b x rows
    planes, to any depth.  The latent value is log S - log E_j (S positive stable with
    index alpha = 1 / p, E_j iid unit exponentials), and at p = 2 it is
    -E_j / S, a nondecreasing function of it.  It is exact:

    * Renyi spacings.  With H(t) = C(t, ..., t) = t^(d^(1 / p)), the values
      -log H of the n row maxima are iid unit exponentials, whose i-th
      smallest is g_i = E_1 / n + ... + E_i / (n - i + 1) (Renyi 1953), so
      the i-th largest latent maximum is m_i = log d - p log g_i, in log
      space as theta = g^p underflows at p = 64.
    * The law of a row given its maximum.  Given the maxima, the rows are
      independent, each with the law of a row given its maximum m.  With
      iid unit exponentials F, the argmin J of F is uniform and the
      F_j - F_J are iid unit exponentials independent of it.  Given S = s
      the E_j / s are iid exponential with rate s and m fixes their
      minimum e^-m, so S has density proportional to
      s exp(-theta s) f_S(s), theta = d e^-m.  Its Laplace transform
      (1 + l / theta)^(alpha - 1) exp(theta^alpha - (theta + l)^alpha) is
      that of X + Y: Y ~ Gamma(1 - alpha, rate theta), drawn as
      Gamma(2 - alpha) U^(1 / (1 - alpha)) / theta, and X positive stable
      tilted by exp(-theta X), a Kanter variate accepted when a unit
      exponential A exceeds theta X (Devroye 2009), which happens with
      probability exp(-theta^alpha) = exp(-g) = H(M).  At p = 2 the
      density is proportional to s^(-1/2) exp(-theta s - 1 / (4 s)), and
      1 / S is inverse Gaussian, drawn exactly from three uniforms
      (``_inverse_frailty_half``) with no proposals, for every g > 0.
      Given S, E_J = S e^-m and E_j = S e^-m + (F_j - F_J) by
      memorylessness, so the row is m - log1p((F_j - F_J) e^m / S),
      exactly m at J.
    * The p = 2 scale.  There theta = g^2, so sqrt(theta) = g, e^-m =
      g^2 / d and exp(-(log S - log E_j)) = E_j / S.  So the row is kept
      as -E_j / S = -(g^2 / d + (F_j - F_J) / S), exactly the maximum
      -g^2 / d at J, and maps to the copula as exp(-sqrt(-x)); no log or
      exp of g, theta or S is taken.  Other p keep the log scale, as g^p
      underflows (p = 64).  The Renyi sums and the law given the maximum
      hold at every depth, so any of the n rows can be drawn as a top row.
    * The p = 2, d = 2 gap.  There the row is the maximum -g^2 / 2 in a
      uniformly random column J and -g^2 / 2 - X in the other, X =
      (F_j - F_J) / S with F_j - F_J a unit exponential.  Given g, S's
      Laplace transform is (g / h) exp(g - h), h = sqrt(g^2 + x), which is
      X's survival function and factors as P(g + E > h) P(g / U > h), so
      X = D (D + 2 g) with D = min(E, g (1 - U) / U), E a unit exponential
      and U uniform (``_pair_gap``): no frailty is drawn.  The row is
      placed by arithmetic, m - gap [coin] in column 1 and m - (gap -
      gap [coin]) in column 0, [coin] being 1 where the maximum is in
      column 0, with no masked copy.  That is exact: the gap is finite
      and never -0.0, so gap [coin] is the gap or +0.0, gap - gap is
      +0.0, and m - 0.0 is m bit for bit, m = -0.0 included.  At other d
      the d - 1 gaps share one S, and no such factorisation holds.
    * The stop bound.  Every value is at most its row's maximum, from
      which the spread subtracts a nonnegative number (at p = 2 the
      nonnegative product (F_j - F_J) / S, or D (D + 2 g) at d = 2), and
      the computed maxima do not
      increase: the sequential sums g never decrease, which at p = 2 is
      all -g^2 / d needs, and at other p a running minimum guards the
      logs.  So the values not yet drawn lie at or below the last maximum.
      A column with q drawn values at or above it has its q-th largest
      value among them.

    Streams: each replication draws every variate from one SFC64
    generator (``streams``).  For each batch of c top rows
    it draws ``width`` uniforms per row, row by row, then, at p != 2, the
    batch's c Gamma variates, then the batch's proposal redraw rounds;
    ``sample_rows`` then draws the positions of the rows (p = 2).  A top
    row's uniforms are, at p = 2 and d = 2, [spacing, E, U, coin], 4 in
    all: with uniforms V_0 to V_3 drawn in that order, the spacing's and
    E's unit exponentials are -log(1 - V), U = 1 - V_2, and the maximum is
    in column 0 where V_3 < 1 / 2, else in column 1; at other d its
    spacing and its d spreads, then at p = 2 the three of its frailty
    (d + 4 in all), and otherwise its Gamma variate's and [V, W, A] of
    each of ``_TRIES`` stable proposals.  A top row none of whose
    proposals is accepted takes ``_TRIES`` more in the batch's next
    round, each round in row order.  Every variate is a fresh draw of one
    iid stream, so the rows' law is exact.  At p = 2 a row's values do not
    depend on how the top rows are batched; at other p they do, as a
    batch's Gamma variates and redraws follow its uniforms, so a change
    of ``_first_batch`` changes the p != 2 stream.  Row i rejects a
    proposal with probability about i / n, so a row deep in the sample
    may take many rounds.

    Blocks: a block's replications draw their values with their own calls
    to their own generators, and every replication that goes on draws the
    same number of top rows in a batch.  The arithmetic then runs once on
    the block's planes, elementwise or along the row axis, so a
    replication's values do not depend on the other replications in its
    block, nor on the blocks or threads.  A round's redraws are drawn one
    replication at a time and computed in one call per round.
    """

    def __init__(self, model: GumbelLogistic, n: int, scratch: Optional[dict] = None):
        self.n, self.d = n, model.d
        self.p, self.alpha, self.log_d = model.p, 1.0 / model.p, math.log(model.d)
        # at p = 2 a top row's frailty is drawn in closed form, on the -E / S
        # scale, and at d = 2 the lower column's gap is drawn with no frailty
        self.closed_form = model.p == 2.0
        self.pair = self.closed_form and self.d == 2
        self.width = 4 if self.pair else self.d + (4 if self.closed_form else 2 + 3 * _TRIES)
        # the working arrays, in a store that may outlive the instance
        self.scratch: dict[str, np.ndarray] = {} if scratch is None else scratch

    def start(self, rngs: list) -> None:
        """Begin a block of the replications whose SFC64 generators ``rngs``
        holds, one each, which draws all of its variates."""
        self.rngs, self.drawn, self.g = rngs, 0, np.zeros(len(rngs))
        # the last top row's maximum, which bounds the rows not yet drawn
        self.m = np.full(len(rngs), math.inf)

    def next_rows(self, out: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Write the next c top rows of the replications ``slots``, each of
        which has drawn as many top rows as the others, into ``out``
        (d x len(slots) x c), and return their maxima (len(slots) x c)."""
        b, c, i = len(slots), out.shape[2], self.drawn
        raw, u = _reused(self.scratch, "raw", (b, c, self.width)), _reused(self.scratch, "u", (self.width, b, c))
        for j, slot in enumerate(slots):
            self.rngs[slot].random(out=raw[j])
        np.subtract(1.0, raw.transpose(2, 0, 1), out=u)
        # the spacing and E at d = 2, p = 2; else the spacing, the spreads
        # and the frailty's first (its Gamma's at p != 2)
        logs = u[:2] if self.pair else u[:self.d + 2]
        np.log(logs, out=logs)  # log U = -E
        g = np.divide(logs[0], np.arange(i - self.n, i + c - self.n, dtype=float), out=logs[0])  # -(n - i + 1)
        g[:, 0] += self.g[slots]  # continue the sums of the rows drawn before
        np.add.accumulate(g, axis=1, out=g)  # sequential, so batches do not change the sums
        self.g[slots], self.drawn = g[:, -1], i + c
        if self.pair:
            # the maximum -g^2 / 2 in column 0 where the coin's uniform lies
            # below 1 / 2, else in column 1, and -g^2 / 2 - D (D + 2 g) in
            # the other, placed by arithmetic (exact, the docstring says
            # why); 1 - U is U's uniform exactly
            m = np.multiply(g, g)
            np.divide(m, -2.0, out=m)
            gap = _pair_gap(g, logs[1], raw[:, :, 2], u[2], out=out[0])
            np.multiply(gap, np.greater(u[3], 0.5), out=out[1])
            np.subtract(gap, out[1], out=out[0])
            np.subtract(m, out, out=out)
        elif self.closed_form:
            spread = logs[1:-1]
            np.subtract(spread.max(axis=0, out=_reused(self.scratch, "top", (b, c))), spread, out=out)  # F_j - F_J
            # -(g^2 / d + (F_j - F_J) / S), 1 / S drawn with sqrt(theta) = g
            inverse = _inverse_frailty_half(g, logs[-1], u[-2], u[-1])
            m = np.multiply(g, g)
            np.divide(m, -self.d, out=m)
            np.subtract(m, np.multiply(out, inverse, out=out), out=out)
        else:
            np.subtract(logs[1:-1].max(axis=0), logs[1:-1], out=out)  # F_j - F_J
            m = np.empty((b, c + 1))
            m[:, 0] = self.m[slots]
            np.subtract(self.log_d, np.multiply(np.log(g, out=m[:, 1:]), self.p, out=m[:, 1:]), out=m[:, 1:])
            m = np.minimum.accumulate(m, axis=1, out=m)[:, 1:]
            log_theta = self.log_d - m
            gamma = np.empty((b, c))
            for row, slot in zip(gamma, slots):
                self.rngs[slot].standard_gamma(2.0 - self.alpha, out=row)
            log_y = np.log(gamma, out=gamma) + logs[-1] / (1.0 - self.alpha) - log_theta
            log_x = self._tilted_stable(u[2 + self.d:].reshape(3 * _TRIES, -1), log_theta.ravel(), np.repeat(slots, c))
            log_s = np.logaddexp(log_x.reshape(b, c), log_y)
            np.subtract(m, np.log1p(np.multiply(out, np.exp(m - log_s), out=out), out=out), out=out)
        self.m[slots] = m[:, -1]
        return m

    def _tilted_stable(self, u: np.ndarray, log_theta: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """log X, X positive stable tilted by exp(-theta X), for each column
        of u, whose planes hold [V / pi, W, A] of the row's proposals in
        turn and which belongs to replication ``slots``; a proposal is
        computed only where those before it failed, and the rows out of them
        take ``_TRIES`` more each from their replications' generators, a
        round at a time, in row order."""
        log_x, todo = np.empty(len(log_theta)), np.arange(len(log_theta))
        while todo.size:
            if not len(u):  # out of proposals: a round more from each replication's generator, in row order
                owner, u = slots[todo], np.empty((3 * _TRIES, todo.size))
                for slot in np.unique(owner):
                    cols = np.flatnonzero(owner == slot)
                    u[:, cols] = 1.0 - self.rngs[slot].random((cols.size, 3 * _TRIES)).T
            e = np.log(u[1:3])
            np.log(np.negative(e, out=e), out=e)  # log W, log A
            x = _log_kanter(self.alpha, u[0], e[0])
            accept = e[1] > log_theta[todo] + x
            log_x[todo[accept]] = x[accept]
            todo, u = todo[~accept], u[3:, ~accept]
        return log_x


def _first_batch(model: GumbelLogistic, depth: int) -> int:
    """Top rows to draw first for each column's depth-th largest value: a
    row's maximum passes a high level ||(1, ..., 1)||_D times as often as
    a column's value does, and the margin makes a second batch rare."""
    return int(dnorm_eval(model.tail_dnorm, np.ones(model.d)) * (depth + 2.0 * math.sqrt(depth))) + 8


def _marshall_olkin_path(model: GumbelLogistic, n: int, depth: int) -> bool:
    """Whether a Gumbel (p > 1) selection to the given depth draws all n
    rows by ``_marshall_olkin`` rather than top rows: at p != 2, where its
    first batch reaches L = min(n / 8 + 64, 3 n / 8) rows.  Past L a top
    row rejects a tilted-stable proposal with probability above about
    L / n, and drawing all n rows costs less.  The choice depends on the
    config alone, as switching a replication after it failed to stop
    would bias its law."""
    return model.p != 2.0 and _first_batch(model, depth) >= min(n // 8 + 64, 3 * n // 8)


def _depths(model: CopulaModel, n: int, ranks) -> np.ndarray:
    """Each column's depth: its order statistic at the 1-based rank r (one
    rank, or one per column) is its (n - r + 1)-th largest value."""
    ranks = np.broadcast_to(np.asarray(ranks, dtype=int), (model.d,))
    if np.any(ranks < 1) or np.any(ranks > n):
        raise ValueError(f"ranks {ranks.tolist()} out of range for n = {n}")
    return (n - ranks) + 1  # n + 1 may not fit int64


def os_selector(model: CopulaModel, n: int, ranks) -> tuple[Callable[[], Callable[[list], np.ndarray]], int]:
    """Block selector of the order statistics at the 1-based ``ranks`` (one,
    or one per column), for ``streams.replicate``: returns
    ``(make, elements)``.  ``make()`` builds a selector that maps a block's
    list of SFC64 generators, one a replication, to its b x d values.
    ``elements`` counts the values one replication draws at once, which
    ``streams.replicate`` sizes its blocks by and config validation caps
    (``streams.REPLICATION_ELEMENTS``); each path below gives its own.  Row
    r has the law of ``componentwise_os(sample_rows(model, n,
    stream_rng(seed, r)), ranks)``, and equals it bit for bit except for
    top rows at p != 2.

    Without a positive-stable frailty (independence, comonotone, Gumbel
    with p = 1) a column's depth-th largest value is minus the sum of its
    first depth spacings: the block draws exactly the deepest column's
    depth rows of spacings (``_spacing_terms``), the count of spacing
    sequences times that depth, and sums each column's with one reduce
    over the row axis per distinct depth, adding them in row order as
    ``sample_rows`` does.  With one (Gumbel, p > 1) the block draws
    ``_MaxOrderRows``' top rows in batches, the first sized by
    ``_first_batch``, and a replication stops once every column's value at
    its rank is at or above the last row maximum, or all n rows are drawn;
    it draws the first batch's uniforms at once, at most n rows' (4 a row
    at p = 2 and d = 2, d + 4 at p = 2 and other d, and d + 11 at other
    p).  A config on the Marshall-Olkin path (``_marshall_olkin_path``)
    draws the d n values of all n rows of each replication instead, as
    ``sample_rows`` does, and selects on them with one partition per
    block."""
    d, depth = model.d, _depths(model, n, ranks)
    kth, need = np.unique(depth), int(depth.max())

    if not _stable(model):
        s = _spacings(model)
        # column j's sum among the distinct depths' sums, and its spacing plane
        at = (np.searchsorted(kth, depth), np.arange(d) if s > 1 else np.zeros(d, np.intp))

        def make_sums() -> Callable[[list], np.ndarray]:
            scratch = range_store()

            def select(rngs: list) -> np.ndarray:
                e = _spacing_terms(rngs, n, need, s, scratch)
                sums = np.empty((len(kth), s, len(rngs)))
                for q, k in enumerate(kth):
                    if sums[q].size > 1:  # row by row, as np.add.accumulate adds
                        np.add.reduce(e[:k], axis=0, out=sums[q])
                    else:  # numpy would sum a lone column pairwise
                        sums[q] = np.add.accumulate(e[:k], axis=0)[-1]
                return np.exp(np.negative(sums[at].T))

            return select

        return make_sums, s * need

    def pick(planes: np.ndarray) -> np.ndarray:
        """The values at the ranks."""
        count = planes.shape[-1]
        planes.partition(count - kth, axis=-1)  # in place: only the values at the ranks are read
        return planes[np.arange(d), ..., count - depth]

    if _marshall_olkin_path(model, n, need):
        def make_rows() -> Callable[[list], np.ndarray]:
            scratch = range_store()

            def select(rngs: list) -> np.ndarray:
                rows = _reused(scratch, "rows", (len(rngs), n, d))
                for latent, rng in zip(rows, rngs):
                    _marshall_olkin(model, latent, rng)
                return _to_uniform(model, pick(rows.transpose(2, 0, 1)).T)

            return select

        return make_rows, d * n

    first = _first_batch(model, need)

    def make() -> Callable[[list], np.ndarray]:
        rows = _MaxOrderRows(model, n, range_store())

        def select(rngs: list) -> np.ndarray:
            rows.start(rngs)
            out = np.empty((len(rngs), d))
            slots, planes, size = np.arange(len(rngs)), None, first
            while slots.size:
                shape = (d, len(slots), min(size, n - rows.drawn))
                # the first batch in the store; later ones join its planes
                batch = _reused(rows.scratch, "batch", shape) if planes is None else np.empty(shape)
                last = rows.next_rows(batch, slots)[:, -1]
                planes = batch if planes is None else np.concatenate((planes, batch), axis=2)
                if rows.drawn >= need:
                    picked = pick(planes)
                    done = np.all(picked >= last, axis=0) | (rows.drawn == n)
                    out[slots[done]] = _to_uniform(model, picked[:, done].T)
                    slots, planes = slots[~done], planes[:, ~done]
                size = max(rows.drawn // 2, 1)
            return out

        return select

    return make, _MaxOrderRows(model, n).width * min(first, n)


def sample_rows(model: CopulaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid rows from the model with ``rng``, continuing its stream.

    Without a positive-stable frailty each column's n values are minus the
    running sums of its n spacings (``_spacing_terms``; comonotone columns
    share one sequence), its order statistics in decreasing order, put in
    a uniformly random order of its own, which makes them iid; the
    generator draws the orders after the spacings, column by column.
    For Gumbel at p = 2 they are all n top rows of ``_MaxOrderRows`` for a
    block of one replication, put in a uniformly random order drawn by the
    generator; at other p > 1 they are ``_marshall_olkin``'s rows from
    it.  Handed ``streams.stream_rng(seed, r)``, it draws from the
    generator ``streams.replicate`` hands replication r for the selector."""
    if not _stable(model):
        s = _spacings(model)
        e = _spacing_terms([rng], n, n, s, {})[..., 0]
        np.add.accumulate(e, axis=0, out=e)  # in row order, as the selector's reduce adds
        values = np.exp(np.negative(e, out=e), out=e)
        placed = np.stack([values[rng.permutation(n), j] for j in range(s)], axis=1)
        return placed if s == model.d else np.repeat(placed, model.d, axis=1)
    if model.p != 2.0:
        latent = _marshall_olkin(model, np.empty((n, model.d)), rng)
        return _to_uniform(model, latent, out=latent)
    rows = _MaxOrderRows(model, n)
    rows.start([rng])
    top = np.empty((model.d, 1, n))
    # in batches, which keep the temporaries small and change no value
    for start in range(0, n, _CHUNK):
        rows.next_rows(top[:, :, start:start + _CHUNK], np.zeros(1, np.intp))
    place = rng.choice(n, n, replace=False)
    out = np.empty((n, model.d))
    out[place] = top[:, 0].T
    return _to_uniform(model, out, out=out)


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
    quotients = (1.0 - copula_cdf(model, 1.0 - np.multiply.outer(t_grid, x))) / t_grid
    return np.column_stack((t_grid, quotients))

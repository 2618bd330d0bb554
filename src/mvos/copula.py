"""Copula models attracted to an extreme-value limit, with exact samplers.

Each model carries the norm governing its upper-tail expansion
``C(u) = 1 - ||1 - u||_D + o(||1 - u||)``: the 1-norm for independence,
the sup-norm for comonotonicity, and the logistic p-norm for the
Gumbel-Hougaard family.

One generator, ``_MaxOrderRows``, draws every model's top values in
decreasing order, for a block of replications at once.  With independent
columns (independence, and Gumbel with p = 1, the same law) each column is
a sample of its own, drawn by Renyi spacings of its own, so a column's
q-th value drawn is its q-th largest; the other models' rows come in
decreasing order of their maximum.  ``sample_rows`` runs it through all n
rows of a block of one; ``os_selector`` stops each replication once its
columns' order statistics are known, after O(k) rows for the ranks n - k
(exactly k + 1 without a positive-stable frailty), with the same values
bit for bit.  A block's replications each draw from their own streams,
and the arithmetic runs once on the block's planes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dnorm import DNormSpec, LogisticP, SupNorm, dnorm_eval
from .streams import rekey, stream_rng

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

# stable proposals a top row holds; the i-th of n rows rejects one with
# probability about i / n, so most replications need no second round
_TRIES = 3

# rows per step of the rows below the top ones
_CHUNK = 4096

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


def _stable(model: CopulaModel) -> bool:
    """Whether the model's rows share a positive-stable frailty: Gumbel with p > 1."""
    return isinstance(model, GumbelLogistic) and model.p > 1.0


def _to_uniform(model: CopulaModel, latent: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The nondecreasing map from ``_MaxOrderRows``' latent scale to the
    copula's: exp, or exp(-exp(-x / p)) for Gumbel with p > 1."""
    if _stable(model):
        u = np.divide(latent, -model.p, out=out)
        return np.exp(np.negative(np.exp(u, out=u), out=u), out=u)
    return np.exp(latent, out=out)


def _uniforms(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    """``count`` rows of ``width`` uniforms on (0, 1], as ``width`` planes."""
    return np.subtract(1.0, rng.random((count, width)).T, order="C")


class _MaxOrderRows:
    """A block of replications' n rows on the latent scale, the top ones in
    decreasing order of a level, as d x b x rows planes.  With independent
    columns (independence, or Gumbel with p = 1, the same law) each column
    is a sample of its own and has its own level, its values; otherwise
    the level is the row maximum.  The latent value is log U_j, or
    log S - log E_j for Gumbel with p > 1 (S positive stable with index
    alpha = 1 / p, E_j iid unit exponentials).  It is exact:

    * Renyi spacings.  The values -log U of a column's n values are iid
      unit exponentials, whose i-th smallest is
      g_i = E_1 / n + ... + E_i / (n - i + 1) (Renyi 1953), so with
      independent columns column j's i-th largest value is -g_ij, from a
      spacing E_ij of its own.  Otherwise, with H(t) = C(t, ..., t), the
      values -log H of the n row maxima are iid unit exponentials, and
      H(u) is u (comonotone) and u^(d^(1 / p)) (Gumbel, p > 1), so the
      i-th largest latent maximum is m_i = -g_i (comonotone, where every
      column equals it) and log d - p log g_i, in log space as
      theta = g^p underflows at p = 64.
    * The law of a Gumbel row given its maximum.  Given the maxima, the
      rows are independent, each with the law of a row given its maximum
      m.  With iid unit exponentials F, the argmin J of F is uniform and
      the F_j - F_J are iid unit exponentials independent of it.  Given
      S = s the E_j / s are iid exponential with rate s and m fixes their
      minimum e^-m, so S has density proportional to
      s exp(-theta s) f_S(s), theta = d e^-m.  Its Laplace transform
      (1 + l / theta)^(alpha - 1) exp(theta^alpha - (theta + l)^alpha) is
      that of X + Y: Y ~ Gamma(1 - alpha, rate theta), drawn as
      Gamma(2 - alpha) U^(1 / (1 - alpha)) / theta, and X positive stable
      tilted by exp(-theta X), a Kanter variate accepted when a unit
      exponential A exceeds theta X (Devroye 2009), which happens with
      probability exp(-theta^alpha) = exp(-g) = H(M).  Given S,
      E_J = S e^-m and E_j = S e^-m + (F_j - F_J) by memorylessness, so
      the row is m - log1p((F_j - F_J) e^m / S), exactly m at J.
    * The stop bound, per column.  Every value is at most its level (a
      column's own value, or its row's maximum, from which the spread
      subtracts a nonnegative number), and the sequential sums and a
      running minimum keep the computed levels nonincreasing, so a
      column's values not yet drawn lie at or below its last level.  A
      column with q drawn values at or above that level has its q-th
      largest value among them; with its own spacings, the q-th value it
      draws is its q-th largest.
    * The Markov step.  The order statistics of the levels form a Markov
      chain, so given the L largest the other n - L are iid with the law
      of a level below m_L (m_0 = 0, or infinity for Gumbel with p > 1):
      m_Lj - F_j in column j (independent columns), m_L - F in every
      column (comonotone), and for Gumbel rows log S - log(F_j + S e^-m_L)
      with S now the tilted stable variate alone, as the condition multiplies
      f_S(s) by exp(-theta s).  Placing the top L values at uniformly
      random positions among the others, each column at positions of its
      own when the columns are independent, makes all n rows iid.

    Streams: each replication's generator gives a 64-bit key, ``width``
    uniforms per top row, row by row (one spacing per column with
    independent columns; otherwise the row's spacing and, for Gumbel, its
    d spreads, its Gamma variate's and [V, W, A] of each stable proposal),
    then what the values below use.  The Philox stream keyed (key, 1)
    gives the Gamma variates, and a top row none of whose ``_TRIES`` stable
    proposals is accepted takes ``_TRIES`` more from (key, 2), then
    (key, 3) and so on, each in row order, so a row's values do not depend
    on how the top rows are batched.

    Blocks: a block's replications draw their values with their own calls
    to their own generators, and every replication that goes on draws the
    same number of top rows in a batch.  The arithmetic then runs once on
    the block's planes, elementwise or along the row axis, so a
    replication's values do not depend on the other replications in its
    block.  The redraws from (key, t >= 2) and the values below the top
    ones are drawn one replication at a time.
    """

    def __init__(self, model: CopulaModel, n: int):
        self.n, self.d = n, model.d
        # L: enough rows for intermediate ranks, while every tilted
        # acceptance, about 1 - L / n, stays above 5/8
        self.top = min(n // 8 + 64, 3 * n // 8)
        self.stable = _stable(model)
        # spacings per top row: one per column when the columns are independent
        self.spacings = 1 if self.stable or isinstance(model, Comonotone) else self.d
        if self.stable:
            self.p, self.alpha, self.log_d = model.p, 1.0 / model.p, math.log(model.d)
        self.width = self.spacings + (self.d + 1 + 3 * _TRIES) * self.stable
        self.pool: dict[tuple[int, int], np.random.Generator] = {}
        self.scratch: dict[str, np.ndarray] = {}

    def start(self, rngs: Sequence[np.random.Generator]) -> None:
        """Begin a block of replications, one drawn from each generator."""
        self.rngs, self.keys, self.keyed = rngs, [rng.bit_generator.random_raw() for rng in rngs], set()
        self.drawn, self.g, self.m = 0, np.zeros((self.spacings, len(rngs))), np.full(len(rngs), math.inf)

    def _sub(self, slot: int, t: int) -> np.random.Generator:
        """Replication ``slot``'s stream keyed (key, t), started at its first
        use in the replication."""
        gen = self.pool.get((slot, t))
        if gen is None:
            gen = self.pool[slot, t] = np.random.Generator(np.random.Philox(0))
        if (slot, t) not in self.keyed:
            self.keyed.add((slot, t))
            rekey(gen, np.array([self.keys[slot], t], np.uint64))
        return gen

    def _scratch(self, name: str, shape: tuple) -> np.ndarray:
        """An array of the given shape that the thread's blocks reuse: a
        freed block-sized temporary lets malloc hand its pages back, and the
        next block faults them in again."""
        size = math.prod(shape)
        if name not in self.scratch or self.scratch[name].size < size:
            self.scratch[name] = np.empty(size)
        return self.scratch[name][:size].reshape(shape)

    def next_rows(self, out: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Write the next c top rows of the replications ``slots``, each of
        which has drawn as many top rows as the others, into ``out``
        (d x len(slots) x c), and return their levels (``spacings`` x
        len(slots) x c): a view of ``out`` unless the model is Gumbel with
        p > 1, whose row maxima are returned as a new array."""
        b, c, i, s = len(slots), out.shape[2], self.drawn, self.spacings
        raw, u = self._scratch("raw", (c, self.width)), self._scratch("u", (self.width, b, c))
        for j, slot in enumerate(slots):
            np.subtract(1.0, self.rngs[slot].random(out=raw).T, out=u[:, j])
        logs = u[:s + (self.d + 1) * self.stable]  # the spacings, the spreads and the Gamma's
        np.log(logs, out=logs)  # log U = -E
        g = np.divide(logs[:s], np.arange(i - self.n, i + c - self.n, dtype=float), out=logs[:s])  # -(n - i + 1)
        g[..., 0] += self.g[:, slots]  # continue the sums of the rows drawn before
        np.add.accumulate(g, axis=2, out=g)  # sequential, so batches do not change the sums
        self.g[:, slots], self.drawn = g[..., -1], i + c
        if not self.stable:
            np.negative(g, out=out)
            return out[:s]
        spread = logs[1:-1]
        np.subtract(spread.max(axis=0), spread, out=out)  # F_j - F_J
        m = np.empty((b, c + 1))
        m[:, 0] = self.m[slots]
        np.subtract(self.log_d, np.multiply(np.log(g[0], out=m[:, 1:]), self.p, out=m[:, 1:]), out=m[:, 1:])
        m = np.minimum.accumulate(m, axis=1, out=m)[:, 1:]
        log_theta = self.log_d - m
        gamma = np.empty((b, c))
        for row, slot in zip(gamma, slots):
            self._sub(slot, 1).standard_gamma(2.0 - self.alpha, out=row)
        log_y = np.log(gamma, out=gamma) + logs[-1] / (1.0 - self.alpha) - log_theta
        log_x = self._tilted_stable(u[2 + self.d:].reshape(3 * _TRIES, -1), log_theta.ravel(), np.repeat(slots, c))
        log_s = np.logaddexp(log_x.reshape(b, c), log_y)
        np.subtract(m, np.log1p(np.multiply(out, np.exp(m - log_s), out=out), out=out), out=out)
        self.m[slots] = m[:, -1]
        return m[None]

    def rest(self, slot: int, out: np.ndarray) -> None:
        """After all L top rows of replication ``slot``, write its other
        n - L rows, iid given levels below the L-th, into the (n - L) x d
        array ``out``, in chunks that keep the temporaries small."""
        m, rng = self.m[slot], self.rngs[slot]
        for start in range(0, len(out), _CHUNK):
            f = out[start:start + _CHUNK]
            if not self.stable:  # below each column's level m_L = -g_L
                np.subtract(np.negative(self.g[:, slot]), rng.standard_exponential((len(f), self.spacings)), out=f)
                continue
            # the rows share theta, so the accepted proposals serve them in turn
            log_theta, parts, need = self.log_d - m, [np.empty(0)], len(f)
            rate = math.exp(-math.exp(self.alpha * log_theta))  # exp(-theta^alpha)
            while need:
                size = int((need + 4.0 * math.sqrt(need)) / rate) + 16
                log_x = log_positive_stable(self.alpha, size, rng)
                parts.append(log_x[np.log(rng.standard_exponential(size)) > log_theta + log_x][:need])
                need -= len(parts[-1])
            # log S - log(F + S e^-m), which m = inf leaves unconditioned
            log_s = np.concatenate(parts)[:, None]
            rng.standard_exponential(out=f)
            np.subtract(log_s, np.log(np.add(f, np.exp(log_s - m), out=f), out=f), out=f)

    def _tilted_stable(self, u: np.ndarray, log_theta: np.ndarray, slots: np.ndarray, t: int = 1) -> np.ndarray:
        """log X, X positive stable tilted by exp(-theta X), for each column
        of u, whose planes hold [V / pi, W, A] of the row's proposals in
        turn and which belongs to replication ``slots``; a proposal is
        computed only where those before it failed."""
        e = np.log(u[1:3])
        np.log(np.negative(e, out=e), out=e)  # log W, log A
        log_x = _log_kanter(self.alpha, u[0], e[0])
        redo = np.flatnonzero(~(e[1] > log_theta + log_x))
        if redo.size and len(u) > 3:
            log_x[redo] = self._tilted_stable(u[3:, redo], log_theta[redo], slots[redo], t)
        elif redo.size:  # out of proposals: more from each replication's (key, t + 1)
            for slot in np.unique(slots[redo]):
                rows = redo[slots[redo] == slot]
                more = _uniforms(self._sub(int(slot), t + 1), rows.size, 3 * _TRIES)
                log_x[rows] = self._tilted_stable(more, log_theta[rows], slots[rows], t + 1)
        return log_x


def _first_batch(model: CopulaModel, depth: int) -> int:
    """Top rows to draw first for each column's depth-th largest value.
    Drawn by its own spacings (independent or comonotone columns), a
    column's depth-th value is that value.  For Gumbel with p > 1 a row's
    maximum passes a high level ||(1, ..., 1)||_D times as often as a
    column's value does; the margin makes a second batch rare."""
    if not _stable(model):
        return depth
    return int(dnorm_eval(model.tail_dnorm, np.ones(model.d)) * (depth + 2.0 * math.sqrt(depth))) + 8


def os_selector(model: CopulaModel, n: int, ranks) -> tuple[Callable[[], Callable[[Sequence[np.random.Generator]], np.ndarray]], int]:
    """Block selector of the order statistics at the 1-based ``ranks`` (one,
    or one per column), for ``streams.replicate``: returns ``(make, elements)``.
    ``make()`` builds a selector that maps a block of replications'
    generators to their b x d values, row r equal bit for bit to
    ``componentwise_os(sample_rows(model, n, rngs[r]), ranks)``, and
    ``elements`` is the uniforms one replication draws in the first batch.
    The block draws top rows in batches, the first sized by
    ``_first_batch``, and a replication stops once every column's value at
    its rank is at or above that column's last level; one still going
    after L top rows draws the rest and selects on all n."""
    d = model.d
    ranks = np.broadcast_to(np.asarray(ranks, dtype=int), (d,))
    if np.any(ranks < 1) or np.any(ranks > n):
        raise ValueError(f"ranks {ranks.tolist()} out of range for n = {n}")
    depth = (n - ranks) + 1  # column j wants its depth_j-th largest value; n + 1 may not fit int64
    kth, need = np.unique(depth), int(depth.max())
    first = _first_batch(model, need)

    def pick(planes: np.ndarray, ordered: bool = False) -> np.ndarray:
        """The values at the ranks; ``ordered`` planes are in decreasing order."""
        if ordered:
            return planes[np.arange(d), ..., depth - 1]
        count = planes.shape[-1]
        planes.partition(count - kth, axis=-1)  # in place: only the values at the ranks are read
        return planes[np.arange(d), ..., count - depth]

    def make() -> Callable[[Sequence[np.random.Generator]], np.ndarray]:
        rows = _MaxOrderRows(model, n)

        def select(rngs: Sequence[np.random.Generator]) -> np.ndarray:
            out = np.empty((len(rngs), d))
            rows.start(rngs)
            slots, planes, size = np.arange(len(rngs)), None, first
            while rows.drawn < rows.top:
                batch = np.empty((d, len(slots), min(size, rows.top - rows.drawn)))
                last = rows.next_rows(batch, slots)[..., -1].copy()  # pick partitions batch in place
                planes = batch if planes is None else np.concatenate((planes, batch), axis=2)
                if rows.drawn >= need:
                    picked = pick(planes, ordered=not rows.stable)
                    done = np.all(picked >= last, axis=0)
                    out[slots[done]] = _to_uniform(model, picked[:, done].T)
                    if done.all():
                        return out
                    slots, planes = slots[~done], planes[:, ~done]
                size = max(rows.drawn // 2, 1)
            for j, slot in enumerate(slots):
                rest = np.empty((n - rows.top, d))
                rows.rest(slot, rest)
                below = rest.T if planes is None else np.concatenate((planes[:, j], rest.T), axis=1)
                out[slot] = _to_uniform(model, pick(below))
            return out

        return select

    rows = _MaxOrderRows(model, n)
    return make, rows.width * min(first, rows.top)


def sample_rows(model: CopulaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid rows from the model using the supplied generator: all n
    rows of ``_MaxOrderRows`` for a block of one replication through the
    model's map, the top rows at a uniformly random ordered set of
    positions and the rest, which are iid, in order at the others.  With
    independent columns each column's top values take positions of their
    own, drawn column by column."""
    rows = _MaxOrderRows(model, n)
    rows.start([rng])
    top = np.empty((model.d, 1, rows.top))
    if rows.top:
        rows.next_rows(top, np.zeros(1, np.intp))
    drawn = np.empty((n, model.d))
    drawn[:rows.top] = top[:, 0].T
    rows.rest(0, drawn[rows.top:])
    out, width = np.empty_like(drawn), model.d // rows.spacings
    for cols in (slice(j, j + width) for j in range(0, model.d, width)):
        place, free, order = rng.choice(n, rows.top, replace=False), np.ones(n, dtype=bool), np.empty(n, dtype=np.intp)
        free[place] = False  # row i of the result is drawn[order[i]]
        order[place], order[free] = np.arange(rows.top), np.arange(rows.top, n)
        out[:, cols] = drawn[order, cols]
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
    rows = np.empty((t_grid.size, 2))
    for idx, t in enumerate(t_grid):
        rows[idx, 0] = t
        rows[idx, 1] = (1.0 - copula_cdf(model, 1.0 - t * x)) / t
    return rows

"""Exact d = 2 laws of the two sides of the representation comparison.

``os_joint_cdf`` is the joint cdf of the componentwise (n-k)-th order
statistics of n iid copula rows, from the multinomial counts of rows above
each grid value (Reiss 1989, the binomial representation of order
statistic cdfs).  ``ratio_joint_cdf`` is the joint cdf of the correlated
chi-square ratios, from Kibble's (1941) mixture representation of the
bivariate gamma law.  Both margins are exactly Beta(n-k, k+1).
``ecdf_on_grid`` is the joint empirical cdf a sample is held against them.

``FRECHET2_BANDS`` bound the relative error of the Monte Carlo norm of
``FrechetLogistic(d, 2.0)``, whose standard error has no level.
"""
import numpy as np
from scipy import special, stats

from mvos.chi2rep import _cell_counts, _running_sums
from mvos.copula import copula_cdf


def beta_quantile_grid(n, k, levels=np.linspace(0.1, 0.9, 9)):
    """Quantiles of the common Beta(n-k, k+1) margin."""
    return stats.beta(n - k, k + 1).ppf(levels)


def ecdf_on_grid(values, grid):
    """Joint empirical cdf of the rows of ``values`` on a tensor grid.

    One count per grid cell, summed cumulatively along every axis, gives
    the number of rows at or below each grid node: code c <= m exactly
    when the m-th smallest grid point is >= the value.  Memory is
    O(R d + prod(len(g) + 1)), and the exact integer counts make the
    result equal to the mean of the R x grid indicator array.
    """
    values = np.asarray(values, dtype=float)
    r, d = values.shape
    if len(grid) != d:
        raise ValueError("grid dimension mismatch")
    grid = [np.asarray(g, dtype=float) for g in grid]
    orders = [np.argsort(g, kind="stable") for g in grid]
    counts = _running_sums(_cell_counts(values, [g[order] for g, order in zip(grid, orders)]))
    for axis, order in enumerate(orders):
        # back to the grid's own order, which drops the cell above the last point
        counts = counts.take(np.argsort(order), axis=axis)
    return counts / r


def os_joint_cdf(model, n, k, x):
    """P(U1,(n-k1) <= x1, U2,(n-k2) <= x2) over a grid of (x1, x2).

    ``k`` is one k for both columns or a pair (k1, k2), and ``x`` one grid
    for both columns or a pair of grids (x1, x2).  U_i,(n-k_i) <= x_i
    exactly when at most k_i rows exceed x_i in column i.  Each row
    exceeds in both columns, only the first or only the second with the
    probabilities 1 - x1 - x2 + C, x2 - C and x1 - C, so the cdf sums,
    over the counts a of the first cell and b of the second, a binomial
    pmf times a binomial pmf times a binomial cdf.
    """
    k1, k2 = (int(v) for v in np.broadcast_to(k, 2))
    x1, x2 = (x, x) if np.ndim(x[0]) == 0 else x
    a, b = np.meshgrid(np.arange(k1 + 1), np.arange(k1 + 1), indexing="ij")
    keep = (a + b <= k1) & (a <= k2)
    a, b = a[keep], b[keep]
    out = np.empty((len(x1), len(x2)))
    for i, u in enumerate(x1):
        for j, v in enumerate(x2):
            c = copula_cdf(model, [u, v])
            both = max(1.0 - u - v + c, 0.0)
            first = max(v - c, 0.0)
            second = max(u - c, 0.0)
            out[i, j] = np.sum(
                stats.binom.pmf(a, n, both)
                * stats.binom.pmf(b, n - a, first / (first + u))
                * stats.binom.cdf(k2 - a, n - a - b, second / u)
            )
    return out


def _nbinom_support(shape, rho2, tail=1e-16):
    """NegBin(shape, 1 - rho2) values between its two ``tail`` quantiles, and their pmf."""
    law = stats.nbinom(shape, 1.0 - rho2)
    j = np.arange(law.ppf(tail), law.isf(tail) + 1)
    return j, law.pmf(j)


def ratio_joint_cdf(rho2, n, k, x):
    """P(R1 <= x1, R2 <= x2) for x1 and x2 in the grid x, where R_i is the
    ratio of the first 2(n-k) to all 2(n+1) squared i-th coordinates of
    iid N(0, Lambda) vectors with Lambda_12^2 = rho2.

    Given J ~ NegBin(n-k, 1 - rho2) and an independent
    J' ~ NegBin(k+1, 1 - rho2), R1 and R2 are iid Beta(n-k+J, k+1+J').
    Each mixture drops at most 1e-16 of its mass in each tail (a cut at
    12 sd drops 3e-9 at shape 4 and rho2 = 0.81, where the tail is
    nearly geometric).
    """
    j, wj = _nbinom_support(n - k, rho2)
    jp, wjp = _nbinom_support(k + 1, rho2)
    x = np.asarray(x, dtype=float)[:, None, None]
    out = np.zeros((x.shape[0], x.shape[0]))
    for lo in range(0, j.size, 256):  # chunks keep the betainc table small
        cdf = special.betainc((n - k + j[lo:lo + 256])[:, None], (k + 1 + jp)[None, :], x)
        out += np.einsum("gab,ab,hab->gh", cdf, wj[lo:lo + 256, None] * wjp[None, :], cdf)
    return out


# FrechetLogistic(d, 2.0)'s Monte Carlo norm at x is ||x||_2 (1 + R): the
# maximum of the independent Frechet(2) variates |x_i| Z_i is Frechet(2)
# with scale ||x||_2, so R is the mean of m iid E^(-1/2) / sqrt(pi) - 1,
# E standard exponential, whatever x and d.  Its variance is infinite, so
# mc_eval's standard error gives a band no level; R has these bands
# instead, m: (low, high).  A correct program's R lies below low with
# chance at most 2.2e-8, 3.2e-8 and 5.6e-7 (Chernoff bounds, exact), and
# above high with chance 3.95e-4, 2.6e-4 and 3.0e-4 (10^6, 10^5 and
# 4·10^4 simulated runs of the law), each within 20% of the one-jump tail
# 1/(pi m high^2).  The median of R at m = 2·10^4 is -0.0016: R lies at or
# below it with chance 0.5012.
FRECHET2_BANDS = {2 * 10**4: (-0.06, 0.2), 10**5: (-0.03, 0.1), 10**6: (-0.01, 0.03)}
FRECHET2_MEDIAN = -0.0016


def frechet2_error(mean, x):
    """R of a ``FrechetLogistic(d, 2.0)`` Monte Carlo norm ``mean`` at x."""
    return mean / np.linalg.norm(x) - 1.0

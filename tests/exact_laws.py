"""Exact d = 2 laws of the two sides of the representation comparison.

``os_joint_cdf`` is the joint cdf of the componentwise (n-k)-th order
statistics of n iid copula rows, from the multinomial counts of rows above
each grid value (Reiss 1989, the binomial representation of order
statistic cdfs).  ``ratio_joint_cdf`` is the joint cdf of the correlated
chi-square ratios, from Kibble's (1941) mixture representation of the
bivariate gamma law.  Both margins are exactly Beta(n-k, k+1).
"""
import numpy as np
from scipy import special, stats

from mvos.copula import copula_cdf


def beta_quantile_grid(n, k, levels=np.linspace(0.1, 0.9, 9)):
    """Quantiles of the common Beta(n-k, k+1) margin."""
    return stats.beta(n - k, k + 1).ppf(levels)


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

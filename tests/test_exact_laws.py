import numpy as np
import pytest
from scipy import stats

from mvos.copula import GumbelLogistic, Independence

from exact_laws import beta_quantile_grid, os_joint_cdf, ratio_joint_cdf


def _grid_with_one(n, k):
    # the node at 1 reads off each margin
    return np.append(beta_quantile_grid(n, k), 1.0)


@pytest.mark.parametrize("n,k", [(400, 20), (10**4, 100), (400, (40, 10))])
def test_order_statistic_margins_are_beta(n, k):
    k1, k2 = np.broadcast_to(k, 2)
    x1, x2 = _grid_with_one(n, k1), _grid_with_one(n, k2)
    cdf = os_joint_cdf(GumbelLogistic(2, 2.0), n, k, (x1, x2))
    np.testing.assert_allclose(cdf[:, -1], stats.beta(n - k1, k1 + 1).cdf(x1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(cdf[-1, :], stats.beta(n - k2, k2 + 1).cdf(x2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,k,rho2", [(400, 20, 2.0 - np.sqrt(2.0)), (9, 3, 0.81)])
def test_ratio_margins_are_beta(n, k, rho2):
    x = _grid_with_one(n, k)
    cdf = ratio_joint_cdf(rho2, n, k, x)
    beta = stats.beta(n - k, k + 1).cdf(x)
    np.testing.assert_allclose(cdf[:, -1], beta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cdf[-1, :], beta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(400, 20), (9, 3)])
def test_uncorrelated_ratios_are_independent(n, k):
    x = _grid_with_one(n, k)
    cdf = ratio_joint_cdf(0.0, n, k, x)
    np.testing.assert_allclose(cdf, np.outer(cdf[:, -1], cdf[-1, :]), rtol=0, atol=1e-12)


def test_laws_agree_under_independence():
    # an independence copula gives independent order statistics, the law
    # of the ratios with Lambda = I
    n, k = 400, 20
    x = _grid_with_one(n, k)
    np.testing.assert_allclose(os_joint_cdf(Independence(2), n, k, x), ratio_joint_cdf(0.0, n, k, x),
                               rtol=0, atol=1e-12)

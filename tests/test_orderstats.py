from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mvos.dnorm import (
    DNormSpec,
    FrechetLogistic,
    GeneratorBased,
    LogisticP,
    RandomIndex,
    SupNorm,
    dnorm_eval,
    spec_dimension,
)
from mvos.margins import NormingConstants, StandardExponential, norming_constants
from mvos.orderstats import (
    IntermediateSpec,
    KRatioMatrix,
    PowerKRule,
    componentwise_os,
    standardize_copula_case,
    standardize_general_case,
    theoretical_sigma,
    theoretical_sigma_equal_k,
)

from exact_laws import FRECHET2_BANDS, frechet2_error


class TestComponentwiseOS:
    def test_middle_of_three(self):
        col = np.array([[3.0], [1.0], [2.0]])
        assert componentwise_os(col, 2) == 2.0

    def test_matches_full_sort_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 5))
            sample = rng.normal(size=(n, d))
            j = rng.integers(1, n + 1, size=d)
            expected = np.array([np.sort(sample[:, i])[j[i] - 1] for i in range(d)])
            assert np.array_equal(componentwise_os(sample, j), expected)

    def test_ties_preserved(self):
        col = np.array([[1.0], [1.0], [2.0]])
        assert componentwise_os(col, 1) == 1.0
        assert componentwise_os(col, 2) == 1.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            componentwise_os(np.zeros((3, 1)), 4)
        with pytest.raises(ValueError):
            componentwise_os(np.zeros((3, 1)), 0)


class TestStandardize:
    def test_copula_centering(self):
        n, k = 100, np.array([25])
        center = (n - k) / n
        assert standardize_copula_case(center, n, k)[0] == 0.0

    def test_copula_arithmetic(self):
        assert standardize_copula_case(np.array([0.80]), 100, np.array([25]))[0] == pytest.approx(1.0)

    def test_copula_vectorized_matches_rowwise(self):
        rng = np.random.default_rng(1)
        batch = rng.random((20, 3))
        k = np.array([4, 9, 16])
        full = standardize_copula_case(batch, 100, k)
        rows = np.vstack([standardize_copula_case(row, 100, k) for row in batch])
        assert np.array_equal(full, rows)

    def test_copula_k_bounds(self):
        with pytest.raises(ValueError):
            standardize_copula_case(np.array([0.5]), 100, np.array([100]))

    def test_general_center_and_step(self):
        cons = [norming_constants(StandardExponential(), 10**4, 100)]
        b, a = cons[0].b, cons[0].a
        assert standardize_general_case(np.array([b]), cons)[0] == 0.0
        assert standardize_general_case(np.array([b + a]), cons)[0] == pytest.approx(1.0)

    def test_general_rejects_bad_scale(self):
        cons = [NormingConstants(a=0.0, b=1.0, n=10, k=2)]
        with pytest.raises(ValueError):
            standardize_general_case(np.array([1.0]), cons)

    def test_equivalent_constants_shift_is_small(self):
        # two constants sequences differing by o(1) relative moves
        n, k = 10**4, 100
        cons = norming_constants(StandardExponential(), n, k)
        c = cons.a * (1 + 1 / np.sqrt(n))
        d = cons.b + cons.a / np.sqrt(n)
        alt = [NormingConstants(a=c, b=d, n=n, k=k)]
        rng = np.random.default_rng(2)
        x = cons.b + cons.a * rng.uniform(-3, 3, size=(50, 1))
        base = standardize_general_case(x, [cons])
        moved = standardize_general_case(x, alt)
        bound = np.abs(x - cons.b) * abs(1 / c - 1 / cons.a) + abs(d - cons.b) / c
        assert np.all(np.abs(moved - base) <= bound + 1e-12)
        # the drift vanishes at rate (|T| + 1) / sqrt(n)
        assert np.max(np.abs(moved - base)) <= 1.01 * (np.max(np.abs(base)) + 1.0) / np.sqrt(n)


class TestKRatioMatrix:
    def test_ones(self):
        m = KRatioMatrix.ones(3)
        assert_allclose(m.entries, 1.0)

    def test_from_weights(self):
        m = KRatioMatrix.from_weights([4.0, 1.0])
        assert_allclose(m.entries, [[1.0, 2.0], [0.5, 1.0]])

    def test_reciprocal_violation(self):
        with pytest.raises(ValueError):
            KRatioMatrix(np.array([[1.0, 2.0], [0.6, 1.0]]))

    def test_chain_violation(self):
        m = np.array([[1.0, 2.0, 8.0], [0.5, 1.0, 2.0], [0.125, 0.5, 1.0]])
        with pytest.raises(ValueError):
            KRatioMatrix(m)

    def test_diagonal_violation(self):
        with pytest.raises(ValueError):
            KRatioMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_weights_form_at_d_1000(self):
        # the form sqrt(w_i / w_j) is checked in O(d^2), so a wide config validates at once
        w = np.random.default_rng(3).uniform(0.25, 4.0, size=1000)
        m = np.sqrt(w[:, None] / w[None, :])
        assert np.array_equal(KRatioMatrix(m).entries, m)
        bad = m.copy()
        bad[417, 3] *= 1 + 1e-6
        with pytest.raises(ValueError):
            KRatioMatrix(bad)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
    def test_empty_or_not_square(self, shape):
        with pytest.raises(ValueError):
            KRatioMatrix(np.ones(shape))


class TestIntermediateSpec:
    def test_power_rule(self):
        assert PowerKRule(1.0, 0.5)(10**4) == 100
        assert PowerKRule(4.0, 0.5)(10**4) == 400

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            PowerKRule(0.0, 0.5)
        with pytest.raises(ValueError):
            PowerKRule(1.0, 1.0)

    def test_ranks_by_convention(self):
        spec = IntermediateSpec.equal(2, convention="n-k")
        assert np.array_equal(spec.ranks(10**4), [9900, 9900])
        spec = IntermediateSpec.equal(2, convention="n-k+1")
        assert np.array_equal(spec.ranks(10**4), [9901, 9901])

    def test_ratio_matrix_from_rules(self):
        spec = IntermediateSpec((PowerKRule(4.0, 0.5), PowerKRule(1.0, 0.5)))
        assert_allclose(spec.ratio_matrix().entries, [[1.0, 2.0], [0.5, 1.0]])

    def test_mixed_gamma_rejected(self):
        spec = IntermediateSpec((PowerKRule(1.0, 0.4), PowerKRule(1.0, 0.6)))
        with pytest.raises(ValueError):
            spec.ratio_matrix()

    def test_k_band_enforced(self):
        spec = IntermediateSpec((PowerKRule(50.0, 0.9),))
        with pytest.raises(ValueError):
            spec.k_vector(100)

    def test_intermediate_limits_on_grid(self):
        rule = PowerKRule(2.0, 0.6)
        ns = [10**3, 10**4, 10**5, 10**6]
        ks = [rule(n) for n in ns]
        assert all(b > a for a, b in zip(ks, ks[1:]))          # k grows
        fracs = [k / n for k, n in zip(ks, ns)]
        assert all(b < a for a, b in zip(fracs, fracs[1:]))    # k/n falls


class TestTheoreticalSigma:
    def test_one_norm_gives_identity_any_ratios(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(0.2, 5.0, size=4)
            sigma = theoretical_sigma(LogisticP(1.0), KRatioMatrix.from_weights(w))
            assert_allclose(sigma, np.eye(4), atol=1e-12)

    def test_logistic_equal_k_values(self):
        sigma = theoretical_sigma_equal_k(LogisticP(2.0), 2)
        assert_allclose(sigma[0, 1], 2.0 - np.sqrt(2.0), rtol=1e-14)
        sigma = theoretical_sigma_equal_k(LogisticP(3.0), 2)
        assert_allclose(sigma[0, 1], 2.0 - 2.0 ** (1.0 / 3.0), rtol=1e-14)

    def test_sup_equal_k_all_ones(self):
        assert_allclose(theoretical_sigma_equal_k(SupNorm(), 3), np.ones((3, 3)))

    def test_sup_ratio_4(self):
        ratios = KRatioMatrix.from_weights([4.0, 1.0])
        sigma = theoretical_sigma(SupNorm(), ratios)
        assert_allclose(sigma[0, 1], 0.5, rtol=1e-14)

    def test_logistic_ratio_4(self):
        ratios = KRatioMatrix.from_weights([4.0, 1.0])
        sigma = theoretical_sigma(LogisticP(2.0), ratios)
        assert_allclose(sigma[0, 1], 2.5 - np.sqrt(4.25), rtol=1e-14)
        assert_allclose(sigma[0, 1], 0.4384471871911697, rtol=1e-12)

    def test_equal_k_matches_general_exactly(self):
        for spec in (SupNorm(), LogisticP(1.0), LogisticP(2.0), LogisticP(5.5)):
            for d in (2, 3, 5):
                a = theoretical_sigma_equal_k(spec, d)
                b = theoretical_sigma(spec, KRatioMatrix.ones(d))
                assert np.array_equal(a, b)

    def test_nonnegative_and_bounded_sweep(self):
        # 1000 random (norm, ratio) pairs: 0 <= sigma_ij <= min(k_ij, k_ji) <= 1
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = float(rng.uniform(1.0, 8.0))
            spec = SupNorm() if rng.random() < 0.2 else LogisticP(p)
            d = int(rng.integers(2, 5))
            ratios = KRatioMatrix.from_weights(rng.uniform(0.25, 4.0, size=d))
            sigma = theoretical_sigma(spec, ratios)
            for i in range(d):
                for j in range(i + 1, d):
                    cap = min(ratios.entries[i, j], ratios.entries[j, i])
                    assert sigma[i, j] >= -1e-12
                    assert sigma[i, j] <= cap + 1e-12
                    assert cap <= 1.0 + 1e-12

    def test_generator_based_sigma_close_to_analytic(self):
        # sigma_01 = 2 - ||(1, 1)||_D, its norm within R's band at m = 10^5
        spec = GeneratorBased(FrechetLogistic(2, 2.0), 10**5)
        sigma = theoretical_sigma(spec, KRatioMatrix.ones(2), seed=5)
        low, high = FRECHET2_BANDS[10**5]
        assert low <= frechet2_error(2.0 - sigma[0, 1], [1.0, 1.0]) <= high

    def test_dimension_mismatch_rejected(self):
        spec = GeneratorBased(FrechetLogistic(3, 2.0), 100)
        with pytest.raises(ValueError):
            theoretical_sigma(spec, KRatioMatrix.ones(2))
        with pytest.raises(ValueError):
            theoretical_sigma_equal_k(spec, 2)


def per_pair_sigma(dnorm: DNormSpec, ratios: KRatioMatrix, seed: Optional[int] = None) -> np.ndarray:
    """Closed-form limit covariance for the given tail norm and rank ratios."""
    # theoretical_sigma as it was when it evaluated the norm once per pair
    d = ratios.d
    dim = spec_dimension(dnorm)
    if dim is not None and dim != d:
        raise ValueError(f"norm dimension {dim} does not match ratio dimension {d}")
    sigma = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            kij = ratios.entries[i, j]
            kji = ratios.entries[j, i]
            x = np.zeros(d)
            x[i] = kij
            x[j] = kji
            val = kij + kji - dnorm_eval(dnorm, x, seed)
            sigma[i, j] = sigma[j, i] = val
    return sigma


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize(
    "norm",
    ["sup", 1.0, 1.5, 2.0, 3.0, 64.0, "frechet", "random_index"],
    ids=lambda n: n if isinstance(n, str) else f"logistic-{n}",
)
def test_sigma_in_one_call_equals_the_per_pair_loop(norm, d):
    if norm == "sup":
        spec = SupNorm()
    elif norm == "frechet":
        spec = GeneratorBased(FrechetLogistic(d, 3.0), 3000)
    elif norm == "random_index":
        spec = GeneratorBased(RandomIndex(d), 3000)
    else:
        spec = LogisticP(norm)
    weights = np.random.default_rng(d).uniform(0.25, 4.0, size=d)
    for ratios in (KRatioMatrix.from_weights(weights), KRatioMatrix.ones(d)):
        for seed in (None, 9):
            assert np.array_equal(theoretical_sigma(spec, ratios, seed), per_pair_sigma(spec, ratios, seed))


@settings(max_examples=40, deadline=None)
@given(
    w=st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=2, max_size=4),
    p=st.floats(min_value=1.0, max_value=10.0),
)
def test_sigma_symmetric_psd_band(w, p):
    ratios = KRatioMatrix.from_weights(w)
    sigma = theoretical_sigma(LogisticP(p), ratios)
    assert np.array_equal(sigma, sigma.T)
    assert np.all(np.diag(sigma) == 1.0)
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-9

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mvos.dnorm as dnorm
from mvos.dnorm import (
    ConstantOne,
    FrechetLogistic,
    GeneratorBased,
    Generator,
    LogisticP,
    RandomIndex,
    SupNorm,
    dnorm_eval,
    dnorm_validate,
    evd_eval,
    is_positive_semidefinite,
    lambda_matrix,
    mc_eval,
)
from mvos.wire import from_json, to_json

from exact_laws import FRECHET2_BANDS, FRECHET2_MEDIAN, frechet2_error


class TestEval:
    def test_logistic_euclidean(self):
        assert dnorm_eval(LogisticP(2), [3.0, 4.0]) == 5.0

    def test_sup_unit_pair(self):
        assert dnorm_eval(SupNorm(), [1.0, 1.0]) == 1.0
        assert dnorm_eval(SupNorm(), [0.0, 1.0, 0.0]) == 1.0

    def test_constant_generator_is_exact(self):
        # degenerate Z = 1 makes the Monte Carlo average the sup-norm, exactly
        spec = GeneratorBased(ConstantOne(2), 10**5)
        assert dnorm_eval(spec, [2.0, 3.0]) == 3.0

    def test_frechet_generator_matches_logistic(self):
        # within R's band at m = 10^6 (exact_laws), not a standard error band
        spec = GeneratorBased(FrechetLogistic(2, 2.0), 10**6)
        mean, _ = mc_eval(spec, [1.0, 1.0], seed=3)
        low, high = FRECHET2_BANDS[10**6]
        assert low <= frechet2_error(mean, [1.0, 1.0]) <= high

    def test_random_index_is_one_norm(self):
        spec = GeneratorBased(RandomIndex(3), 2 * 10**5)
        mean, se = mc_eval(spec, [1.0, 2.0, 3.0], seed=1)
        assert abs(mean - 6.0) <= 4.0 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dnorm_eval(GeneratorBased(ConstantOne(2), 100), [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dnorm_eval(LogisticP(2), [1.0, np.inf])
        with pytest.raises(ValueError):
            dnorm_eval(SupNorm(), [np.nan])

    def test_generator_eval_deterministic(self):
        spec = GeneratorBased(FrechetLogistic(2, 2.0), 10**4)
        a = dnorm_eval(spec, [1.0, 2.0], seed=42)
        b = dnorm_eval(spec, [1.0, 2.0], seed=42)
        assert a == b

    def test_logistic_requires_p_ge_1(self):
        with pytest.raises(ValueError):
            LogisticP(0.5)

    def test_frechet_rejects_p_le_1(self):
        with pytest.raises(ValueError):
            FrechetLogistic(2, 1.0)

    def test_logistic_large_p_approaches_sup(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(20):
                x = rng.uniform(-2, 2, size=d)
                lp = dnorm_eval(LogisticP(64), x)
                sup = dnorm_eval(SupNorm(), x)
                assert abs(lp - sup) <= 0.02 * sup


class TestEvd:
    def test_independence_pair(self):
        assert_allclose(evd_eval(LogisticP(1), [-1.0, -1.0]), np.exp(-2.0), rtol=1e-15)

    def test_zero_vector(self):
        assert evd_eval(SupNorm(), [0.0, 0.0]) == 1.0

    def test_matches_norm_then_exp(self):
        x = [-3.0, -4.0]
        assert_allclose(evd_eval(LogisticP(2), x), np.exp(-dnorm_eval(LogisticP(2), x)), rtol=1e-15)
        assert_allclose(evd_eval(LogisticP(2), x), np.exp(-5.0), rtol=1e-15)

    def test_rejects_positive_component(self):
        with pytest.raises(ValueError):
            evd_eval(SupNorm(), [-1.0, 0.5])


class TestValidate:
    def test_analytic_logistic_perfect(self):
        report = dnorm_validate(LogisticP(1.5), trials=1000, seed=0)
        assert report.passed
        worst = max(c.worst_violation for c in report.checks)
        assert worst <= 1e-12

    def test_random_index_standardization(self):
        spec = GeneratorBased(RandomIndex(3), 10**5)
        mean, se = mc_eval(spec, [0.0, 1.0, 0.0], seed=7)
        assert abs(mean - 1.0) <= 4.0 * se

    def test_broken_generator_fails_standardization(self):
        class DoubledMean(Generator):
            d = 2

            def sample(self, size, rng):
                return np.full((size, 2), 2.0)  # E(Z) = 2, not 1

        report = dnorm_validate(GeneratorBased(DoubledMean(), 10**4), trials=20, seed=0)
        failed = {c.name for c in report.checks if not c.passed}
        assert "standardization" in failed

    @pytest.mark.parametrize(
        "spec",
        [
            SupNorm(),
            LogisticP(1.0),
            LogisticP(2.0),
            LogisticP(64.0),
            GeneratorBased(ConstantOne(3), 10**4),
            GeneratorBased(RandomIndex(3), 10**4),
            GeneratorBased(FrechetLogistic(2, 2.0), 2 * 10**4),
            GeneratorBased(FrechetLogistic(3, 2.5), 2 * 10**4),
        ],
        ids=lambda s: s.label(),
    )
    def test_builtin_specs_pass(self, spec):
        assert dnorm_validate(spec, trials=80, seed=1).passed

    def test_envelope_for_generator_specs(self):
        # sup-norm <= value <= 1-norm within R's band at m = 10^5
        rng = np.random.default_rng(3)
        spec = GeneratorBased(FrechetLogistic(3, 2.0), 10**5)
        low, high = FRECHET2_BANDS[10**5]
        for t in range(10):
            x = rng.uniform(-2, 2, size=3)
            mean, _ = mc_eval(spec, x, seed=t)
            l2 = np.linalg.norm(x)
            assert np.abs(x).max() + low * l2 <= mean <= np.abs(x).sum() + high * l2

    def test_frechet_generator_tracks_logistic_on_100_vectors(self):
        # the 100 relative errors against R's law at m = 2·10^4: at most one
        # outside its band (chance 7.5e-4 for a correct program) and between
        # 33 and 67 at or below its median (4.1e-4)
        rng = np.random.default_rng(9)
        spec = GeneratorBased(FrechetLogistic(2, 2.0), 2 * 10**4)
        analytic = LogisticP(2.0)
        errors = np.empty(100)
        for t in range(100):
            x = rng.uniform(-3, 3, size=2)
            errors[t] = mc_eval(spec, x, seed=t)[0] / dnorm_eval(analytic, x) - 1.0
        low, high = FRECHET2_BANDS[2 * 10**4]
        assert np.count_nonzero((errors < low) | (errors > high)) <= 1
        assert 33 <= np.count_nonzero(errors <= FRECHET2_MEDIAN) <= 67


class SharedSign(Generator):
    """Z = (3, 3) or (-1, -1), each with chance 1/2: unit means, but
    negative components.  A unit vector's value is the mean of max(Z_i, 0)
    = 3/2, while x's is 3/2 max|x_i| - 1/2 min|x_i|, below the envelope's
    lower end max|x_i| * 3/2."""

    d = 2

    def sample(self, size, rng):
        up = rng.integers(0, 2, size=size).astype(bool)
        return np.where(up[:, None], [3.0, 3.0], [-1.0, -1.0])

    def label(self):
        return "shared_sign"


SHIPPED_GENERATORS = [ConstantOne(3), RandomIndex(3), FrechetLogistic(3, 2.0)]
EXACT_CHECKS = ("homogeneity", "triangle", "monotonicity", "bounds")


class TestStack:
    @pytest.mark.parametrize("gen", SHIPPED_GENERATORS, ids=lambda g: g.label())
    def test_stack_matches_per_point_bits_across_chunks(self, gen, monkeypatch):
        # chunks of 7 draws, so 50 draws take 8 chunks, the last one short
        monkeypatch.setattr(dnorm, "MC_CHUNK_ELEMENTS", 7 * gen.d)
        spec = GeneratorBased(gen, 50)
        stack = np.random.default_rng(4).uniform(-2.0, 2.0, size=(5, gen.d))
        means, stderrs = mc_eval(spec, stack, seed=6)
        alone = [mc_eval(spec, x, seed=6) for x in stack]
        assert np.array_equal(means, [m for m, _ in alone])
        assert np.array_equal(stderrs, [se for _, se in alone])
        assert np.array_equal(dnorm_eval(spec, stack, seed=6), means)

    @pytest.mark.parametrize("spec", [SupNorm()] + [LogisticP(p) for p in (1.0, 1.5, 2.0, 3.0, 64.0)],
                             ids=lambda s: s.label())
    def test_analytic_stack_matches_per_point_bits(self, spec):
        stack = np.random.default_rng(8).uniform(-3.0, 3.0, size=(6, 4))
        assert np.array_equal(dnorm_eval(spec, stack), [dnorm_eval(spec, x) for x in stack])

    def test_one_point_gives_floats_and_a_stack_gives_arrays(self):
        spec = GeneratorBased(RandomIndex(2), 100)
        assert isinstance(dnorm_eval(spec, [1.0, 2.0]), float)
        assert all(isinstance(v, float) for v in mc_eval(spec, [1.0, 2.0]))
        assert dnorm_eval(SupNorm(), [[1.0, 2.0]]).shape == (1,)
        assert mc_eval(spec, [[1.0, 2.0], [3.0, 4.0]])[1].shape == (2,)

    def test_stack_rejects_bad_shapes(self):
        for x in ([], [[]], np.ones((2, 2, 2)), [[1.0, np.nan]]):
            with pytest.raises(ValueError):
                dnorm_eval(SupNorm(), x)
        with pytest.raises(ValueError):
            mc_eval(GeneratorBased(ConstantOne(2), 10), np.ones((3, 3)))


class TestExactChecks:
    @pytest.mark.parametrize("gen", SHIPPED_GENERATORS, ids=lambda g: g.label())
    def test_shipped_generators_pass_the_exact_checks(self, gen):
        # these hold for any sample of a nonnegative generator, at rounding tolerance
        report = dnorm_validate(GeneratorBased(gen, 500), trials=60, seed=2)
        for check in report.checks:
            if check.name in EXACT_CHECKS:
                assert check.passed and check.tolerance == dnorm._FP_TOL, check

    def test_negative_component_fails_the_envelope(self):
        report = dnorm_validate(GeneratorBased(SharedSign(), 500), trials=20, seed=0)
        bounds = next(c for c in report.checks if c.name == "bounds")
        assert not bounds.passed and bounds.tolerance == dnorm._FP_TOL

    @pytest.mark.parametrize("spec", [LogisticP(2.0), GeneratorBased(FrechetLogistic(2, 2.0), 30)],
                             ids=lambda s: s.label())
    def test_one_evaluation_call_per_trial_plus_standardization(self, spec, monkeypatch):
        # a generator spec calls mc_eval directly for standardization and
        # through dnorm_eval for each trial; an analytic one only dnorm_eval
        name = "mc_eval" if isinstance(spec, GeneratorBased) else "dnorm_eval"
        original, shapes = getattr(dnorm, name), []

        def spy(spec, x, seed=None):
            shapes.append(np.shape(x))
            return original(spec, x, seed)

        monkeypatch.setattr(dnorm, name, spy)
        dnorm_validate(spec, trials=7, seed=3)
        d = dnorm.spec_dimension(spec) or 3
        assert shapes == [(d, d)] + [(5 + d, d)] * 7

    def test_seeds_share_no_evaluation_stream(self, monkeypatch):
        # 7921 trials: per-trial seeds t + 7919 * seed would put seed 0's
        # trial 7919 on the stream of seed 1's trial 0
        original, keys = dnorm.stream_rng, {0: set(), 1: set()}

        def spy(master_seed, *key):
            keys[run].add((master_seed, *key))
            return original(master_seed, *key)

        monkeypatch.setattr(dnorm, "stream_rng", spy)
        spec = GeneratorBased(ConstantOne(2), 1)
        for run in keys:
            dnorm_validate(spec, trials=7921, seed=run)
        assert not keys[0] & keys[1]
        assert len(keys[0]) == len(keys[1]) == 7921 + 2  # the vectors', standardization's and each trial's


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=16.0),
    x=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=5),
    y=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=5),
    c=st.floats(min_value=-4, max_value=4),
)
def test_logistic_norm_axioms(p, x, y, c):
    d = min(len(x), len(y))
    x, y = np.asarray(x[:d]), np.asarray(y[:d])
    spec = LogisticP(p)
    nx, ny = dnorm_eval(spec, x), dnorm_eval(spec, y)
    assert dnorm_eval(spec, x + y) <= nx + ny + 1e-9
    assert abs(dnorm_eval(spec, c * x) - abs(c) * nx) <= 1e-9 * max(1.0, nx)
    assert np.abs(x).max() - 1e-12 <= nx <= np.abs(x).sum() + 1e-12


class TestLambdaMatrix:
    def test_zero_off_diagonal(self):
        sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert_allclose(lambda_matrix(sigma), sigma)

    def test_root_of_logistic_entry(self):
        v = 2.0 - np.sqrt(2.0)
        sigma = np.array([[1.0, v], [v, 1.0]])
        lam = lambda_matrix(sigma)
        assert_allclose(lam[0, 1], 0.7653668647301795, rtol=1e-12)
        assert_allclose(np.diag(lam), 1.0)

    def test_square_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = rng.uniform(0.0, 1.0)
            sigma = np.array([[1.0, v], [v, 1.0]])
            assert_allclose(lambda_matrix(sigma) ** 2, sigma, rtol=1e-14)

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            lambda_matrix(np.array([[1.0, -0.1], [-0.1, 1.0]]))


class TestPSD:
    # the 3x3 pattern rows (1,0,a | 0,1,a | a,a,1): eigenvalues 1, 1 +/- a sqrt(2)
    @staticmethod
    def pattern(a):
        return np.array([[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]])

    def test_accepts_a_3_pow_minus_half(self):
        ok, eig = is_positive_semidefinite(self.pattern(3 ** -0.5))
        assert ok and eig > 0

    def test_rejects_a_3_pow_minus_quarter(self):
        ok, eig = is_positive_semidefinite(self.pattern(3 ** -0.25))
        assert not ok
        assert_allclose(eig, 1.0 - np.sqrt(2.0) * 3 ** -0.25, rtol=1e-12)

    def test_identity(self):
        ok, eig = is_positive_semidefinite(np.eye(4))
        assert ok and abs(eig - 1.0) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_semidefinite(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_matches_principal_minor_rule(self):
        # brute-force PSD check on random symmetric 3x3 matrices
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = rng.uniform(-1, 1, size=(3, 3))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 1.0)
            ok, _ = is_positive_semidefinite(m, tol=1e-10)
            minors_ok = True
            for size in (1, 2, 3):
                for rows in _subsets(3, size):
                    sub = m[np.ix_(rows, rows)]
                    if np.linalg.det(sub) < -1e-10:
                        minors_ok = False
            assert ok == minors_ok


def _subsets(n, size):
    from itertools import combinations

    return list(combinations(range(n), size))


class TestJson:
    @pytest.mark.parametrize(
        "spec",
        [
            SupNorm(),
            LogisticP(2.5),
            GeneratorBased(FrechetLogistic(2, 2.0), 1000),
            GeneratorBased(RandomIndex(4), 500),
            GeneratorBased(ConstantOne(2), 10),
        ],
        ids=lambda s: s.label(),
    )
    def test_round_trip(self, spec):
        assert from_json("dnorm", to_json(spec)) == spec

    def test_example_wire_format(self):
        spec = from_json(
            "dnorm", {"kind": "generator", "gen": {"kind": "frechet", "p": 2}, "d": 2, "mc_samples": 1000000}
        )
        assert isinstance(spec, GeneratorBased)
        assert spec.gen == FrechetLogistic(2, 2.0)

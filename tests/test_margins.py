import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, optimize, stats

import mvos
from mvos.margins import (
    MarginalModel,
    Pareto,
    StandardExponential,
    StandardNormal,
    Triangular,
    make_k_rule,
    marginal_eval,
    marginal_quantile,
    norming_constants,
    quantile_transform,
    smirnov_check,
    smirnov_quotient,
    von_mises_check,
)
from mvos.wire import from_json

ALL_MARGINS = [StandardNormal(), StandardExponential(), Pareto(1.0), Triangular()]


class TestClosedForms:
    def test_exponential_cdf_quantile(self):
        m = StandardExponential()
        F, f = marginal_eval(m, 1.0)
        assert_allclose(F, 1.0 - math.exp(-1.0), rtol=1e-15)
        assert_allclose(marginal_quantile(m, 1.0 - math.exp(-1.0)), 1.0, rtol=1e-12)

    def test_pareto_median(self):
        assert marginal_quantile(Pareto(1.0), 0.5) == pytest.approx(2.0, rel=1e-14)
        assert marginal_quantile(Pareto(2.0), 0.75) == pytest.approx(2.0, rel=1e-14)

    def test_triangular_center(self):
        F, f = marginal_eval(Triangular(), 0.0)
        assert F == 0.5 and f == 1.0

    def test_density_query_above_endpoint_rejected(self):
        with pytest.raises(ValueError):
            marginal_eval(Triangular(), 1.5)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                marginal_quantile(StandardNormal(), bad)

    @pytest.mark.parametrize("model", ALL_MARGINS, ids=lambda m: m.label())
    def test_quantile_cdf_identity_12_digits(self, model):
        # x-ranges where the round trip is well-conditioned: resolving u near 1
        # costs eps / (1 - F), so keep 1 - F above ~1e-3
        grids = {
            "normal": np.linspace(-3.0, 3.0, 1000),
            "exponential": np.linspace(1e-3, 6.9, 1000),
            "pareto(alpha=1.0)": np.geomspace(1.001, 999.0, 1000),
            "triangular": np.linspace(-0.999, 0.955, 1000),
        }
        x = grids[model.label()]
        back = model.quantile(model.cdf(x))
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-3)) < 1e-12

    def test_normal_sf_equals_scipy_stats(self):
        # sf is ndtr(-x); it must agree with scipy.stats bit for bit
        model = StandardNormal()
        x = np.linspace(-40.0, 40.0, 16001)
        assert np.array_equal(model.sf(x), stats.norm.sf(x))
        assert np.array_equal(model.tail_integral(x), model.pdf(x) - x * stats.norm.sf(x))

    def test_package_import_leaves_out_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mvos.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, mvos; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("model", ALL_MARGINS, ids=lambda m: m.label())
    def test_sf_complements_cdf(self, model):
        hi = 0.99 if math.isfinite(model.upper_endpoint) else 8.0
        x = np.linspace(model.quantile(0.01), min(model.upper_endpoint, 1e6) if math.isfinite(model.upper_endpoint) else hi, 200)
        assert_allclose(model.sf(x), 1.0 - model.cdf(x), atol=1e-12)


class TestNormingConstants:
    def test_exponential(self):
        cons = norming_constants(StandardExponential(), 10**4, 100)
        assert_allclose(cons.b, math.log(100.0), rtol=1e-12)
        assert_allclose(cons.a, 0.1, rtol=1e-12)

    def test_pareto(self):
        cons = norming_constants(Pareto(1.0), 10**4, 100)
        assert_allclose(cons.b, 100.0, rtol=1e-12)
        assert_allclose(cons.a, 10.0, rtol=1e-12)

    def test_triangular_against_root_find_oracle(self):
        n, k = 10**4, 200
        tri = Triangular()
        b_oracle = optimize.brentq(lambda x: float(tri.cdf(x)) - (1.0 - k / n), -1.0, 1.0 - 1e-12)
        a_oracle = math.sqrt(k) / (n * float(tri.pdf(b_oracle)))
        cons = norming_constants(tri, n, k)
        assert_allclose(cons.b, b_oracle, atol=1e-10)
        assert_allclose(cons.a, a_oracle, rtol=1e-9)
        # closed forms: b = 1 - sqrt(2 k / n), a = 1 / sqrt(2 n)
        assert_allclose(cons.b, 1.0 - math.sqrt(2.0 * k / n), rtol=1e-12)
        assert_allclose(cons.a, 1.0 / math.sqrt(2.0 * n), rtol=1e-12)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            norming_constants(StandardExponential(), 100, 100)
        with pytest.raises(ValueError):
            norming_constants(StandardExponential(), 100, 0)


class TestSmirnov:
    def test_exponential_zero_is_centered(self):
        q, clipped = smirnov_quotient(StandardExponential(), 0.0, 10**6, 10**3)
        assert not clipped
        assert abs(q) < 1e-9

    def test_exponential_closed_form(self):
        # quotient = sqrt(k) (1 - exp(-x / sqrt(k)))
        n, k = 10**6, 10**3
        q, _ = smirnov_quotient(StandardExponential(), 1.0, n, k)
        oracle = math.sqrt(k) * (1.0 - math.exp(-1.0 / math.sqrt(k)))
        assert_allclose(q, oracle, rtol=1e-10)
        assert_allclose(q, 0.9843539690397435, rtol=1e-9)

    def test_pareto_closed_form(self):
        # quotient = sqrt(k) (1 - (1 + x / sqrt(k))^(-1)) for alpha = 1
        n, k = 10**6, 10**3
        q, _ = smirnov_quotient(Pareto(1.0), 1.0, n, k)
        oracle = math.sqrt(k) * (1.0 - 1.0 / (1.0 + 1.0 / math.sqrt(k)))
        assert_allclose(q, oracle, rtol=1e-10)
        assert_allclose(q, 0.9693465699682877, rtol=1e-9)

    @pytest.mark.parametrize("model", ALL_MARGINS, ids=lambda m: m.label())
    def test_monotone_improvement_along_n(self, model):
        rows = smirnov_check(model, [-2.0, -1.0, 1.0, 2.0], [10**4, 10**6, 10**8], "sqrt")
        errs = {}
        for r in rows:
            errs.setdefault(r.x, []).append(abs(r.quotient - r.x))
        for x, seq in errs.items():
            assert seq[-1] <= seq[0] + 1e-12, f"no improvement at x={x}: {seq}"

    @pytest.mark.parametrize("model", ALL_MARGINS, ids=lambda m: m.label())
    def test_error_follows_quadratic_law(self, model):
        # |quotient - x| is governed by c x^2 / sqrt(k) with a family constant
        # c <= 1 for these margins (1/4 triangular ... 1 for unit Pareto)
        rows = smirnov_check(model, [-2.0, -1.0, 0.0, 1.0, 2.0], [10**8], "sqrt")
        for r in rows:
            assert not r.clipped
            bound = 1.05 * r.x**2 / math.sqrt(r.k) + 1e-9
            assert abs(r.quotient - r.x) <= bound

    def test_equivalent_constants_leave_limit_unchanged(self):
        # replacing (a, b) by (a (1 + 1/sqrt(n)), b + a / sqrt(n)) moves the
        # quotient by O((|x|+1) / sqrt(n))
        for model in ALL_MARGINS:
            for n in (10**4, 10**8):
                k = int(math.isqrt(n))
                cons = norming_constants(model, n, k)
                c = cons.a * (1.0 + 1.0 / math.sqrt(n))
                d = cons.b + cons.a / math.sqrt(n)
                for x in (-2.0, 0.0, 2.0):
                    q0, _ = smirnov_quotient(model, x, n, k)
                    q1, _ = smirnov_quotient(model, x, n, k, scale=c, center=d)
                    assert abs(q1 - q0) <= 10.0 * (abs(x) + 1.0) / math.sqrt(n)

    def test_clipping_reported_not_raised(self):
        # far beyond the triangular endpoint the argument is clipped
        q, clipped = smirnov_quotient(Triangular(), 1e6, 10**4, 100)
        assert clipped
        assert q == pytest.approx(math.sqrt(100.0))

    def test_k_rules(self):
        assert make_k_rule("sqrt")(10**6) == 1000
        assert make_k_rule(0.25)(10**8) == 100
        assert make_k_rule(lambda n: 7)(123) == 7
        with pytest.raises(ValueError):
            make_k_rule(1.5)


class TestVonMises:
    def test_exponential_exact_one(self):
        result = von_mises_check(StandardExponential(), [0.5, 1.0, 2.0, 5.0, 20.0])
        assert result.condition == 1 and result.limit == 1.0
        assert all(q == 1.0 for _, q in result.rows)

    def test_pareto_exact_alpha(self):
        for alpha in (0.5, 1.0, 2.5):
            result = von_mises_check(Pareto(alpha), [1.5, 3.0, 10.0, 100.0])
            assert result.condition == 2 and result.limit == alpha
            for _, q in result.rows:
                assert q == pytest.approx(alpha, rel=5e-14)

    def test_triangular_limit_two(self):
        result = von_mises_check(Triangular(), [0.5, 0.9, 1.0 - 1e-6])
        assert result.condition == 3 and result.limit == 2.0
        assert result.rows[-1][1] == pytest.approx(2.0, abs=1e-6)

    def test_triangular_monotone_from_below(self):
        grid = 1.0 - np.geomspace(1.0, 1e-6, 10)[1:]
        result = von_mises_check(Triangular(), grid)
        qs = [q for _, q in result.rows]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert qs[-1] == pytest.approx(2.0, abs=1e-6)

    def test_normal_against_quadrature_oracle(self):
        normal = StandardNormal()
        result = von_mises_check(normal, [6.0])
        quotient = result.rows[0][1]

        def oracle(x):
            tail, err = integrate.quad(lambda t: float(normal.sf(t)), x, np.inf)
            assert err < 1e-10
            return float(normal.pdf(x)) * tail / float(normal.sf(x)) ** 2

        assert quotient == pytest.approx(oracle(6.0), abs=1e-6)
        assert abs(quotient - 1.0) < 0.05

    @pytest.mark.parametrize("model", ALL_MARGINS, ids=lambda m: m.label())
    def test_monotone_convergence_along_geometric_grid(self, model):
        if math.isfinite(model.upper_endpoint):
            grid = model.upper_endpoint - np.geomspace(0.5, 1e-7, 12)
        else:
            grid = np.geomspace(1.0, 32.0, 12)
        result = von_mises_check(model, grid)
        errs = [abs(q - result.limit) for _, q in result.rows]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_overflow_keeps_last_stable_point(self):
        # the normal survival function underflows near x = 39; later grid
        # points are dropped, earlier rows are kept
        result = von_mises_check(StandardNormal(), [5.0, 10.0, 40.0])
        assert [x for x, _ in result.rows] == [5.0, 10.0]
        with pytest.raises(ValueError):
            von_mises_check(StandardNormal(), [40.0, 41.0])  # nothing stable

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            von_mises_check(Triangular(), [0.9, 0.5])
        with pytest.raises(ValueError):
            von_mises_check(Triangular(), [0.5, 1.5])


class TestQuantileTransform:
    def test_exponential_half(self):
        out = quantile_transform([StandardExponential()], np.array([[0.5]]))
        assert_allclose(out[0, 0], math.log(2.0), rtol=1e-14)

    def test_identity_margin_returns_batch(self):
        class Uniform01(MarginalModel):
            name = "uniform01"
            upper_endpoint = 1.0
            von_mises_type = 3
            von_mises_alpha = 1.0

            def cdf(self, x):
                return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

            def sf(self, x):
                return 1.0 - self.cdf(x)

            def pdf(self, x):
                x = np.asarray(x, dtype=float)
                return ((x >= 0) & (x <= 1)).astype(float)

            def quantile(self, u):
                return np.asarray(u, dtype=float)

        rng = np.random.default_rng(8)
        batch = rng.random((50, 2))
        out = quantile_transform([Uniform01(), Uniform01()], batch)
        assert np.array_equal(out, batch)

    def test_pareto_three_quarters(self):
        out = quantile_transform([Pareto(2.0)], np.array([[0.75]]))
        assert_allclose(out[0, 0], 2.0, rtol=1e-14)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            quantile_transform([StandardExponential()], np.zeros((3, 2)))


class TestRegistry:
    def test_constants_are_not_constructor_parameters(self):
        with pytest.raises(TypeError):
            StandardNormal(upper_endpoint=0.5)
        with pytest.raises(TypeError):
            Pareto(2.0, von_mises_type=1)

    def test_names(self):
        assert from_json("margin", {"kind": "normal"}) == StandardNormal()
        assert from_json("margin", {"kind": "pareto", "alpha": 2.5}) == Pareto(2.5)
        with pytest.raises(ValueError):
            from_json("margin", {"kind": "cauchy"})

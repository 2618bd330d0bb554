import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvos.chi2rep import NotPositiveSemidefiniteError
from mvos.copula import Comonotone, GumbelLogistic, Independence, os_selector, sample_rows
from mvos.margins import Pareto, StandardExponential, StandardNormal, Triangular, quantile_transform
import mvos.copula as copula_module
import mvos.experiment as experiment
import mvos.orderstats as orderstats
from mvos.orderstats import IntermediateSpec, PowerKRule, componentwise_os
from mvos.streams import REPLICATION_ELEMENTS, stream_rng
from mvos.experiment import (
    ExperimentConfig,
    InvalidConfigError,
    TolerancePolicy,
    config_from_json,
    config_to_json,
    read_report_csv,
    report_csv_bytes,
    report_json_bytes,
    report_text,
    run_experiment,
    _collect_os,
    _ks_criteria,
)
from mvos.diagnostics import ks_against_standard_normal, ks_pvalue

from test_copula import _reference, _shares_sample_rows

GUMBEL_TARGET = 2.0 - math.sqrt(2.0)


@pytest.fixture(scope="module")
def small_copula_report():
    cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=4000, replications=1500,
                           seed=301, kind="copula", gate_ks=False)
    return run_experiment(cfg)


class TestConfig:
    def test_kind_inference(self):
        cfg = config_from_json({"copula": {"kind": "independence", "d": 2}, "n": 100,
                                "replications": 5, "seed": 1})
        assert cfg.kind == "copula"
        assert cfg.intermediate.convention == "n-k"
        cfg = config_from_json({"copula": {"kind": "independence", "d": 1},
                                "margins": [{"kind": "exponential"}],
                                "n": 100, "replications": 5, "seed": 1})
        assert cfg.kind == "general"
        assert cfg.intermediate.convention == "n-k+1"

    def test_round_trip(self):
        cfg = ExperimentConfig(
            copula=GumbelLogistic(2, 1.5),
            n=500,
            replications=10,
            seed=3,
            kind="general",
            margins=(Pareto(2.0), StandardNormal()),
            intermediate=IntermediateSpec((PowerKRule(2.0, 0.6), PowerKRule(1.0, 0.6)), "n-k+1"),
            tolerance=TolerancePolicy(0.02, 3.0),
            ks_level=1e-2,
        )
        again = config_from_json(config_to_json(cfg))
        assert config_to_json(again) == config_to_json(cfg)

    def test_margin_count_checked(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=Independence(2), n=100, replications=5, seed=1,
                             kind="general", margins=(StandardExponential(),))

    def test_margins_forbidden_outside_general(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=Independence(1), n=100, replications=5, seed=1,
                             kind="copula", margins=(StandardExponential(),))

    def test_empty_replications_rejected(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=Independence(2), n=100, replications=0, seed=1)

    def test_representation_rejects_shifted_convention(self):
        # the ratios model rank n - k; rank n - k + 1 would be compared with them silently
        with pytest.raises(InvalidConfigError, match="n-k convention"):
            ExperimentConfig(copula=Independence(2), n=2000, replications=5, seed=1, kind="representation",
                             intermediate=IntermediateSpec.equal(2, convention="n-k+1"))
        with pytest.raises(InvalidConfigError, match="n-k convention"):
            config_from_json({"kind": "representation", "copula": {"kind": "independence", "d": 2},
                              "intermediate": {"rules": [{"c": 1.0, "gamma": 0.5}] * 2, "convention": "n-k+1"},
                              "n": 2000, "replications": 5, "seed": 1})

    def test_out_of_band_k_rejected_upfront(self):
        inter = IntermediateSpec((PowerKRule(80.0, 0.9), PowerKRule(80.0, 0.9)))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=Independence(2), n=100, replications=5, seed=1,
                             intermediate=inter)

    def test_mixed_growth_exponents_rejected_upfront(self):
        inter = IntermediateSpec((PowerKRule(1.0, 0.5), PowerKRule(1.0, 0.6)))
        with pytest.raises(InvalidConfigError, match="mixed growth exponents"):
            ExperimentConfig(copula=Independence(2), n=1000, replications=5, seed=1,
                             intermediate=inter)

    def test_ratio_matrix_built_once_per_call(self, monkeypatch):
        # the config keeps the limit ratios it validated for the run
        built = []
        check = orderstats.KRatioMatrix.__post_init__
        monkeypatch.setattr(orderstats.KRatioMatrix, "__post_init__", lambda m: built.append(m) or check(m))
        obj = {"copula": {"kind": "independence", "d": 2},
               "margins": [{"kind": "normal"}, {"kind": "pareto", "alpha": 1.0}],
               "intermediate": {"rules": [{"c": 1.0, "gamma": 0.6}, {"c": 2.0, "gamma": 0.6}]},
               "n": 500, "replications": 20, "seed": 1}
        report = run_experiment(config_from_json(obj))
        assert report.kind == "general" and len(built) == 1

    def test_largest_sizes_accepted(self):
        # the bounds themselves: nothing of that size is allocated before a
        # run; k = 1e-6 sqrt(n), about 3000, keeps a replication's first draw
        # under its cap
        small = PowerKRule(1e-6, 0.5)
        ExperimentConfig(copula=Independence(2), n=2**63 - 1, replications=2**32, seed=1,
                         intermediate=IntermediateSpec((small,) * 2))
        ExperimentConfig(copula=GumbelLogistic(7, 2.0), n=2**62 - 1, replications=2**32, seed=1,
                         kind="representation", intermediate=IntermediateSpec((small,) * 7))

    @pytest.mark.parametrize("kind,n", [("copula", 2**63 - 1), ("representation", 2**62 - 1)])
    def test_largest_sizes_run(self, kind, n):
        # the ranks' depth n + 1 - rank is formed without n + 1, which int64 cannot hold
        cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=n, replications=3, seed=1, kind=kind,
                               intermediate=IntermediateSpec((PowerKRule(1e-6, 0.5),) * 2))
        assert run_experiment(cfg).kind == kind

    def test_first_draw_capped_at_every_sample_size(self):
        # two independent columns draw k + 1 spacings each: 2**24 values at
        # k = 2**23 - 1, the largest k = floor(sqrt(n)) the cap allows
        n = (2**23 - 1) ** 2
        assert os_selector(Independence(2), n, n - (2**23 - 1))[1] == REPLICATION_ELEMENTS == 2**24
        ExperimentConfig(copula=Independence(2), n=n, replications=5, seed=1)
        with pytest.raises(InvalidConfigError, match=f"n = {2 * n} would draw"):
            ExperimentConfig(copula=Independence(2), n=n, replications=5, seed=1, kind="representation")

    @pytest.mark.parametrize(
        "model,n,rule,width",
        [
            (GumbelLogistic(2, 3.0), 10**7, PowerKRule(0.6, 0.9), None),  # first batch past n / 8 + 64
            (GumbelLogistic(2, 2.0), 10**8, PowerKRule(400.0, 0.5), 4),
            (GumbelLogistic(3, 2.0), 10**8, PowerKRule(200.0, 0.5), 3 + 4),
            (GumbelLogistic(2, 3.0), 10**8, PowerKRule(150.0, 0.5), 2 + 11),
            (GumbelLogistic(2, 2.0), 400, PowerKRule(15.0, 0.5), 4),  # a first batch of all n rows
        ],
        ids=["marshall-olkin", "top-rows-p2-d2", "top-rows-p2-d3", "top-rows-p3", "top-rows-p2-all-n"],
    )
    def test_first_draw_of_every_stable_path(self, model, n, rule, width):
        # a Gumbel (p > 1) replication's first draw is its d n Marshall-Olkin
        # values, or the uniforms of its first batch of top rows, at most
        # n rows; validation compares that count with the cap and samples
        # nothing
        inter = IntermediateSpec((rule,) * model.d)
        ranks = inter.ranks(n)
        depth = n - int(ranks.min()) + 1
        assert copula_module._marshall_olkin_path(model, n, depth) == (width is None)
        elements = os_selector(model, n, ranks)[1]
        assert elements == (model.d * n if width is None else width * min(copula_module._first_batch(model, depth), n))
        config = dict(copula=model, n=n, replications=5, seed=1, intermediate=inter)
        if elements <= REPLICATION_ELEMENTS:
            ExperimentConfig(**config)
        else:
            with pytest.raises(InvalidConfigError, match=f"n = {n} would draw {elements} values at once"):
                ExperimentConfig(**config)

    @pytest.mark.parametrize("abs_tol,z", [(-0.01, 4.0), (0.05, -1.0), (math.inf, 4.0), (0.05, math.nan)])
    def test_tolerance_must_be_finite_and_nonnegative(self, abs_tol, z):
        assert TolerancePolicy(0.0, 0.0).bound(1.0) == 0.0
        with pytest.raises(InvalidConfigError, match="tolerance"):
            TolerancePolicy(abs_tol, z)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=Independence(2), n=100, replications=5, seed=-1)

    @pytest.mark.parametrize(
        "kind,lam",
        [
            ("representation", np.eye(2)),
            ("representation", [[1.0, 0.5, 0.5], [0.5, 1.0], [0.5, 0.5, 1.0]]),
            ("representation", np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])),
            ("representation", np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])),
            ("representation", np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]])),
            ("copula", np.eye(3)),
        ],
        ids=["2x2-for-d3", "ragged", "asymmetric", "diagonal", "nan", "copula-kind"],
    )
    def test_lambda_override_checked_upfront(self, kind, lam):
        with pytest.raises(InvalidConfigError, match="lambda_override"):
            ExperimentConfig(copula=GumbelLogistic(3, 2.0), n=200, replications=5, seed=1,
                             kind=kind, lambda_override=lam)

    def test_seed_override_flagged(self):
        obj = {"copula": {"kind": "independence", "d": 2}, "n": 100, "replications": 5, "seed": 1}
        cfg = config_from_json(obj, seed_override=99)
        assert cfg.seed == 99 and cfg.seed_overridden
        assert config_to_json(cfg)["seed_overridden"] is True


class TestSelectionOnLatentDraw:
    N = 700
    MARGINS = (StandardNormal(), Pareto(1.0), Triangular(), StandardExponential(), StandardNormal())
    # unequal k rules; the last gives k = n - 1, so rank 1 under "n-k" (rank 2
    # under "n-k+1"), which the selector reaches only by drawing every row
    RULES = (PowerKRule(1.0, 0.6), PowerKRule(2.0, 0.6), PowerKRule(0.5, 0.6),
             PowerKRule(1.0, 0.6), PowerKRule((N - 0.5) / N**0.6, 0.6))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("kind", ["copula", "general"])
    @pytest.mark.parametrize(
        "copula",
        [Independence(4), Comonotone(4), GumbelLogistic(4, 1.0), GumbelLogistic(4, 2.0),
         GumbelLogistic(1, 1.5), GumbelLogistic(5, 1.5), GumbelLogistic(5, 64.0)],
        ids=lambda m: m.label(),
    )
    def test_equals_map_then_select(self, copula, kind, threads):
        # selecting on the top rows and mapping the R x d winners must
        # reproduce sample_rows -> quantile_transform -> componentwise_os
        n, reps, seed = self.N, 12, 17
        general = kind == "general"
        cfg = ExperimentConfig(
            copula=copula, n=n, replications=reps, seed=seed, kind=kind,
            margins=self.MARGINS[:copula.d] if general else None,
            intermediate=IntermediateSpec(self.RULES[:copula.d], "n-k+1" if general else "n-k"),
        )
        if copula.d == 5:
            assert min(cfg.intermediate.ranks(n)) == (2 if general else 1)
        got, ks = _collect_os(cfg, n, seed, threads)
        ranks = cfg.intermediate.ranks(n)
        if _shares_sample_rows(copula, n, ranks):
            want = np.empty((reps, copula.d))
            for rep in range(reps):
                rows = sample_rows(copula, n, stream_rng(seed, rep))
                if general:
                    rows = quantile_transform(cfg.margins, rows)
                want[rep] = componentwise_os(rows, ranks)
        else:  # Gumbel top rows at p != 2 draw rows of their own
            want = _reference(copula, n, ranks, seed, reps)
            if general:
                want = quantile_transform(cfg.margins, want)
        assert np.array_equal(got, want)
        assert np.array_equal(ks, cfg.intermediate.k_vector(n))


class TestCopulaExperiment:
    def test_small_run_matches_target_loosely(self, small_copula_report):
        rep = small_copula_report
        assert abs(rep.empirical_cov[0, 1] - GUMBEL_TARGET) <= max(0.05, 4 * rep.cov_stderr[0, 1])
        for i in range(2):
            assert abs(rep.empirical_cov[i, i] - 1.0) <= max(0.05, 4 * rep.cov_stderr[i, i])

    def test_report_shape(self, small_copula_report):
        rep = small_copula_report
        assert rep.kind == "copula"
        assert rep.empirical_cov.shape == (2, 2)
        assert np.array_equal(rep.empirical_cov, rep.empirical_cov.T)
        names = {c.name for c in rep.criteria}
        assert {"sigma[0,0]", "sigma[0,1]", "sigma[1,1]", "ks[0]", "ks[1]"} <= names

    def test_deterministic_across_workers(self):
        cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=1000, replications=200,
                               seed=302, kind="copula")
        blobs = {report_json_bytes(run_experiment(cfg, threads=t)) for t in (1, 2, 5)}
        assert len(blobs) == 1

    @pytest.mark.parametrize("kind", ["copula", "representation"])
    @pytest.mark.parametrize("threads", [0, -5, 65])
    def test_threads_out_of_range_rejected_before_sigma(self, kind, threads, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("Sigma or sampling started before the refusal")

        monkeypatch.setattr(experiment, "theoretical_sigma", never)
        monkeypatch.setattr(experiment, "replicate", never)
        cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=200, replications=20, seed=303, kind=kind)
        with pytest.raises(InvalidConfigError, match="at least 1 and at most 64 threads"):
            run_experiment(cfg, threads=threads)

    def test_convention_shift_below_stderr(self):
        # moving from rank n-k to n-k+1 changes each standardized component by
        # about one scaled spacing (~1/sqrt(k)) and the covariance by O(1/k)
        base = dict(copula=GumbelLogistic(2, 2.0), n=5000, replications=800,
                    seed=55, kind="copula", gate_ks=False)
        r1 = run_experiment(ExperimentConfig(
            intermediate=IntermediateSpec.equal(2, convention="n-k"), **base))
        r2 = run_experiment(ExperimentConfig(
            intermediate=IntermediateSpec.equal(2, convention="n-k+1"), **base))
        k = 70
        assert np.all(np.abs(r1.mean - r2.mean) <= 2.0 / math.sqrt(k))
        assert abs(r1.empirical_cov[0, 1] - r2.empirical_cov[0, 1]) < r1.cov_stderr[0, 1]

    def test_monotone_convergence_in_n(self):
        # the covariance error does not grow when n grows 64-fold, from 64 to
        # 4096 (k = 8 to 64).  Measured biases -0.060 and -0.003, each
        # estimate's sd 0.008 at R = 20000: a false alarm has probability
        # below 1e-5, and the test fails with probability 0.9 if the error at
        # 4096 exceeds the one at 64 by 0.015
        errs = {}
        for nn in (64, 4096):
            cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=nn, replications=20000,
                                   seed=7000, kind="copula", gate_ks=False)
            errs[nn] = abs(run_experiment(cfg).empirical_cov[0, 1] - GUMBEL_TARGET)
        assert errs[64] >= errs[4096]

    def test_marginal_normality_ks_copula_scale(self):
        # a column's exact law is U_(n-k+1) ~ Beta(n - k + 1, k), centred
        # within sqrt(k) / (n + 1) of the copula-scale centering and skewed
        # by -2 / sqrt(k); at n = 10^7 and k = 10^4 the exact chance that
        # either column's KS statistic reaches the critical value at level
        # 1e-3 and R = 5000 is 2.35e-3 (1.96e-3 for two exactly normal
        # columns), and a location error of 0.1 or a scale error of 10%
        # fails the test with probability 1.00 or 0.90
        inter = IntermediateSpec.equal(2, c=3.1623, gamma=0.5, convention="n-k+1")
        cfg = ExperimentConfig(copula=Independence(2), n=10**7, replications=5000, seed=306,
                               kind="copula", intermediate=inter)
        assert list(inter.k_vector(cfg.n)) == [10**4] * 2 and cfg.ks_level == 1e-3
        rep = run_experiment(cfg)
        assert all(s < rep.ks_critical for s in rep.ks_stats)
        assert abs(rep.empirical_cov[0, 1]) <= max(0.05, 4 * rep.cov_stderr[0, 1])

    def test_trivariate_pipeline(self):
        # d = 3 end to end: compound-symmetric target, symmetric estimate
        cfg = ExperimentConfig(copula=GumbelLogistic(3, 2.0), n=3000, replications=1200,
                               seed=317, kind="copula", gate_ks=False)
        rep = run_experiment(cfg)
        assert rep.theoretical_sigma.shape == (3, 3)
        off = rep.theoretical_sigma[np.triu_indices(3, 1)]
        assert np.allclose(off, GUMBEL_TARGET)
        for i in range(3):
            for j in range(i, 3):
                target = 1.0 if i == j else GUMBEL_TARGET
                tol = max(0.05, 4 * rep.cov_stderr[i, j])
                assert abs(rep.empirical_cov[i, j] - target) <= tol


def test_ks_on_all_columns_equals_each_column():
    # one sort and one ndtr call for the matrix give each column's bits:
    # scales that reach every erfc branch, ties, and a column of one value
    rng = np.random.default_rng(5)
    values = rng.standard_normal((501, 5)) * np.array([1.0, 3.0, 12.0, 0.1, 0.0])
    values[::7, 1] = values[0, 1]
    results, stats, pvals, crit = _ks_criteria(values, 0.01, True)
    for i in range(values.shape[1]):
        want = ks_against_standard_normal(values[:, i])
        assert stats[i] == want and results[i].observed == want
        assert pvals[i] == ks_pvalue(want, len(values))


class TestGeneralExperiment:
    def test_comonotone_normal_margins_full_dependence(self):
        cfg = ExperimentConfig(copula=Comonotone(2), n=2000, replications=600, seed=303,
                               kind="general", margins=(StandardNormal(), StandardNormal()),
                               gate_ks=False)
        rep = run_experiment(cfg)
        assert_allclose(rep.theoretical_sigma, np.ones((2, 2)))
        assert abs(rep.empirical_cov[0, 1] - 1.0) <= max(0.05, 4 * rep.cov_stderr[0, 1])

    def test_mixed_margins_independence(self):
        cfg = ExperimentConfig(copula=Independence(2), n=2000, replications=800, seed=304,
                               kind="general", margins=(Pareto(1.0), StandardExponential()),
                               gate_ks=False)
        rep = run_experiment(cfg)
        assert_allclose(rep.theoretical_sigma, np.eye(2))
        assert abs(rep.empirical_cov[0, 1]) <= max(0.05, 4 * rep.cov_stderr[0, 1])

    def test_marginal_normality_ks_at_scale(self):
        # a column's exact law: U_(n-k+1) ~ Beta(n - k + 1, k), mapped by the
        # exponential quantile and its norming constants b = log(n / k) and
        # a = 1 / sqrt(k), with a mean of about 1 / (2 sqrt(k)) and a
        # skewness of about 1 / sqrt(k); at n = 10^8 and k = 2·10^4 the exact
        # chance that either column's KS statistic reaches the critical value
        # at level 1e-3 and R = 5000 is 2.21e-3 (1.96e-3 for two exactly
        # normal columns), and a location error of 0.1 or a scale error of
        # 10% fails the test with probability 1.00 or 0.91
        inter = IntermediateSpec.equal(2, c=2.0, gamma=0.5, convention="n-k+1")
        cfg = ExperimentConfig(copula=Independence(2), n=10**8, replications=5000, seed=305,
                               kind="general", margins=(StandardExponential(), StandardExponential()),
                               intermediate=inter)
        assert list(inter.k_vector(cfg.n)) == [2 * 10**4] * 2 and cfg.ks_level == 1e-3
        rep = run_experiment(cfg)
        assert all(s < rep.ks_critical for s in rep.ks_stats)
        assert rep.passed


class TestRepresentationExperiment:
    def test_small_run_reports_two_scales(self):
        cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=400, replications=300,
                               seed=306, kind="representation")
        rep = run_experiment(cfg)
        assert set(rep.distances) == {"n", "2n"}
        assert rep.distances["2n"]["n"] == 800
        assert rep.lambda_used[0, 1] == pytest.approx(math.sqrt(GUMBEL_TARGET))
        assert rep.lambda_min_eigenvalue > 0

    def test_independence_distance_below_dkw_band(self):
        # under independence the ratio construction has exactly the law of the
        # order-statistic vector, so the grid distance is pure noise and sits
        # inside the DKW-style band at both scales
        r = 1500
        cfg = ExperimentConfig(copula=Independence(2), n=20000, replications=r,
                               seed=318, kind="representation")
        rep = run_experiment(cfg)
        band = 4.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * r))
        assert rep.distances["n"]["distance"] <= band
        assert rep.distances["2n"]["distance"] <= band

    def test_lambda_override_refusal_names_eigenvalue(self, monkeypatch):
        a = 3 ** -0.25
        bad = np.array([[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]])
        cfg = ExperimentConfig(copula=GumbelLogistic(3, 2.0), n=200, replications=50,
                               seed=307, kind="representation", lambda_override=bad)

        def never(*args, **kwargs):
            raise AssertionError("sampling started before the refusal")

        monkeypatch.setattr(experiment, "replicate", never)  # the refusal comes before any sampling
        with pytest.raises(NotPositiveSemidefiniteError) as err:
            run_experiment(cfg)
        assert err.value.min_eigenvalue == pytest.approx(1.0 - math.sqrt(2.0) * a, rel=1e-9)

    def test_unequal_rules_rejected(self):
        inter = IntermediateSpec((PowerKRule(4.0, 0.5), PowerKRule(1.0, 0.5)))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=400, replications=50,
                             seed=308, kind="representation", intermediate=inter)


class TestEmission:
    def test_json_byte_identical_on_rerun(self):
        cfg = ExperimentConfig(copula=Independence(2), n=500, replications=100, seed=309, kind="copula")
        first = report_json_bytes(run_experiment(cfg))
        assert report_json_bytes(run_experiment(cfg)) == first
        parsed = json.loads(first)
        assert parsed["kind"] == "copula"
        assert "runtime" not in json.dumps(parsed)

    def test_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=500, replications=100,
                               seed=310, kind="copula")
        rep = run_experiment(cfg)
        path = tmp_path / "r.csv"
        path.write_bytes(report_csv_bytes(rep))
        tables = read_report_csv(str(path))
        assert np.array_equal(tables["theoretical_sigma"], rep.theoretical_sigma)
        assert np.array_equal(tables["empirical_cov"], rep.empirical_cov)
        assert np.array_equal(tables["mean"], rep.mean)

    def test_text_summary_lists_criteria(self):
        cfg = ExperimentConfig(copula=Independence(2), n=500, replications=100, seed=311, kind="copula")
        text = report_text(run_experiment(cfg))
        assert "sigma[0,1]" in text and "overall" in text

    def test_runner_dispatch(self):
        cfg = ExperimentConfig(copula=Independence(2), n=200, replications=20, seed=313, kind="copula")
        assert run_experiment(cfg).kind == "copula"

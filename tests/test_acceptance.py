"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s -v``).

Covariance criteria use the two-sided guard |observed - target| <=
max(0.05, 4 * stderr).  Every run is seeded, so outcomes are exactly
reproducible.
"""
import math

import numpy as np
import pytest
from scipy import stats

from mvos.chi2rep import NotPositiveSemidefiniteError, correlated_ratio_sample
from mvos.copula import GumbelLogistic, Independence
from mvos.dnorm import (
    ConstantOne,
    FrechetLogistic,
    GeneratorBased,
    LogisticP,
    RandomIndex,
    SupNorm,
    dnorm_validate,
    is_positive_semidefinite,
    lambda_matrix,
    mc_eval,
)
from mvos.margins import (
    Pareto,
    StandardExponential,
    StandardNormal,
    Triangular,
    smirnov_check,
    von_mises_check,
)
from mvos.orderstats import IntermediateSpec, PowerKRule, theoretical_sigma_equal_k
from mvos.experiment import (
    ExperimentConfig,
    _collect_os,
    report_json_bytes,
    run_experiment,
)
from mvos.streams import derive_seed

from exact_laws import FRECHET2_BANDS, beta_quantile_grid, ecdf_on_grid, frechet2_error, os_joint_cdf, ratio_joint_cdf

GUMBEL_SIGMA = 2.0 - math.sqrt(2.0)          # 0.585786...
UNEQUAL_SIGMA = 2.5 - math.sqrt(4.25)        # 0.438447...


def _status(ok):
    return "PASS" if ok else "FAIL"


def _sigma_ok(report, i, j, target):
    obs = report.empirical_cov[i, j]
    tol = max(0.05, 4.0 * report.cov_stderr[i, j])
    return abs(obs - target) <= tol, obs, tol


def _check_sigma(report, offdiag_target):
    results = []
    for i, j, target in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, offdiag_target)):
        ok, obs, tol = _sigma_ok(report, i, j, target)
        results.append((f"sigma[{i}{j}]", ok, obs, target, tol))
    return results


def test_criterion_1_tail_dependent_copula_case():
    cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=20000, replications=5000,
                           seed=101, kind="copula", gate_ks=False)
    report = run_experiment(cfg)
    rows = _check_sigma(report, GUMBEL_SIGMA)
    ok = all(r[1] for r in rows) and report.runtime_seconds <= 120.0
    detail = "  ".join(f"{n}={obs:+.4f} (target {t:+.4f}, tol {tol:.4f})" for n, _, obs, t, tol in rows)
    print(f"[criterion 1] {_status(ok)} gumbel(p=2) equal-k: {detail}  runtime={report.runtime_seconds:.0f}s")
    assert ok


def test_criterion_2_tail_independent_copula_case():
    cfg = ExperimentConfig(copula=Independence(2), n=20000, replications=5000,
                           seed=102, kind="copula", gate_ks=False)
    report = run_experiment(cfg)
    rows = _check_sigma(report, 0.0)
    ok = all(r[1] for r in rows)
    print(f"[criterion 2] {_status(ok)} independence: sigma12={report.empirical_cov[0, 1]:+.4f} "
          f"(tol {max(0.05, 4 * report.cov_stderr[0, 1]):.4f})")
    assert ok


def test_criterion_3_unequal_k():
    inter = IntermediateSpec((PowerKRule(4.0, 0.5), PowerKRule(1.0, 0.5)), "n-k")
    cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=20000, replications=5000,
                           seed=103, kind="copula", intermediate=inter, gate_ks=False)
    report = run_experiment(cfg)
    assert report.theoretical_sigma[0, 1] == pytest.approx(UNEQUAL_SIGMA, rel=1e-12)
    rows = _check_sigma(report, UNEQUAL_SIGMA)
    ok = all(r[1] for r in rows)
    print(f"[criterion 3] {_status(ok)} k-ratio 2: sigma12={report.empirical_cov[0, 1]:+.4f} "
          f"(target {UNEQUAL_SIGMA:+.4f})")
    assert ok


def test_criterion_4_general_case():
    # exponential margins over the Gumbel copula: same covariance target
    inter = IntermediateSpec.equal(2, gamma=0.65, convention="n-k+1")
    cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=20000, replications=5000,
                           seed=104, kind="general", intermediate=inter,
                           margins=(StandardExponential(), StandardExponential()), gate_ks=False)
    report = run_experiment(cfg)
    rows = _check_sigma(report, GUMBEL_SIGMA)

    # marginal normality gated at the 1e-3 KS level, where the exact law
    # of a column, U_(n-k+1) ~ Beta(n - k + 1, k) under the exponential
    # quantile and its norming constants, is close enough to N(0, 1): at
    # n = 10^8 and k = 2·10^4 a column reaches the critical value with
    # exact probability 1.105e-3 (at n = 2·10^4 and k = 624, 1.1e-2); a
    # location error of 0.1 or a scale error of 10% fails a column with
    # probability 0.998 or 0.70
    inter_ks = IntermediateSpec.equal(2, c=2.0, gamma=0.5, convention="n-k+1")
    cfg_ks = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=10**8, replications=5000,
                              seed=106, kind="general", intermediate=inter_ks,
                              margins=(StandardExponential(), StandardExponential()))
    assert list(inter_ks.k_vector(cfg_ks.n)) == [2 * 10**4] * 2 and cfg_ks.ks_level == 1e-3
    report_ks = run_experiment(cfg_ks)
    ks_ok = bool(np.all(report_ks.ks_stats < report_ks.ks_critical))
    ok_a = all(r[1] for r in rows) and ks_ok

    # Pareto and triangular margins under independence: identity target
    cfg_b = ExperimentConfig(copula=Independence(2), n=20000, replications=5000,
                             seed=105, kind="general", intermediate=inter,
                             margins=(Pareto(1.0), Triangular()), gate_ks=False)
    report_b = run_experiment(cfg_b)
    rows_b = _check_sigma(report_b, 0.0)
    ok_b = all(r[1] for r in rows_b)

    ok = ok_a and ok_b
    print(f"[criterion 4] {_status(ok)} general case: exp-gumbel sigma12={report.empirical_cov[0, 1]:+.4f} "
          f"ks at n=1e8={report_ks.ks_stats.round(4).tolist()} (crit {report_ks.ks_critical:.4f}); "
          f"pareto/triangular sigma12={report_b.empirical_cov[0, 1]:+.4f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the 0.02 band is unattainable with the canonical constants: the quotient "
        "error is ((alpha+1)/(2 alpha)) x^2/sqrt(k) + O(1/k) per tail family, so at "
        "n = 1e8, k = 1e4 the exponential margin reaches 0.020134 at x = -2 (the "
        "third-order term tips the exactly-saturated leading term) and unit Pareto "
        "reaches 0.0408 at |x| = 2; only the normal (0.0189) and triangular "
        "(0.0100) margins fit inside 0.02"
    ),
)
def test_criterion_5_smirnov_closed_form():
    margins = [StandardNormal(), StandardExponential(), Pareto(1.0), Triangular()]
    x_grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    worst = {}
    for margin in margins:
        rows = smirnov_check(margin, x_grid, [10**8], "sqrt")
        worst[margin.label()] = max(abs(r.quotient - r.x) for r in rows)
    ok = all(w <= 0.02 for w in worst.values())
    detail = "  ".join(f"{name}:{w:.6f}" for name, w in worst.items())
    print(f"[criterion 5] {_status(ok)} smirnov |quotient - x| at n=1e8, k=1e4: {detail}")
    assert ok


def test_criterion_6_von_mises_checks():
    exp_rows = von_mises_check(StandardExponential(), [0.25, 1.0, 4.0, 16.0]).rows
    exp_ok = all(q == 1.0 for _, q in exp_rows)

    pareto_ok = True
    for alpha in (0.5, 1.0, 3.0):
        rows = von_mises_check(Pareto(alpha), [1.25, 2.0, 8.0, 64.0]).rows
        pareto_ok &= all(abs(q - alpha) <= 5e-14 * alpha for _, q in rows)

    tri_q = von_mises_check(Triangular(), [1.0 - 1e-6]).rows[0][1]
    tri_ok = abs(tri_q - 2.0) <= 1e-6

    norm_q = von_mises_check(StandardNormal(), [6.0]).rows[0][1]
    norm_ok = abs(norm_q - 1.0) <= 0.05

    ok = exp_ok and pareto_ok and tri_ok and norm_ok
    print(f"[criterion 6] {_status(ok)} von Mises: exp exact={exp_ok} pareto exact={pareto_ok} "
          f"triangular={tri_q:.8f} normal@6={norm_q:.4f}")
    assert ok


def test_criterion_7_ratio_representation_univariate():
    r = 10**5
    level = 1e-3
    results = {}
    for idx, (i, n) in enumerate([(1, 1), (3, 9), (50, 1000)]):
        # the d = 1 case at k = n - i is the i-th of n uniform order statistics
        sample = correlated_ratio_sample(np.ones((1, 1)), n, n - i, r, seed=700 + idx)[:, 0]
        direct = np.random.default_rng(970 + idx).beta(i, n + 1 - i, size=r)
        results[(i, n)] = stats.ks_2samp(sample, direct).pvalue
    ok = all(p > level for p in results.values())
    detail = "  ".join(f"(i={i},n={n}):p={p:.4f}" for (i, n), p in results.items())
    print(f"[criterion 7] {_status(ok)} ratio sampler vs direct Beta, two-sample KS: {detail}")
    assert ok


def test_criterion_8_representation_gate_and_distance():
    # gate: entrywise square roots of valid covariances need their own check
    a_ok, a_bad = 3 ** -0.5, 3 ** -0.25
    pattern = lambda a: np.array([[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]])
    accepted = correlated_ratio_sample(pattern(a_ok), 50, 5, 4, seed=1).shape == (4, 3)
    assert is_positive_semidefinite(pattern(a_ok)).ok
    try:
        correlated_ratio_sample(pattern(a_bad), 50, 5, 4, seed=1)
        rejected = False
    except NotPositiveSemidefiniteError:
        rejected = True
    gate_ok = accepted and rejected

    # (a) the exact sup distance between the two laws on the 9 x 9 grid of
    # Beta(n-k, k+1) quantiles decreases from n to 2n; (b) at one group of
    # R replications per n, each Monte Carlo arm, drawn from the streams
    # run_experiment uses, stays within the z band of its exact cdf at
    # every node
    band = 4.5
    cfg = ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=10000, replications=12000,
                           seed=8000, kind="representation")
    lam = lambda_matrix(theoretical_sigma_equal_k(cfg.copula.tail_dnorm, 2))
    exact, worst_z = {}, {}
    for nn in (cfg.n, 2 * cfg.n):
        k = int(cfg.intermediate.k_vector(nn)[0])
        grid = beta_quantile_grid(nn, k)
        os_cdf = os_joint_cdf(cfg.copula, nn, k, grid)
        ratio_cdf = ratio_joint_cdf(lam[0, 1] ** 2, nn, k, grid)
        exact[nn] = float(np.abs(os_cdf - ratio_cdf).max())
        os_values, _ = _collect_os(cfg, nn, derive_seed(cfg.seed, 1, nn), 1)
        ratios = correlated_ratio_sample(lam, nn, k, cfg.replications, derive_seed(cfg.seed, 2, nn))
        for arm, values, cdf in (("os", os_values, os_cdf), ("ratio", ratios, ratio_cdf)):
            se = np.sqrt(cdf * (1.0 - cdf) / cfg.replications)
            worst_z[f"{arm}@{nn}"] = float(np.abs((ecdf_on_grid(values, [grid, grid]) - cdf) / se).max())
    decrease_ok = exact[2 * cfg.n] < exact[cfg.n]
    band_ok = max(worst_z.values()) <= band

    ok = gate_ok and decrease_ok and band_ok
    zs = " ".join(f"{arm}={z:.2f}" for arm, z in worst_z.items())
    print(f"[criterion 8] {_status(ok)} gate(accept {a_ok:.4f}, reject {a_bad:.4f})={gate_ok}; "
          f"exact distance n=1e4: {exact[cfg.n]:.6f} vs 2e4: {exact[2 * cfg.n]:.6f}; "
          f"max |z| vs exact cdf (band {band}): {zs}")
    assert ok


def test_criterion_9_dnorm_cross_validation():
    # the Frechet(2) standard error has no level: R's band at m = 10^6 (exact_laws)
    spec = GeneratorBased(FrechetLogistic(2, 2.0), 10**6)
    mean, _ = mc_eval(spec, [1.0, 1.0], seed=3)
    low, high = FRECHET2_BANDS[10**6]
    error = frechet2_error(mean, [1.0, 1.0])
    frechet_ok = low <= error <= high

    builtins = [
        SupNorm(),
        LogisticP(1.0),
        LogisticP(1.5),
        LogisticP(2.0),
        LogisticP(3.0),
        LogisticP(64.0),
        GeneratorBased(ConstantOne(3), 10**4),
        GeneratorBased(RandomIndex(3), 10**4),
        GeneratorBased(FrechetLogistic(2, 2.0), 2 * 10**4),
        GeneratorBased(FrechetLogistic(3, 2.5), 2 * 10**4),
    ]
    failed = [s.label() for s in builtins if not dnorm_validate(s, trials=80, seed=1).passed]
    ok = frechet_ok and not failed
    print(f"[criterion 9] {_status(ok)} frechet estimate {mean:.6f} vs sqrt(2)={math.sqrt(2):.6f} "
          f"(relative error {error:+.5f}, band [{low}, {high}]); validation failures: {failed or 'none'}")
    assert ok


def test_criterion_10_determinism_across_workers():
    configs = [
        ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=2000, replications=300,
                         seed=1001, kind="copula"),
        ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=2000, replications=300,
                         seed=1002, kind="general",
                         margins=(StandardExponential(), StandardNormal())),
        ExperimentConfig(copula=GumbelLogistic(2, 2.0), n=500, replications=300,
                         seed=1003, kind="representation"),
    ]
    ok = True
    for cfg in configs:
        blobs = {report_json_bytes(run_experiment(cfg, threads=t)) for t in (1, 3)}
        blobs.add(report_json_bytes(run_experiment(cfg, threads=1)))  # rerun at same worker count
        ok &= len(blobs) == 1
    print(f"[criterion 10] {_status(ok)} byte-identical reports across reruns and worker counts")
    assert ok

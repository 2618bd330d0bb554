import csv
import json
import warnings

import numpy as np
import pytest
from scipy import stats

from mvos import chi2rep, experiment, streams
from mvos.cli import main
from mvos.margins import Triangular, smirnov_check, von_mises_check

from exact_laws import FRECHET2_BANDS, frechet2_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDnormCommands:
    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "dnorm", "eval", "--spec", '{"kind":"logistic","p":2}', "--x", "3,4")
        assert code == 0
        assert float(out.strip()) == 5.0

    def test_eval_generator_with_seed(self, capsys):
        spec = '{"kind":"generator","gen":{"kind":"frechet","p":2},"d":2,"mc_samples":20000}'
        code, out, _ = run_cli(capsys, "dnorm", "eval", "--spec", spec, "--x", "1,1", "--seed", "5")
        assert code == 0
        # within R's band at m = 2·10^4 (exact_laws)
        low, high = FRECHET2_BANDS[2 * 10**4]
        assert low <= frechet2_error(float(out.strip()), [1.0, 1.0]) <= high

    def test_validate(self, capsys):
        code, out, _ = run_cli(capsys, "dnorm", "validate", "--spec", '{"kind":"sup"}', "--trials", "200")
        assert code == 0
        assert "standardization" in out and "pass" in out


class TestSampleCommand:
    def test_csv_format_17_digits(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        code, _, _ = run_cli(capsys, "sample", "--copula", "gumbel", "--p", "2", "-d", "2",
                             "-n", "50", "--seed", "3", "--out", str(path))
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u1", "u2"]
        assert len(rows) == 51
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.all((values >= 0) & (values <= 1))
        # 17 significant digits round-trip float64 exactly
        from mvos.copula import GumbelLogistic, copula_sample

        direct = copula_sample(GumbelLogistic(2, 2.0), 50, 3)
        assert np.array_equal(values, direct)


class TestCheckCommands:
    def test_smirnov_table(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, out, _ = run_cli(capsys, "check", "smirnov", "--margin", "exponential",
                               "--n-grid", "1e4,1e6", "--x", "0,1", "--out", str(out_path))
        assert code == 0
        assert "quotient" in out
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        got = {(int(r["n"]), float(r["x"])): float(r["quotient"]) for r in rows}
        assert abs(got[(10**6, 1.0)] - 0.9843539690397435) < 1e-9

    def test_von_mises_pareto_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "check", "von-mises", "--margin", "pareto", "--alpha", "2.5")
        assert code == 0
        assert "limit 2.5" in out

    def test_smirnov_csv_bytes(self, tmp_path, capsys):
        # ints and the clipped flag as integers, also at n = 1e17, and floats with 17 digits
        out_path = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "check", "smirnov", "--margin", "triangular", "--n-grid", "1e4,1e17",
                             "--x", "0,0.5,1e9", "--out", str(out_path))
        assert code == 0
        rows = smirnov_check(Triangular(), [0.0, 0.5, 1e9], [10**4, 10**17])
        want = "n,k,x,quotient,clipped\n" + "".join(
            f"{r.n},{r.k},{r.x:.17g},{r.quotient:.17g},{int(r.clipped)}\n" for r in rows)
        assert out_path.read_text() == want
        assert "\n100000000000000000,316227766,1000000000," in want and want.endswith(",1\n")

    def test_von_mises_csv_bytes_on_default_grid(self, tmp_path, capsys):
        # the triangular margin's endpoint is finite: the default grid approaches it
        out_path = tmp_path / "v.csv"
        code, out, _ = run_cli(capsys, "check", "von-mises", "--margin", "triangular", "--out", str(out_path))
        assert code == 0
        assert "limit 2" in out
        grid = [1.0 - 10.0 ** (-j) for j in range(1, 7)]
        want = "x,quotient\n" + "".join(f"{x:.17g},{q:.17g}\n" for x, q in von_mises_check(Triangular(), grid).rows)
        assert out_path.read_text() == want
        assert want.splitlines()[1:3] == ["0.90000000000000002,2", "0.98999999999999999,2"]


class TestCovCommand:
    def test_equal_k(self, capsys):
        code, out, _ = run_cli(capsys, "cov", "--dnorm", '{"kind":"logistic","p":2}', "--equal-k", "--d", "2")
        assert code == 0
        sigma = json.loads(out.splitlines()[0])["sigma"]
        assert sigma[0][1] == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)

    def test_kratio_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "cov", "--dnorm", '{"kind":"logistic","p":2}',
                               "--kratios", '{"d":2,"k":[[1,2],[0.5,1]]}')
        assert code == 0
        sigma = json.loads(out.splitlines()[0])["sigma"]
        assert sigma[0][1] == pytest.approx(2.5 - np.sqrt(4.25), rel=1e-12)


class TestChi2repCommand:
    def test_writes_ratio_csv(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "chi2rep", "--lambda", "[[1.0,0.7],[0.7,1.0]]",
                             "-n", "100", "-k", "9", "-R", "20", "--seed", "4", "--out", str(path))
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r1", "r2"]
        assert len(rows) == 21

    def test_non_psd_exits_3(self, tmp_path, capsys):
        a = 3 ** -0.25
        lam = json.dumps([[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]])
        code, _, err = run_cli(capsys, "chi2rep", "--lambda", lam, "-n", "100", "-k", "9",
                               "-R", "5", "--seed", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "eigenvalue" in err

    def test_k_0_draws_the_maximum(self, tmp_path, capsys):
        # rank n of n uniforms, Beta(n, 1)
        path = tmp_path / "max.csv"
        code, _, _ = run_cli(capsys, "chi2rep", "--lambda", "[[1.0]]", "-n", "5", "-k", "0", "-R", "3000",
                             "--seed", "8", "--out", str(path))
        assert code == 0
        ratios = np.loadtxt(path, delimiter=",", skiprows=1)
        assert ratios.shape == (3000,)
        assert stats.kstest(ratios, stats.beta(5, 1).cdf).pvalue > 1e-3

    def test_hundred_million_rows(self, tmp_path, capsys):
        # each replication costs O(d^2) draws whatever n is
        n, k = 10**8, 10**4
        path = tmp_path / "big.csv"
        code, _, _ = run_cli(capsys, "chi2rep", "--lambda", "[[1.0,0.765],[0.765,1.0]]",
                             "-n", str(n), "-k", str(k), "-R", "200", "--seed", "6", "--out", str(path))
        assert code == 0
        ratios = np.loadtxt(path, delimiter=",", skiprows=1)
        assert ratios.shape == (200, 2)
        for i in range(2):
            assert stats.kstest(ratios[:, i], stats.beta(n - k, k + 1).cdf).pvalue > 1e-3


class TestExperimentCommand:
    @staticmethod
    def write_config(tmp_path, **overrides):
        obj = {
            "kind": "copula",
            "copula": {"kind": "independence", "d": 2},
            "n": 500,
            "replications": 150,
            "seed": 17,
            "gate_ks": False,
        }
        obj.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(obj))
        return path

    def test_passing_run_exit_0(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["passed"] is True

    def test_distance_comparison_not_gated(self, tmp_path, capsys, monkeypatch):
        # a grid distance that rises from n to 2n fails its criterion but
        # neither the report nor the exit code
        monkeypatch.setattr(experiment, "representation_distance", lambda batch, ratios: batch.n / 1e6)
        cfg = self.write_config(tmp_path, kind="representation", copula={"kind": "gumbel", "d": 2, "p": 2.0},
                                n=100, replications=20)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["distances"]["2n"]["distance"] > report["distances"]["n"]["distance"]
        (criterion,) = report["criteria"]
        assert criterion["name"] == "representation_distance_decreases"
        assert criterion["passed"] is False and criterion["gated"] is False
        assert report["passed"] is True

    def test_threads_byte_identical(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(p1), "--threads", "1")[0] == 0
        assert run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(p2), "--threads", "4")[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_config_exit_2_no_partial_files(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, replications=0)
        out_path = tmp_path / "never.json"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_path))
        assert code == 2
        assert "invalid config" in err
        assert not out_path.exists()

    def test_missing_x_for_eval_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "dnorm", "eval", "--spec", '{"kind":"sup"}')
        assert code == 2
        assert "--x" in err

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "experiment", "--config", str(tmp_path / "missing.json"))
        assert code == 2

    def test_psd_refusal_exit_3(self, tmp_path, capsys):
        a = 3 ** -0.25
        cfg = self.write_config(
            tmp_path,
            kind="representation",
            copula={"kind": "gumbel", "d": 3, "p": 2.0},
            lambda_override=[[1.0, 0.0, a], [0.0, 1.0, a], [a, a, 1.0]],
        )
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 3
        assert "eigenvalue" in err

    def test_criterion_failure_exit_1(self, tmp_path, capsys):
        # an absurdly tight tolerance cannot be met by a finite run
        cfg = self.write_config(tmp_path, tolerance={"abs_tol": 1e-9, "z": 0.001})
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1

    def test_env_seed_override_flagged(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "report.json"
        monkeypatch.setenv("MVOS_SEED", "4242")
        run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_path))
        report = json.loads(out_path.read_text())
        assert report["config"]["seed"] == 4242
        assert report["config"]["seed_overridden"] is True

    def test_csv_dump_alongside(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out", str(out_json), "--csv", str(out_csv))
        assert code == 0
        from mvos.experiment import read_report_csv

        tables = read_report_csv(str(out_csv))
        assert "empirical_cov" in tables and "theoretical_sigma" in tables


GOOD_CONFIG = {"kind": "copula", "copula": {"kind": "independence", "d": 2},
               "n": 500, "replications": 5, "seed": 17}
REJECTED = [
    ("mixed-gamma", ["experiment", "--config", "{config}"],
     {"intermediate": {"rules": [{"c": 1.0, "gamma": 0.5}, {"c": 1.0, "gamma": 0.6}]}}, {}),
    ("mvos-seed-abc", ["experiment", "--config", "{config}"], {}, {"MVOS_SEED": "abc"}),
    ("lambda-mismatch", ["experiment", "--config", "{config}"],
     {"kind": "representation", "copula": {"kind": "gumbel", "d": 3, "p": 2.0},
      "lambda_override": [[1.0, 0.5], [0.5, 1.0]]}, {}),
    ("lambda-on-copula-kind", ["experiment", "--config", "{config}"],
     {"lambda_override": [[1.0, 0.5], [0.5, 1.0]]}, {}),
    ("copula-without-d", ["experiment", "--config", "{config}"],
     {"copula": {"kind": "independence"}}, {}),
    ("dnorm-not-json", ["dnorm", "eval", "--spec", "{kind:", "--x", "1,2"], None, {}),
    ("dnorm-unknown-kind", ["dnorm", "eval", "--spec", '{"kind":"cauchy"}', "--x", "1,2"], None, {}),
    ("dnorm-p-below-1", ["dnorm", "validate", "--spec", '{"kind":"logistic","p":0.5}'], None, {}),
    ("dnorm-trials-0", ["dnorm", "validate", "--spec", '{"kind":"logistic","p":2}', "--trials", "0"], None, {}),
    ("cov-non-reciprocal", ["cov", "--dnorm", '{"kind":"sup"}', "--kratios", '{"d":2,"k":[[1,2],[2,1]]}'],
     None, {}),
    ("chi2rep-ragged", ["chi2rep", "--lambda", "[[1.0,0.5],[0.5]]", "-n", "100", "-k", "9", "-R", "5",
                        "--seed", "1", "--out", "{out}"], None, {}),
    ("chi2rep-k-not-below-n", ["chi2rep", "--lambda", "[[1.0,0.5],[0.5,1.0]]", "-n", "10", "-k", "10",
                               "-R", "5", "--seed", "1", "--out", "{out}"], None, {}),
    ("sample-p-below-1", ["sample", "--copula", "gumbel", "--p", "0.5", "-n", "10", "--seed", "1",
                          "--out", "{out}"], None, {}),
    # p past copula.MAX_P overflows the stable proposals (p = inf divided by zero)
    ("sample-p-infinite", ["sample", "--copula", "gumbel", "--p", "Infinity", "-d", "2", "-n", "10", "--seed", "1",
                           "--out", "{out}"], None, {}),
    ("sample-p-1e308", ["sample", "--copula", "gumbel", "--p", "1e308", "-d", "2", "-n", "10", "--seed", "1",
                        "--out", "{out}"], None, {}),
    ("experiment-p-1e308", ["experiment", "--config", "{config}"],
     {"copula": {"kind": "gumbel", "d": 2, "p": 1e308}}, {}),
    ("sample-n-0", ["sample", "--copula", "independence", "-n", "0", "--seed", "1", "--out", "{out}"],
     None, {}),
    ("check-alpha-negative", ["check", "von-mises", "--margin", "pareto", "--alpha", "-1"], None, {}),
    ("check-k-rule-2", ["check", "smirnov", "--margin", "exponential", "--k-rule", "2"], None, {}),
    # b = F^-1(1 - k/n) is inf at n = 1e300, where the density vanishes
    ("check-smirnov-n-1e300", ["check", "smirnov", "--margin", "normal", "--n-grid", "1e300"], None, {}),
    ("check-grid-past-endpoint", ["check", "von-mises", "--margin", "triangular", "--x-grid", "0.5,2"],
     None, {}),
    ("dnorm-x-wrong-length", ["dnorm", "eval", "--spec", '{"kind":"generator","gen":{"kind":"constant"},"d":2}',
                              "--x", "1,2,3"], None, {}),
    ("cov-dimension-mismatch", ["cov", "--dnorm", '{"kind":"generator","gen":{"kind":"constant"},"d":3}',
                                "--equal-k", "--d", "2"], None, {}),
    ("chi2rep-R-above-2**32", ["chi2rep", "--lambda", "[[1.0,0.5],[0.5,1.0]]", "-n", "100", "-k", "9",
                               "-R", str(2**32 + 1), "--seed", "1", "--out", "{out}"], None, {}),
    ("cov-equal-k-d-0", ["cov", "--dnorm", '{"kind":"sup"}', "--equal-k", "--d", "0"], None, {}),
    ("cov-equal-k-d-negative", ["cov", "--dnorm", '{"kind":"sup"}', "--equal-k", "--d", "-3"], None, {}),
    ("chi2rep-R-0", ["chi2rep", "--lambda", "[[1.0,0.5],[0.5,1.0]]", "-n", "10", "-k", "3", "-R", "0",
                     "--seed", "1", "--out", "{out}"], None, {}),
    ("negative-seed", ["sample", "--copula", "independence", "-n", "5", "--seed", "-1", "--out", "{out}"],
     None, {}),
    ("experiment-replications-1", ["experiment", "--config", "{config}"], {"replications": 1}, {}),
    ("experiment-ks-level-1.5", ["experiment", "--config", "{config}"], {"ks_level": 1.5}, {}),
    # the centering point b = F^-1(1 - k/n) overflows to inf, where the density vanishes
    ("general-norming-constants", ["experiment", "--config", "{config}"],
     {"kind": "general", "margins": [{"kind": "pareto", "alpha": 0.001}] * 2, "n": 1000,
      "replications": 200000}, {}),
    ("experiment-n-1e30", ["experiment", "--config", "{config}"], {"n": 1e30}, {}),
    ("experiment-n-2**63", ["experiment", "--config", "{config}"], {"n": 2**63}, {}),
    ("representation-2n-2**63", ["experiment", "--config", "{config}"], {"kind": "representation", "n": 2**62}, {}),
    ("experiment-replications-2**32+1", ["experiment", "--config", "{config}"], {"replications": 2**32 + 1}, {}),
    ("representation-d-8", ["experiment", "--config", "{config}"],
     {"kind": "representation", "copula": {"kind": "gumbel", "d": 8, "p": 2.0}}, {}),
    ("tolerance-negative", ["experiment", "--config", "{config}"], {"tolerance": {"abs_tol": -1, "z": -3}}, {}),
    ("tolerance-z-infinite", ["experiment", "--config", "{config}"], {"tolerance": {"z": float("inf")}}, {}),
    ("tolerance-abs-tol-nan", ["experiment", "--config", "{config}"], {"tolerance": {"abs_tol": float("nan")}}, {}),
    ("experiment-threads-0", ["experiment", "--config", "{config}", "--threads", "0"], {}, {}),
    ("experiment-threads-negative", ["experiment", "--config", "{config}", "--threads", "-5"], {}, {}),
    ("experiment-threads-65", ["experiment", "--config", "{config}", "--threads", "65"], {}, {}),
    ("experiment-threads-1e6", ["experiment", "--config", "{config}", "--threads", "1000000"], {}, {}),
    ("experiment-kind-unknown", ["experiment", "--config", "{config}"], {"kind": "marginal"}, {}),
    ("experiment-n-1", ["experiment", "--config", "{config}"], {"n": 1}, {}),
    ("general-without-margins", ["experiment", "--config", "{config}"], {"kind": "general"}, {}),
    ("intermediate-wrong-dimension", ["experiment", "--config", "{config}"],
     {"intermediate": {"rules": [{"c": 1.0, "gamma": 0.5}] * 3}}, {}),
    ("config-not-an-object", ["experiment", "--config", "{config}"], "[1, 2]", {}),
    ("margins-not-a-list", ["experiment", "--config", "{config}"],
     {"kind": "general", "margins": {"kind": "normal"}}, {}),
    ("tolerance-not-an-object", ["experiment", "--config", "{config}"], {"tolerance": 0.05}, {}),
    # k = 1e9 at n = 1e18: one replication's first draw would hold 2e9 values (Gumbel: 1.8e10)
    ("experiment-n-1e18", ["experiment", "--config", "{config}"], {"n": 10**18}, {}),
    ("gumbel-n-1e18", ["experiment", "--config", "{config}"],
     {"copula": {"kind": "gumbel", "d": 2, "p": 2.0}, "n": 10**18}, {}),
    ("general-n-1e18", ["experiment", "--config", "{config}"],
     {"kind": "general", "margins": [{"kind": "exponential"}] * 2, "n": 10**18}, {}),
    # k = 8511380 of n = 10^7 sends Gumbel p = 3's first batch past
    # L = 1250064 rows, so it draws all n Marshall-Olkin rows, d n = 2·10^7
    # values; at p = 2 every row is a top row, 4 n = 4·10^7 at d = 2
    ("gumbel-rows-below-the-top-over-cap", ["experiment", "--config", "{config}"],
     {"copula": {"kind": "gumbel", "d": 2, "p": 3.0}, "n": 10**7,
      "intermediate": {"rules": [{"c": 1.0, "gamma": 0.99}] * 2}}, {}),
    ("gumbel-p2-all-top-rows-over-cap", ["experiment", "--config", "{config}"],
     {"copula": {"kind": "gumbel", "d": 2, "p": 2.0}, "n": 10**7,
      "intermediate": {"rules": [{"c": 1.0, "gamma": 0.99}] * 2}}, {}),
    # n = (2**23 - 1)**2 stays at the cap, 2n exceeds it
    ("representation-2n-over-cap", ["experiment", "--config", "{config}"],
     {"kind": "representation", "n": (2**23 - 1) ** 2}, {}),
    ("cov-d-not-size-of-k", ["cov", "--dnorm", '{"kind":"logistic","p":2}',
                             "--kratios", '{"d":5,"k":[[1,2],[0.5,1]]}'], None, {}),
    ("chi2rep-k-negative", ["chi2rep", "--lambda", "[[1.0]]", "-n", "10", "-k", "-1", "-R", "5",
                            "--seed", "1", "--out", "{out}"], None, {}),
    # output paths that cannot be written: a missing directory, or a directory
    ("experiment-out-missing-dir", ["experiment", "--config", "{config}", "--out", "{missing}"], {}, {}),
    ("experiment-csv-missing-dir", ["experiment", "--config", "{config}", "--csv", "{missing}"], {}, {}),
    ("experiment-out-is-a-dir", ["experiment", "--config", "{config}", "--out", "{dir}"], {}, {}),
    ("chi2rep-out-missing-dir", ["chi2rep", "--lambda", "[[1.0,0.5],[0.5,1.0]]", "-n", "10", "-k", "3", "-R", "5",
                                 "--seed", "1", "--out", "{missing}"], None, {}),
    ("sample-out-missing-dir", ["sample", "--copula", "independence", "-n", "5", "--seed", "1", "--out", "{missing}"],
     None, {}),
    ("check-smirnov-out-missing-dir", ["check", "smirnov", "--margin", "exponential", "--out", "{missing}"], None, {}),
    ("check-von-mises-out-missing-dir", ["check", "von-mises", "--margin", "triangular", "--out", "{missing}"],
     None, {}),
]


@pytest.mark.parametrize("argv,config,env", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_invalid_input_exits_2_with_one_line(argv, config, env, tmp_path, capsys, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)

    def never(*args, **kwargs):
        raise AssertionError("sampling started before the input was rejected")

    monkeypatch.setattr(experiment, "replicate", never)
    monkeypatch.setattr(chi2rep, "replicate", never)
    monkeypatch.setattr(streams, "ThreadPoolExecutor", never)
    cfg_path = tmp_path / "exp.json"
    if config is not None:  # a JSON object merged into GOOD_CONFIG, or the file's text
        cfg_path.write_text(config if isinstance(config, str) else json.dumps({**GOOD_CONFIG, **config}))
    out_path = tmp_path / "out.csv"
    where = {"{config}": cfg_path, "{out}": out_path, "{missing}": tmp_path / "missing" / "x.csv", "{dir}": tmp_path}
    argv = [str(where.get(a, a)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not out_path.exists()


def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # the R x d result array is allocated before any draw; where it cannot
    # be, as for R = 2**32 at d = 2 (64 GiB), the run exits 2 on one line
    empty = np.empty

    def no_room(shape, *args, **kwargs):
        if np.prod(shape) >= 2**32:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("sampling started before the allocation")

    monkeypatch.setattr(np, "empty", no_room)
    monkeypatch.setattr(experiment, "replicate", never)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**GOOD_CONFIG, "replications": 2**32}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

"""The package's numpy/math special functions against scipy.special, and the
promise they exist for: a run of mvos loads no scipy."""
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
from scipy import special

import mvos
from mvos._special import kolmogi, kolmogorov, ndtr, ndtri


class TestAgainstScipy:
    def test_ndtri_within_8_ulp(self):
        p = np.concatenate([
            np.geomspace(1e-300, 0.5, 20001),
            1.0 - np.geomspace(2.0**-53, 0.5, 20001),
            np.random.default_rng(11).random(20000),
        ])
        want = special.ndtri(p)
        assert np.max(np.abs(ndtri(p) - want) / np.spacing(np.abs(want))) <= 8

    def test_ndtri_edges_as_scipy(self):
        p = np.array([0.0, 1.0, 0.5, -0.0, -1e-300, -0.5, 1.0 + 2.0**-52, 2.0, np.nan, -np.inf, np.inf])
        assert np.array_equal(ndtri(p), special.ndtri(p), equal_nan=True)
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf and np.isnan(ndtri(1.5))
        assert np.ndim(ndtri(0.3)) == 0 and ndtri([[0.3, 0.7]]).shape == (1, 2)

    def test_ndtr_relative_error(self):
        for lo, bound in ((-8.0, 2e-14), (-37.0, 1e-12)):
            x = np.linspace(lo, 8.0, 40001)
            want = special.ndtr(x)
            assert np.max(np.abs(ndtr(x) - want) / want) <= bound

    def test_ndtr_edges_as_scipy(self):
        x = np.array([-np.inf, -40.0, -38.5, -0.0, 0.0, 1.0, -1.0, 8.0, -8.0, 40.0, np.inf, np.nan])
        assert np.array_equal(ndtr(x), special.ndtr(x), equal_nan=True)
        assert np.ndim(ndtr(0.3)) == 0 and ndtr(np.zeros((2, 3))).shape == (2, 3)

    def test_kolmogorov_absolute_error(self):
        x = np.linspace(0.0, 10.0, 20001)
        got = np.array([kolmogorov(float(v)) for v in x])
        assert np.max(np.abs(got - special.kolmogorov(x))) <= 1e-14
        assert kolmogorov(-1.0) == 1.0 and kolmogorov(math.inf) == 0.0 and math.isnan(kolmogorov(math.nan))

    def test_kolmogi_relative_error(self):
        p = np.concatenate([np.geomspace(1e-10, 0.5, 2001), 1.0 - np.geomspace(1e-10, 0.5, 2001)])
        got = np.array([kolmogi(float(v)) for v in p])
        want = special.kolmogi(p)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        assert kolmogi(0.0) == math.inf and kolmogi(1.0) == 0.0
        assert math.isnan(kolmogi(-0.1)) and math.isnan(kolmogi(1.1)) and math.isnan(kolmogi(math.nan))

    def test_kolmogi_inverts_kolmogorov(self):
        for p in (1e-300, 1e-10, 0.01, 0.05, 0.5, 0.9, 1.0 - 1e-12):
            assert math.isclose(kolmogorov(kolmogi(p)), p, rel_tol=1e-12)


def test_runs_load_no_scipy(tmp_path):
    # every experiment kind and every other subcommand, in a fresh process
    configs = [
        {"kind": "copula", "copula": {"kind": "gumbel", "d": 2, "p": 2.0}, "n": 500, "replications": 30, "seed": 1},
        {"kind": "general", "copula": {"kind": "independence", "d": 2}, "n": 500, "replications": 30, "seed": 2,
         "margins": [{"kind": "normal"}, {"kind": "pareto", "alpha": 1.0}]},
        {"kind": "representation", "copula": {"kind": "gumbel", "d": 2, "p": 2.0}, "n": 100, "replications": 20,
         "seed": 3},
    ]
    paths = []
    for i, obj in enumerate(configs):
        paths.append(str(tmp_path / f"config{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(obj, fh)
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import mvos
        from mvos.cli import main
        runs = [["experiment", "--config", path, "--out", path + ".out"] for path in {paths!r}]
        runs += [["cov", "--dnorm", '{{"kind":"logistic","p":2}}', "--equal-k", "--d", "2"],
                 ["sample", "--copula", "gumbel", "--p", "2", "-d", "2", "-n", "50", "--seed", "3",
                  "--out", {str(tmp_path / "u.csv")!r}],
                 ["check", "smirnov", "--margin", "pareto", "--alpha", "2"],
                 ["check", "von-mises", "--margin", "triangular"],
                 ["dnorm", "eval", "--spec", '{{"kind":"logistic","p":2}}', "--x", "3,4"],
                 ["dnorm", "validate", "--spec",
                  '{{"kind":"generator","gen":{{"kind":"frechet","p":2}},"d":2,"mc_samples":2000}}'],
                 ["chi2rep", "--lambda", "[[1.0,0.5],[0.5,1.0]]", "-n", "100", "-k", "9", "-R", "50",
                  "--seed", "1", "--out", {str(tmp_path / "r.csv")!r}]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(json.dumps([codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvos.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    codes, loaded = json.loads(out.stdout)
    assert loaded == []
    # an experiment may miss a criterion by chance (exit 1), but it must run to its report
    assert all(c in (0, 1) for c in codes[:len(paths)]) and all(os.path.getsize(path + ".out") > 0 for path in paths)
    assert codes[len(paths):] == [0] * (len(codes) - len(paths))

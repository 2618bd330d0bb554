"""The benchmark's workloads: experiment configs generated from a workload seed.

Standard library only, so ``run.py`` can validate names without importing
the package.  The program under test sees only the config objects built
here; the workload seed decides each call's master seed.
"""
from __future__ import annotations

import copy
import random

# Each workload exercises a different layer mix (approximate shares of a
# call at one thread):
#   copula-gumbel        sample_rows (positive-stable mixture) ~87%
#   general-indep        quantile_transform ~57%, plain uniform draw ~26%
#   representation       correlated_ratio_sample ~60%, grid of 81 cells
#   representation-wide  ecdf_on_grid on 9^5 cells with an R x 9^5 mask ~55%
# R per call is sized so a 25-second run holds about ten calls: the host's
# speed drifts within a run, and a median over many calls resists that
# better than a few long ones.
WORKLOADS = {
    "copula-gumbel": {
        "kind": "copula",
        "copula": {"kind": "gumbel", "d": 2, "p": 2.0},
        "n": 20000,
        "replications": 500,
        "gate_ks": False,
    },
    "general-indep": {
        "kind": "general",
        "copula": {"kind": "independence", "d": 3},
        "margins": [{"kind": "normal"}, {"kind": "pareto", "alpha": 1.0}, {"kind": "triangular"}],
        "intermediate": {"rules": [{"c": 1.0, "gamma": 0.65}] * 3, "convention": "n-k+1"},
        "n": 20000,
        "replications": 500,
        "gate_ks": False,
    },
    "representation": {
        "kind": "representation",
        "copula": {"kind": "gumbel", "d": 2, "p": 2.0},
        "n": 10000,
        "replications": 150,
    },
    "representation-wide": {
        "kind": "representation",
        "copula": {"kind": "gumbel", "d": 5, "p": 2.0},
        "n": 500,
        "replications": 1000,
    },
}


def call_seeds(workload_seed: int):
    """Endless sequence of per-call master seeds drawn from the workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(2**31)


def config_json(workload: str, master_seed: int, replications: int | None = None) -> dict:
    """The experiment config for one call, as the JSON object the program parses."""
    obj = copy.deepcopy(WORKLOADS[workload])
    obj["seed"] = master_seed
    if replications is not None:
        obj["replications"] = replications
    return obj

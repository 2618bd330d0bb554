"""The benchmark's traced replay rebuilds each call's order statistics as
``componentwise_os(quantile_transform(sample_rows(...)))``, while the
runners select them through ``os_selector`` in blocks of replications.
The two must agree bit for bit at every workload and across blocks, or
``--trace 1`` reports a mismatch.  The replay also calls the public ratio
sampler and grid distance, so the representation distances it rebuilds
must equal the report's, within one chunk of ratios and across two.
Every entry point ``--trace 1`` calls runs here on every workload, so a
change to a signature the replay uses fails these tests."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mvos.streams as streams
from mvos.copula import os_selector, sample_rows
from mvos.experiment import _collect_os, config_from_json, run_experiment
from mvos.margins import quantile_transform
from mvos.orderstats import componentwise_os
from mvos.streams import stream_rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS, REPLAY = _load("workloads"), _load("replay")


# every workload with a few replications at one thread, and copula-gumbel
# and general-indep with enough at two threads that each thread's range
# spans two blocks (64 and 35 replications a block)
CASES = [pytest.param(workload, 3, 1, id=workload) for workload in sorted(WORKLOADS.WORKLOADS)]
CASES.append(pytest.param("copula-gumbel", 130, 2, id="copula-gumbel-two-blocks-per-thread"))
CASES.append(pytest.param("general-indep", 75, 2, id="general-indep-two-blocks-per-thread"))


@pytest.mark.parametrize("workload,replications,threads", CASES)
def test_selection_equals_the_replayed_composition(workload, replications, threads):
    config = config_from_json(WORKLOADS.config_json(workload, 7, replications=replications))
    for n, seed in REPLAY.sizes(config):
        got, _ = _collect_os(config, n, seed, threads)
        ranks = config.intermediate.ranks(n)
        if replications > 3:
            block = min(streams.BLOCK_REPLICATIONS, streams.BLOCK_ELEMENTS // os_selector(config.copula, n, ranks)[1])
            assert replications // threads > block
        for rep in range(config.replications):
            rows = sample_rows(config.copula, n, stream_rng(seed, rep))
            if config.margins:
                rows = quantile_transform(config.margins, rows)
            assert np.array_equal(got[rep], componentwise_os(rows, ranks))


@pytest.mark.parametrize("replications,threads", [(3, 1), (65, 2)])
@pytest.mark.parametrize("workload", ["representation", "representation-wide"])
def test_replayed_distances_equal_the_report(workload, replications, threads):
    config = config_from_json(WORKLOADS.config_json(workload, 7, replications=replications))
    report = run_experiment(config, threads)
    want = {tag: entry["distance"] for tag, entry in report.distances.items()}
    assert REPLAY.replay(config, REPLAY.Tracer())["distances"] == want


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_trace_entry_points_run_on_every_workload(workload):
    # what perfbench/worker.py's traced call reads, at R = 3 on one thread
    config = config_from_json(WORKLOADS.config_json(workload, 7, replications=3))
    report = run_experiment(config)
    sigma, lam = REPLAY.closed_forms(config)
    assert np.array_equal(sigma, report.theoretical_sigma)
    assert lam is None if report.lambda_used is None else np.array_equal(lam, report.lambda_used)
    tracer = REPLAY.Tracer()
    replayed = REPLAY.replay(config, tracer)
    same, detail = REPLAY.matches(report, replayed)
    assert same, detail
    selfs = tracer.self_times(replayed["root"])
    assert {"experiment.replay", "dnorm.sigma", "diagnostics.ks"} <= set(selfs)
    counts = REPLAY.work_counts(config)
    assert counts["copula.sample_rows.calls"] == 3 * len(REPLAY.sizes(config))
    name, size = REPLAY.largest_array(config)
    assert isinstance(name, str) and size > 0
    assert REPLAY.stable_probe_us_per_row(config) >= 0.0

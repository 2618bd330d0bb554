"""Traced replay of one experiment call through the package's public functions.

The replay composes the same public calls the runners make, in the same
order and with the same streams, so its empirical covariance and distances
must equal the runner's report bit for bit.  A span is recorded around each
call into a layer; spans stay in memory and are written out by the caller.

Every kind passes through every stage.  A stage the kind skips (margins on
a copula run, the ratio sampler on a moment run) still gets its span, so a
layer a workload bypasses reads its bypass cost, near zero, instead of
having no value.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from mvos.chi2rep import correlated_ratio_sample, representation_distance
from mvos.copula import GumbelLogistic, log_positive_stable, sample_rows
from mvos.diagnostics import ks_against_standard_normal, ks_critical_value, ks_pvalue, moment_summary
from mvos.dnorm import is_positive_semidefinite, lambda_matrix
from mvos.margins import norming_constants, quantile_transform
from mvos.orderstats import (
    OSBatch,
    componentwise_os,
    standardize_copula_case,
    standardize_general_case,
    theoretical_sigma,
    theoretical_sigma_equal_k,
)
from mvos.streams import derive_seed, stream_rng

GRID_LEVELS = 9  # representation_distance's default quantile grid per axis
PROBE_REPEATS = 9


class Tracer:
    """In-memory spans: [name, start, end, parent index, replication id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int = -1):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, rep]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self, root: int) -> dict[str, tuple[int, float]]:
        """Per name, (span count, summed self seconds) over span ``root`` and
        every span recorded after it, which must all descend from it.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans[1:]:
            child_time[parent - root] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), inner in zip(spans, child_time):
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + (end - start) - inner)
        return out


def closed_forms(config):
    """Sigma and, for representation runs, Lambda, each through the PSD check.

    Returns (sigma, lam); lam is None for moment runs.
    """
    if config.kind == "representation":
        sigma = theoretical_sigma_equal_k(config.copula.tail_dnorm, config.copula.d)
        lam = lambda_matrix(sigma)
        is_positive_semidefinite(lam)
        return sigma, lam
    sigma = theoretical_sigma(config.copula.tail_dnorm, config.intermediate.ratio_matrix())
    is_positive_semidefinite(sigma)
    return sigma, None


def sizes(config) -> list[tuple[int, int]]:
    """(n, collection seed) pairs as the runner uses them."""
    if config.kind == "representation":
        return [(nn, derive_seed(config.seed, 1, nn)) for nn in (config.n, 2 * config.n)]
    return [(config.n, config.seed)]


def replay(config, tracer: Tracer) -> dict:
    """Rerun one experiment from public functions under spans.

    Returns the values the runner reports (``empirical_cov`` or
    ``distances``) plus the replay's root span index.
    """
    d = config.copula.d
    reps = config.replications
    inter = config.intermediate
    representation = config.kind == "representation"
    root = len(tracer.spans)
    distances = {}
    with tracer.span("experiment.replay"):
        with tracer.span("dnorm.sigma"):
            _, lam = closed_forms(config)
        for tag, (nn, collect_seed) in zip(("n", "2n"), sizes(config)):
            ranks = inter.ranks(nn)
            ks = inter.k_vector(nn)
            raw = np.empty((reps, d))
            for rep in range(reps):
                with tracer.span("streams.stream_rng", rep):
                    rng = stream_rng(collect_seed, rep)
                with tracer.span("copula.sample_rows", rep):
                    rows = sample_rows(config.copula, nn, rng)
                with tracer.span("margins.quantile_transform", rep):
                    if config.margins:
                        rows = quantile_transform(config.margins, rows)
                with tracer.span("orderstats.componentwise_os", rep):
                    raw[rep] = componentwise_os(rows, ranks)
            with tracer.span("chi2rep.correlated_ratio_sample"):
                if representation:
                    k = int(ks[0])
                    ratios = correlated_ratio_sample(lam, nn, k, reps, derive_seed(config.seed, 2, nn))
            with tracer.span("chi2rep.representation_distance"):
                if representation:
                    batch = OSBatch(raw, nn, tuple(int(v) for v in ks), inter.convention, config.seed, "raw")
                    distances[tag] = representation_distance(batch, ratios)
        with tracer.span("orderstats.standardize"):
            if config.kind == "copula":
                standardized = standardize_copula_case(raw, config.n, ks)
            elif config.kind == "general":
                constants = [norming_constants(m, config.n, int(k)) for m, k in zip(config.margins, ks)]
                standardized = standardize_general_case(raw, constants)
        with tracer.span("diagnostics.moment_summary"):
            cov = None if representation else moment_summary(standardized).cov
        with tracer.span("diagnostics.ks"):
            if not representation:
                ks_critical_value(config.ks_level, reps)
                for i in range(d):
                    ks_pvalue(ks_against_standard_normal(standardized[:, i]), reps)
    return {"root": root, "empirical_cov": cov, "distances": distances}


def stable_probe_us_per_row(config) -> float:
    """Median microseconds per row of the positive-stable draw at the workload's n.

    Copulas without a positive-stable mixture make no such draw; for them
    the probe times the empty stage.
    """
    gumbel = isinstance(config.copula, GumbelLogistic) and config.copula.p > 1.0
    n = config.n
    times = []
    for rep in range(PROBE_REPEATS):
        rng = stream_rng(config.seed, 7, rep)
        t0 = perf_counter()
        if gumbel:
            log_positive_stable(1.0 / config.copula.p, n, rng)
        times.append(perf_counter() - t0)
    return float(np.median(times)) * 1e6 / n


def work_counts(config) -> dict[str, float]:
    """Per-call work counts computed from the call's arguments."""
    d = config.copula.d
    reps = config.replications
    representation = config.kind == "representation"
    ns = [nn for nn, _ in sizes(config)]
    rows = reps * sum(ns)
    transformed = rows * d if config.margins else 0
    cells = GRID_LEVELS**d if representation else 0
    return {
        "streams.stream_rng.calls": reps * len(ns),
        "copula.sample_rows.calls": reps * len(ns),
        "copula.sample_rows.rows": rows,
        "margins.quantile_transform.values": transformed,
        "margins.useful_ratio": reps * d / transformed if transformed else 0.0,
        "orderstats.componentwise_os.elements": rows * d,
        "chi2rep.correlated_ratio_sample.normals": reps * sum(2 * (nn + 1) * d for nn in ns) if representation else 0,
        # two ecdfs (order statistics and ratios) per size
        "chi2rep.ecdf_on_grid.cells": 2 * len(ns) * cells,
        "chi2rep.ecdf_on_grid.mask_bytes": reps * cells,
    }


def largest_array(config) -> tuple[str, int]:
    """Name and computed byte size of the largest array one call allocates."""
    d = config.copula.d
    n_max = max(nn for nn, _ in sizes(config))
    candidates = {"sample_rows n x d float64": n_max * d * 8}
    if config.kind == "representation":
        candidates["ratio block x d float64"] = min(2 * (n_max + 1), 65536) * d * 8
        candidates["ecdf mask R x 9^d bool"] = config.replications * GRID_LEVELS**d
    name = max(candidates, key=candidates.get)
    return name, candidates[name]


def matches(report, replayed) -> tuple[bool, str]:
    """Bit-for-bit comparison of the replay with the runner's report."""
    if report.kind == "representation":
        want = {tag: entry["distance"] for tag, entry in report.distances.items()}
        got = replayed["distances"]
        return want == got, f"distances report={want} replay={got}"
    ok = np.array_equal(report.empirical_cov, replayed["empirical_cov"])
    return ok, f"empirical_cov report={report.empirical_cov.tolist()} replay={replayed['empirical_cov'].tolist()}"

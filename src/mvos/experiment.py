"""Declarative Monte Carlo experiments against the closed-form limit law.

Three experiment kinds share one report shape:

* ``copula``: sample the copula directly, extract the (n - k_i)-th order
  statistic per component, standardize with the copula-scale constants,
  and compare the empirical moments with the theoretical covariance.
* ``general``: push the copula sample through marginal quantile
  transforms, extract the (n - k_i + 1)-th order statistics, and
  standardize with the per-margin norming constants; the target
  covariance is the same.
* ``representation``: compare raw order-statistic vectors against the
  correlated normal-square-ratio construction at sample sizes n and 2n.

``run_experiment`` is the one runner body: for every kind it starts the
timer, computes Sigma from the tail norm and the config's limit rank
ratios, checks that it is a covariance and assembles the report.  Each
kind's body only samples and summarizes, and returns its criteria and
the report fields it owns.  A banded criterion (``sigma[i,j]``,
``ks[i]``) passes iff |observed - target| <= tolerance (``_banded``).

Each replication's order statistics come from ``copula.os_selector``,
which draws only a sample's top values, O(k) of them for the ranks n - k.
Without a positive-stable frailty (independence, comonotone, Gumbel with
p = 1) a column's order statistic is a sum of Rényi spacings, so it draws
exactly n - r + 1 spacings per column for the rank r, at any rank (one
sequence for comonotone columns), and sums them; Gumbel with p > 1 draws
whole rows in decreasing order of their maximum and stops once every
column's order statistic is known, or, at p != 2 and ranks deep into the
sample, draws all n rows.  For ``general`` the marginal quantile
functions then run on the R x d selected values only.  Monotone maps
commute with order statistics, so this gives the same values as
transforming all n x d drawn rows and selecting afterwards.  Config
validation bounds the values a replication draws at once by the count
``copula.os_selector`` returns with its selector, the size the
selector's blocks are cut by: the spacings, Gumbel's first batch of top
rows, or its n rows; it builds the selector and draws nothing.

Every experiment is a pure function of (config, master seed).  Replication
r draws from the stream keyed by r, so results do not depend on the worker
count; aggregation reads the replication matrix in index order.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .chi2rep import NotPositiveSemidefiniteError, check_correlation, correlated_ratio_sample, representation_distance
from .copula import CopulaModel, os_selector
from .diagnostics import ks_against_standard_normal, ks_critical_value, ks_pvalue, moment_summary
from .dnorm import is_positive_semidefinite, lambda_matrix
from .margins import MarginalModel, norming_constants, quantile_transform
from .orderstats import (
    IntermediateSpec,
    OSBatch,
    standardize_copula_case,
    standardize_general_case,
    theoretical_sigma,
)
from .streams import REPLICATION_ELEMENTS, check_threads, derive_seed, replicate
from .wire import InvalidConfigError, from_json, to_json

__all__ = [
    "TolerancePolicy",
    "ExperimentConfig",
    "CriterionResult",
    "ExperimentReport",
    "InvalidConfigError",
    "config_from_json",
    "config_to_json",
    "run_experiment",
    "read_report_csv",
]

DEFAULT_KS_LEVEL = 1e-3


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass iff |observed - target| <= max(abs_tol, z * stderr)."""

    abs_tol: float = 0.05
    z: float = 4.0

    def __post_init__(self):
        for name in ("abs_tol", "z"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfigError(f"tolerance {name} must be finite and >= 0, got {value!r}")

    def bound(self, stderr: float) -> float:
        return max(self.abs_tol, self.z * stderr)


@dataclass(frozen=True)
class ExperimentConfig:
    copula: CopulaModel
    n: int
    replications: int
    seed: int
    kind: str = "copula"
    margins: Optional[tuple[MarginalModel, ...]] = None
    intermediate: Optional[IntermediateSpec] = None
    tolerance: TolerancePolicy = TolerancePolicy()
    ks_level: float = DEFAULT_KS_LEVEL
    gate_ks: bool = True
    lambda_override: Optional[np.ndarray] = None
    seed_overridden: bool = False

    def __post_init__(self):
        if self.kind not in ("copula", "general", "representation"):
            raise InvalidConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n < 2:
            raise InvalidConfigError("n must be >= 2")
        # ranks are int64, and a representation run also samples at 2n
        sizes = (self.n, 2 * self.n) if self.kind == "representation" else (self.n,)
        if max(sizes) >= 2**63:
            raise InvalidConfigError(f"n = {self.n} is too large: every sample size must stay below 2**63")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        # a moment summary needs two replications, a distance one; the
        # replication indices are 32-bit spawn key words (streams.stream_states)
        least = 1 if self.kind == "representation" else 2
        if not least <= self.replications <= 2**32:
            raise InvalidConfigError(f"{self.kind} experiments need {least} <= replications <= 2**32")
        # the grid distance counts rows in 10^d int64 cells, about 2.4 GB of tables at d = 8
        if self.kind == "representation" and self.copula.d >= 8:
            raise InvalidConfigError(f"representation experiments need d <= 7, got d = {self.copula.d}")
        if not 0 < self.ks_level < 1:
            raise InvalidConfigError("ks_level must lie in (0, 1)")
        if self.kind == "general":
            if self.margins is None:
                raise InvalidConfigError("general experiments require margins")
            if len(self.margins) != self.copula.d:
                raise InvalidConfigError(
                    f"{len(self.margins)} margins for a dimension-{self.copula.d} copula"
                )
        elif self.margins is not None:
            raise InvalidConfigError(f"{self.kind} experiments take no margins")
        inter = self.intermediate
        if inter is None:
            inter = IntermediateSpec.equal(self.copula.d, convention=_default_convention(self.kind))
            object.__setattr__(self, "intermediate", inter)
        if inter.d != self.copula.d:
            raise InvalidConfigError("intermediate spec dimension mismatch")
        # surface out-of-band k values, ratio limits, norming constants and
        # the size of a replication's first draw now rather than mid-run
        try:
            ks = inter.k_vector(self.n)
            ratios = inter.ratio_matrix()
            for margin, k in zip(self.margins or (), ks):
                norming_constants(margin, self.n, int(k))
            drawn = {nn: os_selector(self.copula, nn, inter.ranks(nn))[1] for nn in sizes}
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc
        for nn, elements in drawn.items():
            if elements > REPLICATION_ELEMENTS:
                raise InvalidConfigError(
                    f"a replication at n = {nn} would draw {elements} values at once, above the cap of "
                    f"{REPLICATION_ELEMENTS}: use a smaller k rule")
        # the validated limit ratios, kept for run_experiment's Sigma; not a
        # field, so the wire format and the reports do not carry it
        object.__setattr__(self, "_ratios", ratios)
        if self.kind == "representation" and len(set(inter.rules)) != 1:
            raise InvalidConfigError("the representation comparison needs one common k rule")
        if self.kind == "representation" and inter.convention != "n-k":
            # the ratios model rank n - k; selecting n - k + 1 would compare different laws
            raise InvalidConfigError("the representation comparison needs the n-k convention")
        if self.lambda_override is not None:
            self._check_lambda_override()

    def _check_lambda_override(self) -> None:
        """The sampler's shape checks, run early; a non-PSD override is refused at run time."""
        if self.kind != "representation":
            raise InvalidConfigError(f"lambda_override applies to representation experiments, not {self.kind}")
        try:
            lam = check_correlation(self.lambda_override)
        except ValueError as exc:
            raise InvalidConfigError(f"bad lambda_override: {exc}") from exc
        if lam.shape[0] != self.copula.d:
            raise InvalidConfigError(f"lambda_override is {lam.shape[0]}x{lam.shape[0]}, the copula has d = {self.copula.d}")
        object.__setattr__(self, "lambda_override", lam)


def _default_convention(kind: str) -> str:
    return "n-k+1" if kind == "general" else "n-k"


@dataclass(frozen=True)
class CriterionResult:
    name: str
    observed: float
    target: float
    tolerance: float
    passed: bool
    gated: bool = True


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    theoretical_sigma: np.ndarray
    criteria: list[CriterionResult]
    passed: bool
    runtime_seconds: float
    empirical_cov: Optional[np.ndarray] = None
    cov_stderr: Optional[np.ndarray] = None
    mean: Optional[np.ndarray] = None
    mean_stderr: Optional[np.ndarray] = None
    ks_stats: Optional[np.ndarray] = None
    ks_pvalues: Optional[np.ndarray] = None
    ks_critical: Optional[float] = None
    lambda_used: Optional[np.ndarray] = None
    lambda_min_eigenvalue: Optional[float] = None
    distances: Optional[dict] = None

    def as_dict(self) -> dict:
        """Emission view of the report.

        Wall-clock runtime is intentionally absent: emitted reports are
        byte-identical across reruns of the same configuration.
        """
        out = to_json(self)
        del out["runtime_seconds"]
        return {key: val for key, val in out.items() if val is not None}


# ---------------------------------------------------------------------------
# config wire format

def config_to_json(config: ExperimentConfig) -> dict:
    obj = to_json(config)
    if config.lambda_override is None:
        del obj["lambda_override"]  # an unset override is left out, not written as null
    return obj


def config_from_json(obj: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse a config.

    A missing ``kind`` is inferred from the margins and a missing rank
    convention from the kind; ``seed_override`` replaces the seed and flags it.
    """
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"an experiment config is a JSON object, got {obj!r}")
    obj = dict(obj)
    obj["kind"] = obj.get("kind") or ("general" if obj.get("margins") else "copula")
    inter = obj.get("intermediate")
    if isinstance(inter, dict) and not inter.get("convention"):
        obj["intermediate"] = {**inter, "convention": _default_convention(obj["kind"])}
    # the override flag records MVOS_SEED only; a config cannot set it
    obj["seed_overridden"] = seed_override is not None
    if seed_override is not None:
        obj["seed"] = seed_override
    return from_json(ExperimentConfig, obj)


# ---------------------------------------------------------------------------
# sampling cores

def _collect_os(
    config: ExperimentConfig,
    n: int,
    collect_seed: int,
    threads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replication matrix of componentwise order statistics at size n.

    Returns (values, k_vector); values are raw order statistics, on the
    margin scale when the config has margins and on the copula scale
    otherwise.  ``os_selector`` gives each block of replications'
    copula-scale values and the margins' quantile functions then run once
    on the R x d selected values; this equals mapping all n x d draws first.
    """
    copula = config.copula
    ranks = config.intermediate.ranks(n)
    values = replicate(np.empty((config.replications, copula.d)), collect_seed, threads,
                       *os_selector(copula, n, ranks))
    if config.margins is not None:
        values = quantile_transform(config.margins, values)
    return values, config.intermediate.k_vector(n)


def _banded(name: str, observed: float, target: float, tolerance: float, gated: bool = True) -> CriterionResult:
    """A criterion that passes iff |observed - target| <= tolerance."""
    return CriterionResult(name, observed, target, tolerance, bool(abs(observed - target) <= tolerance), gated)


def _moment_criteria(summary, sigma: np.ndarray, tol: TolerancePolicy) -> list[CriterionResult]:
    d = sigma.shape[0]
    return [
        _banded(f"sigma[{i},{j}]", float(summary.cov[i, j]), float(sigma[i, j]), tol.bound(float(summary.cov_se[i, j])))
        for i in range(d)
        for j in range(i, d)
    ]


def _ks_criteria(values: np.ndarray, level: float, gated: bool) -> tuple[list[CriterionResult], np.ndarray, np.ndarray, float]:
    """KS statistics are >= 0, so the band around target 0 is stat <= crit."""
    reps, d = values.shape
    crit = ks_critical_value(level, reps)
    stats = ks_against_standard_normal(values)
    pvals = np.array([ks_pvalue(stat, reps) for stat in stats])
    results = [_banded(f"ks[{i}]", float(stats[i]), 0.0, crit, gated) for i in range(d)]
    return results, stats, pvals, crit


def _run_moments(config: ExperimentConfig, sigma: np.ndarray, threads: int) -> tuple[list[CriterionResult], dict]:
    """The copula and general kinds: order statistics standardized on the
    copula scale (no margins) or with the margins' norming constants, then
    moments and KS statistics against N(0, Sigma)."""
    raw, ks = _collect_os(config, config.n, config.seed, threads)
    if config.margins is None:
        standardized = standardize_copula_case(raw, config.n, ks)
    else:
        constants = [
            norming_constants(margin, config.n, int(k))
            for margin, k in zip(config.margins, ks)
        ]
        standardized = standardize_general_case(raw, constants)
    summary = moment_summary(standardized)
    criteria = _moment_criteria(summary, sigma, config.tolerance)
    ks_results, stats, pvals, crit = _ks_criteria(standardized, config.ks_level, config.gate_ks)
    return criteria + ks_results, dict(
        empirical_cov=summary.cov,
        cov_stderr=summary.cov_se,
        mean=summary.mean,
        mean_stderr=summary.mean_se,
        ks_stats=stats,
        ks_pvalues=pvals,
        ks_critical=crit,
    )


def _run_representation(config: ExperimentConfig, sigma: np.ndarray, threads: int) -> tuple[list[CriterionResult], dict]:
    """The representation kind: raw order statistics against the correlated
    chi-square ratios at n and 2n, both arms drawn at the same (n, k).
    Lambda is gated before any sampling."""
    lam = config.lambda_override if config.lambda_override is not None else lambda_matrix(sigma)
    ok, min_eig = is_positive_semidefinite(lam)
    if not ok:
        raise NotPositiveSemidefiniteError(min_eig)

    distances = {}
    for tag, nn in (("n", config.n), ("2n", 2 * config.n)):
        raw, ks = _collect_os(config, nn, derive_seed(config.seed, 1, nn), threads)
        k = int(ks[0])
        batch = OSBatch(
            values=raw,
            n=nn,
            k=tuple(int(v) for v in ks),
            convention=config.intermediate.convention,
            seed=config.seed,
            scale="raw",
        )
        ratios = correlated_ratio_sample(lam, nn, k, config.replications, derive_seed(config.seed, 2, nn), threads)
        distances[tag] = {"n": nn, "k": k, "distance": representation_distance(batch, ratios)}

    d_n = distances["n"]["distance"]
    d_2n = distances["2n"]["distance"]
    criteria = [
        # reported, not gated: for Gumbel p = 2 the exact distance falls
        # only 16% from n = 1e4 to 2e4, and the Monte Carlo distance is
        # mostly noise at any practical R, so the comparison is a coin flip
        CriterionResult(
            name="representation_distance_decreases",
            observed=d_2n,
            target=d_n,
            tolerance=0.0,
            passed=d_2n < d_n,
            gated=False,
        )
    ]
    return criteria, dict(lambda_used=lam, lambda_min_eigenvalue=min_eig, distances=distances)


# ---------------------------------------------------------------------------
# the runner

def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run the config's experiment with ``threads`` workers.

    Every kind shares one target, Sigma from the tail norm and the
    config's limit rank ratios (all 1 for a representation config, whose
    k rule is common), checked here to be a covariance.  The kind's body
    then samples and summarizes, and the report is assembled here from
    the criteria and fields it returns.

    ``copula`` and ``general`` configs check the limit law: standardized
    order statistics against N(0, Sigma), on the copula scale or with the
    margins' canonical norming constants.  ``representation`` configs
    compare raw order statistics with the correlated chi-square ratios at
    n and 2n and record whether the grid distance decreased, as an
    ungated criterion; they refuse (before any sampling) when the
    entrywise square root of the limit covariance is not positive
    semidefinite, reporting the offending eigenvalue.  ``threads``
    outside [1, ``streams.MAX_THREADS``] raise ``InvalidConfigError``
    before any of that.
    """
    check_threads(threads, InvalidConfigError)
    start = time.perf_counter()
    sigma = theoretical_sigma(config.copula.tail_dnorm, config._ratios)
    ok, min_eig = is_positive_semidefinite(sigma)
    if not ok:
        # sigma is a covariance by construction; a violation means a broken norm
        raise RuntimeError(f"theoretical covariance not PSD (eigenvalue {min_eig:.3e})")
    body = _run_representation if config.kind == "representation" else _run_moments
    criteria, summary = body(config, sigma, threads)
    return ExperimentReport(
        kind=config.kind,
        config=config_to_json(config),
        theoretical_sigma=sigma,
        criteria=criteria,
        passed=all(c.passed for c in criteria if c.gated),
        runtime_seconds=time.perf_counter() - start,
        **summary,
    )


# ---------------------------------------------------------------------------
# emission

def report_json_bytes(report: ExperimentReport) -> bytes:
    text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    return (text + "\n").encode()


def _csv_rows(report: ExperimentReport):
    """One table per array field of the report, in field order: a matrix
    entry per row with its i and j, a vector entry with i and an empty j."""
    yield ("table", "i", "j", "value")
    for field in fields(report):
        table = getattr(report, field.name)
        if isinstance(table, np.ndarray):
            for (i, *j), value in np.ndenumerate(table):
                yield (field.name, i, *(j or [""]), repr(float(value)))


def report_csv_bytes(report: ExperimentReport) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in _csv_rows(report):
        writer.writerow(row)
    return buf.getvalue().encode()


def report_text(report: ExperimentReport) -> str:
    lines = [f"experiment kind: {report.kind}", "theoretical sigma:"]
    lines.extend("  " + "  ".join(f"{v:12.6f}" for v in row) for row in report.theoretical_sigma)
    if report.empirical_cov is not None:
        lines.append("empirical covariance:")
        lines.extend("  " + "  ".join(f"{v:12.6f}" for v in row) for row in report.empirical_cov)
    if report.distances is not None:
        for tag, entry in report.distances.items():
            lines.append(f"distance[{tag}]: n={entry['n']} k={entry['k']} value={entry['distance']:.6f}")
    lines.append("criteria:")
    for c in report.criteria:
        status = "pass" if c.passed else "FAIL"
        gate = "" if c.gated else " (ungated)"
        lines.append(
            f"  {c.name:<36} {status}{gate}  observed={c.observed:+.6f}"
            f"  target={c.target:+.6f}  tol={c.tolerance:.6f}"
        )
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def read_report_csv(path: str) -> dict[str, np.ndarray]:
    """Reassemble the flat CSV dump into named matrices and vectors."""
    cells: dict[str, dict[tuple[int, int], float]] = {}
    vectors: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for name, i, j, value in reader:
            if j == "":
                vectors.setdefault(name, {})[int(i)] = float(value)
            else:
                cells.setdefault(name, {})[(int(i), int(j))] = float(value)
    out: dict[str, np.ndarray] = {}
    for name, entries in cells.items():
        rows = 1 + max(i for i, _ in entries)
        cols = 1 + max(j for _, j in entries)
        m = np.empty((rows, cols))
        for (i, j), v in entries.items():
            m[i, j] = v
        out[name] = m
    for name, entries in vectors.items():
        v = np.empty(1 + max(entries))
        for i, val in entries.items():
            v[i] = val
        out[name] = v
    return out

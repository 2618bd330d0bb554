"""One workload process of the benchmark; started by run.py, not by hand.

Modes:
  --setup-only   import the package, parse and validate the first call's
                 config and compute the closed forms, then print the
                 perf_counter stamp (CLOCK_MONOTONIC, shared with the
                 parent) at which the first replication could begin.
  default        the same set-up, then timed calls of the public API
                 (config_from_json -> run_experiment -> report_json_bytes),
                 each between two runs of the reference kernel, until the
                 time budget is spent; tracing is off.
  --trace        pairs of an untraced call and a traced replay of it.

Prints human-readable lines, then one JSON line for run.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import call_seeds, config_json

# the package under test is the checkout's, never an installed copy
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))
import mvos  # noqa: E402
from mvos.experiment import config_from_json, report_json_bytes, run_experiment  # noqa: E402

import numpy as np  # noqa: E402
import replay  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def check(report) -> str:
    """Empty when the call's output is sound, else the reason it is not.

    The statistical criteria (the moment bands and "the distance
    decreases") are counted by the caller, not checked here: they fail by
    chance on correct code, so gating them would make failures random.
    """
    if report.kind == "representation":
        bad = {tag: e["distance"] for tag, e in report.distances.items()
               if not (math.isfinite(e["distance"]) and 0.0 <= e["distance"] <= 1.0)}
        return f"distance outside [0, 1]: {bad}" if bad else ""
    cov = report.empirical_cov
    if not (np.all(np.isfinite(cov)) and np.array_equal(cov, cov.T) and np.all(np.diag(cov) > 0)):
        return f"empirical covariance is not a covariance: {cov.tolist()}"
    return ""


def timed_call(obj) -> dict:
    """One public-API call, timed end to end, checked and digested."""
    rec = {"seed": obj["seed"], "reps": obj["replications"], "error": "", "sha256": ""}
    t0 = perf_counter()
    try:
        config = config_from_json(obj)
        report = run_experiment(config, threads=1)
        data = report_json_bytes(report)
    except Exception as exc:  # any raise is a failed call, counted against attempts
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["wall_s"] = perf_counter() - t0
    rec["error"] = check(report)
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    if report.kind == "representation":
        d = report.distances
        rec["decreased"] = d["2n"]["distance"] < d["n"]["distance"]
    else:
        rec["moments_missed"] = [c.name for c in report.criteria
                                 if c.gated and c.name.startswith("sigma[") and not c.passed]
    rec["_config"], rec["_report"] = config, report
    return rec


def reference_s() -> float:
    """Seconds one fixed NumPy kernel takes now; it shares no code with mvos.

    The host's speed swings by a quarter or more between minutes, and by as
    much within seconds.  Timed just before and after each call, this kernel
    rises and falls with it, so reps/s times its duration stays steady while
    any change in the package still shows.  Its mix follows the calls': Philox
    streams, exponentials, log/exp and one selection per block.
    """
    t0 = perf_counter()
    for block in range(160):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12345, spawn_key=(block,))))
        y = np.exp(-np.exp(np.log(rng.exponential(size=40000)) / 2.0))
        np.partition(y, 39800)
    return perf_counter() - t0


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, read from sysfs."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload: str, seed: int, config) -> dict:
    import scipy

    name, size = replay.largest_array(config)
    return {
        "workload": workload,
        "workload_seed": seed,
        "n": config.n,
        "d": config.copula.d,
        "R": config.replications,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "llc_bytes": llc_bytes(),
        "largest_array": name,
        "largest_array_bytes_computed": size,
    }


def run_calls(first, seeds, args, start, call) -> list[dict]:
    """``call`` on each config while the next is expected to fit the budget."""
    records, obj, last = [], first, 0.0
    while not records or perf_counter() - start + last <= args.seconds:
        t = perf_counter()
        rec = call(obj)
        records.append(rec)
        print(f"call {len(records) - 1}: seed={rec['seed']} reps={rec['reps']} "
              f"wall_s={rec.get('wall_s', float('nan')):.4f} sha256={rec['sha256']} "
              f"{'FAIL ' + rec['error'] if rec['error'] else 'ok'}", flush=True)
        last = perf_counter() - t
        obj = config_json(args.workload, next(seeds), args.replications)
    return records


def calibrated_call(obj) -> dict:
    """timed_call between two runs of the reference kernel."""
    before = reference_s()
    rec = timed_call(obj)
    rec["ref_s"] = 0.5 * (before + reference_s())
    return rec


def traced_call(tracer, layers: list, obj) -> dict:
    """timed_call, then a traced replay of it whose per-layer numbers go to ``layers``."""
    rec = timed_call(obj)
    if "_report" not in rec:
        return rec
    config, report = rec["_config"], rec["_report"]
    with tracer.span("experiment.report_json_bytes"):
        report_json_bytes(report)
    json_self = tracer.spans[-1][2] - tracer.spans[-1][1]
    replayed = replay.replay(config, tracer)
    root = tracer.spans[replayed["root"]]
    traced_s = root[2] - root[1]
    same, detail = replay.matches(report, replayed)
    if not same:
        rec["error"] = rec["error"] or "replay differs from report"
        print(f"replay MISMATCH seed={rec['seed']}: {detail}", flush=True)
    selfs = tracer.self_times(replayed["root"])
    row = {f"{name}.self_s": s for name, (_, s) in selfs.items() if name != "experiment.replay"}
    row.update(replay.work_counts(config))
    row["copula.log_positive_stable.us_per_row"] = replay.stable_probe_us_per_row(config)
    row["experiment.run.s"] = report.runtime_seconds
    row["experiment.unaccounted_s"] = report.runtime_seconds - (traced_s - selfs["experiment.replay"][1])
    row["experiment.report_json_bytes.self_s"] = json_self
    # traced reps/s over untraced reps/s of the same call
    row["trace.overhead_ratio"] = report.runtime_seconds / traced_s
    layers.append(row)
    print(f"replay: seed={rec['seed']} traced_s={traced_s:.4f} bit_identical={same}", flush=True)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--replications", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(mvos.__file__).resolve().parent != (SRC / "mvos").resolve():
        raise SystemExit(f"imported mvos from {mvos.__file__}, not from {SRC}")
    seeds = call_seeds(args.seed)
    # set-up ends where the first replication could begin
    first = config_json(args.workload, next(seeds), args.replications)
    replay.closed_forms(config_from_json(first))
    setup_end = perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    config = config_from_json(first)
    facts = machine_facts(args.workload, args.seed, config)
    print("facts " + json.dumps(facts), flush=True)
    result = {"setup_end": setup_end}
    if args.trace:
        tracer, layers = replay.Tracer(), []
        records = run_calls(first, seeds, args, setup_end, lambda obj: traced_call(tracer, layers, obj))
        # median_low reports one call's measured value, and keeps counts whole
        result["layers"] = {name: statistics.median_low(row[name] for row in layers) for name in layers[0]} if layers else {}
        transformed = replay.work_counts(config)["margins.quantile_transform.values"]
        print(f"margins.useful_ratio base: {config.replications * config.copula.d} order statistics kept"
              f" of {transformed} values transformed", flush=True)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"facts": facts, "spans": tracer.spans}))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(Path.cwd())}", flush=True)
    else:
        records = run_calls(first, seeds, args, setup_end, calibrated_call)
    result["calls"] = [{k: v for k, v in r.items() if not k.startswith("_")} for r in records]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The mvos benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Each
run starts one workload process (perfbench/worker.py) that calls the public
API, config_from_json -> run_experiment -> report_json_bytes, with
threads=1 for S seconds on configs generated from the seed.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  reps_per_ref  per call, replications / wall time times the mean duration
                of a fixed NumPy reference kernel timed just before and
                after the call (worker.reference_s); median over the calls.  The host's
                speed drifts by 25% or more between runs, which this
                cancels and raw reps/s does not.
  setup_s       interpreter start to the first replication (import, config
                parsing and validation, closed-form Sigma/Lambda and PSD
                gate); median of SETUP_SAMPLES fresh processes
  peak_rss_mb   ru_maxrss of the workload process
Raw reps_per_s (median of replications / wall time) and failed_ratio are
printed above the result but are not BENCHMARK.json metrics.
--trace 1 replays each call through the layers' public functions under
spans and prints the per-layer metrics (see replay.py).

Every call's output is checked; a call that raises or fails its check
counts as failed.  The statistical criteria are counted, not gated.  The
sha256 of every report is printed so runs can be compared byte for byte.
The last line is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # the workload process is one of them
RUN_LIMIT_S = 170  # every run, builds aside, ends within 180 s

END_TO_END = {"reps_per_ref": "reps/ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "streams.stream_rng.calls": "count",
    "streams.stream_rng.self_s": "s",
    "copula.sample_rows.calls": "count",
    "copula.sample_rows.self_s": "s",
    "copula.sample_rows.rows": "count",
    "copula.log_positive_stable.us_per_row": "us",
    "margins.quantile_transform.self_s": "s",
    "margins.quantile_transform.values": "count",
    "margins.useful_ratio": "ratio",
    "orderstats.componentwise_os.self_s": "s",
    "orderstats.componentwise_os.elements": "count",
    "orderstats.standardize.self_s": "s",
    "chi2rep.correlated_ratio_sample.self_s": "s",
    "chi2rep.correlated_ratio_sample.normals": "count",
    "chi2rep.representation_distance.self_s": "s",
    "chi2rep.ecdf_on_grid.cells": "count",
    "chi2rep.ecdf_on_grid.mask_bytes": "bytes",
    "diagnostics.moment_summary.self_s": "s",
    "diagnostics.ks.self_s": "s",
    "dnorm.sigma.self_s": "s",
    "experiment.run.s": "s",
    "experiment.unaccounted_s": "s",
    "experiment.report_json_bytes.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def worker(args, started: float, *flags: str) -> tuple[float, dict]:
    """Run the workload process; returns (spawn stamp, its JSON result line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    if args.replications is not None:
        cmd += ["--replications", str(args.replications)]
    t0 = perf_counter()
    # run() kills the process and waits for it when the timeout expires
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(RUN_LIMIT_S - (t0 - started), 1.0))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    return t0, json.loads(lines[-1])


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description="Run one mvos benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replications", type=int, default=None,
                    help="override R per call (self-test only; metrics are then not comparable)")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "mvos" / "__init__.py").is_file():
        print("run from the repository root: src/mvos is missing", file=sys.stderr)
        return 2

    setup = []
    if args.trace:
        _, result = worker(args, started, "--trace")
        missing = sorted(set(PER_LAYER) - set(result["layers"]))
        if missing:
            raise SystemExit(f"trace produced no value for {missing}")
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        for _ in range(SETUP_SAMPLES - 1):
            t0, out = worker(args, started, "--setup-only")
            setup.append(out["setup_end"] - t0)
        t0, result = worker(args, started)
        setup.append(result["setup_end"] - t0)
        timed = [c for c in result["calls"] if "wall_s" in c]
        values = {
            "reps_per_ref": statistics.median(c["reps"] / c["wall_s"] * c["ref_s"] for c in timed) if timed else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw = statistics.median(c["reps"] / c["wall_s"] for c in timed) if timed else 0.0
        print(f"metric reps_per_s {raw!r} reps/s (wall time, not host-corrected)")

    calls = result["calls"]
    failed = sum(1 for c in calls if c["error"])
    # failed_ratio is 0 when all is well, so it is printed here but is not
    # a BENCHMARK.json metric; the result line carries failed and attempted
    print(f"metric failed_ratio {failed / len(calls)!r} ratio ({failed} of {len(calls)} calls)")
    for key, what in (("decreased", "distance_decreases held"), ("moments_missed", "moment criteria missed")):
        counted = [c for c in calls if key in c]
        if counted:
            hits = sum(1 for c in counted if c[key])
            print(f"{what} in {hits} of {len(counted)} calls (counted, not gated)")
    if setup:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

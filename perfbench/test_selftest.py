"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py -q

Runs every workload at a minimal replication count in both modes and
checks that each metric BENCHMARK.json names is printed with its unit and
that the traced replay reproduces every report bit for bit.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY_R = 4


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_metric_and_workload_names_are_plain():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--replications", str(TINY_R))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # at this R the moment criteria fail by chance, so check only the count
    calls = [line for line in lines if line.startswith("call ")]
    assert result["attempted"] == len(calls) >= 1
    assert result["failed"] == sum(" FAIL " in line for line in calls)
    assert result["correct"] is (result["failed"] == 0)
    expected = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for m in expected:
        assert any(line.startswith(f"metric {m['name']} ") for line in lines), m["name"]
    assert any(line.startswith("facts ") for line in lines)
    assert any(line.startswith("metric failed_ratio ") for line in lines)
    if trace == "1":
        assert not any("MISMATCH" in line for line in lines)
        assert any("bit_identical=True" in line for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

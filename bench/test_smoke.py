"""Smoke test of the benchmark: every workload at tiny sizes, traced and untraced.

    python3 -m pytest -q bench/test_smoke.py

It fails fast when a change to ldlab breaks a call the benchmark makes or a
function its tracer wraps. It is not part of the repository's test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("perturb-sl", "relations-small", "spectra")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for name in ("checks_failed", "failed_frac"):
        assert any(line.startswith(name) for line in proc.stdout.splitlines())
    if trace:
        assert result["metrics"]["spectral.eigh_calls"]["value"] > 0
        assert result["metrics"]["cli.main_s"]["value"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "spectra", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

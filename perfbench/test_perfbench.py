"""Self-test of the benchmark harness, at reduced sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent


def _exact(metrics: dict) -> dict:
    """The counters: every per-layer metric that is not a time."""
    return {k: v for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace.overhead_ratio"}


# the smallest divisors whose half-size runs still reach every verifier's horizon
DIVISORS = {"diag": 8, "limits": 8, "artifacts": 2}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat(workload):
    first, tally1, bodies1 = run.traced_run(workload, seed=3, div=DIVISORS[workload])
    second, tally2, _ = run.traced_run(workload, seed=3, div=DIVISORS[workload])
    assert tally1["correct"] and tally2["correct"]
    assert _exact(first) == _exact(second)
    growth = {k: v for k, v in first.items() if k.startswith("growth.")}
    assert growth == {k: v for k, v in second.items() if k.startswith("growth.")}
    assert growth["growth.alloc_peak"] > 0
    plain, traced = bodies1[0], bodies1[1]
    assert plain["checks"] == traced["checks"]
    assert plain["output_bytes"] == traced["output_bytes"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_shape():
    metrics, tally, bodies = run.timed_run("limits", seed=2, seconds=0, div=8)
    assert tally["correct"] and len(bodies) == run.MIN_BODIES
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["pass_ratio"] == 1.0
    json.dumps(metrics)

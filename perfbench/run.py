"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload diag --seed 1 --seconds 30 --trace 0

Run from the root of an effstruct checkout; the package is imported from
its ``src`` directory, never from an installed copy.  Each body runs in a
fresh interpreter (``worker.py``) with its own inputs: body j of seed n is
generated from seed ``1000 * n + j``.  With ``--trace 0`` bodies run until
``--seconds`` is used up and the end-to-end metrics are medians over them;
the times are scaled to a fixed machine speed measured by a reference loop
run just before and just after each body (see :func:`reference_s`).
With ``--trace 1`` one body is run untraced, traced, traced at half size,
and under ``tracemalloc`` at full and half size, giving the per-layer
metrics.  The last line of stdout is the JSON result; the exit code is 1
when any output check failed and 2 when the checkout has no ``src/effstruct``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_BODIES = 3
# about the reference loop's time on the 2-core x86-64 machine, Python 3.11,
# where the benchmark was defined; timed metrics are given at that speed
REF_S = 0.11
REF_ROUNDS = 20
BODY_TIMEOUT_S = 150
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "output_bytes": "bytes",
}
GROWTH = ("ceersim.events_applied", "coceer.records", "pi01.g_lookups",
          "preorder.holders_scanned")
COMMANDS = ("coceer", "pi01", "preorder", "blocks")
WORKLOADS = ("diag", "limits", "artifacts")


class BenchError(Exception):
    pass


def input_seed(seed: int, body: int) -> int:
    return 1000 * seed + body


def run_worker(workload: str, seed: int, div: int = 1, mode: str = "plain",
               spans: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--input-seed", str(seed), "--div", str(div), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=BODY_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _tally(bodies: list[dict]) -> dict:
    checks = [c for b in bodies for c in b["checks"]]
    failed_cmds = sum(len({i for i, _, ok in b["checks"] if not ok}) for b in bodies)
    return {
        "correct": all(ok for _, _, ok in checks),
        "attempted": sum(b["commands"] for b in bodies),
        "failed": failed_cmds,
        "checks": len(checks),
        "passed": sum(1 for _, _, ok in checks if ok),
        "failures": [label for b in bodies for _, label, ok in b["checks"] if not ok],
    }


def reference_s() -> float:
    """Time a fixed pure-Python loop of dict and integer work (under 2 MB).

    It does not touch effstruct, so its time follows only the machine's
    speed, which on a shared host drifts by tens of percent over minutes.
    """
    start = perf_counter()
    total = 0
    for _ in range(REF_ROUNDS):
        table = {}
        for i in range(20000):
            table[i * 7919 % 100003] = i
        for k, v in table.items():
            total += k ^ v
    return perf_counter() - start


def timed_run(workload: str, seed: int, seconds: float,
              div: int = 1) -> tuple[dict, dict, list[dict]]:
    bodies, durations = [], []
    start = perf_counter()
    before = reference_s()
    while True:
        t = perf_counter()
        body = run_worker(workload, input_seed(seed, len(bodies)), div)
        durations.append(perf_counter() - t)
        after = reference_s()
        body["speed"] = REF_S / ((before + after) / 2)
        bodies.append(body)
        before = after
        elapsed = perf_counter() - start
        if len(bodies) >= MIN_BODIES and elapsed + statistics.median(durations) > seconds:
            break
    tally = _tally(bodies)
    values = {name: statistics.median(b[name] * b["speed"] for b in bodies)
              for name in ("wall_s", "setup_s")}
    values.update({name: statistics.median(b[name] for b in bodies)
                   for name in ("peak_rss_mb", "output_bytes")})
    values["pass_ratio"] = tally["passed"] / tally["checks"]
    return values, tally, bodies


def _log2_ratio(full: float, half: float) -> float:
    return math.log2(full / half) if full > 0 and half > 0 else 0.0


def traced_run(workload: str, seed: int, div: int = 1) -> tuple[dict, dict, list[dict]]:
    s = input_seed(seed, 0)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    plain = run_worker(workload, s, div)
    full = run_worker(workload, s, div, "traced", str(spans))
    half = run_worker(workload, s, 2 * div, "traced")
    alloc_full = run_worker(workload, s, div, "alloc")
    alloc_half = run_worker(workload, s, 2 * div, "alloc")
    values = dict(full["layers"])
    for cmd in COMMANDS:
        values[f"cli.{cmd}.wall_s"] = plain["cmd_wall_s"].get(cmd, 0.0)
    for name in GROWTH:
        values[f"growth.{name}"] = _log2_ratio(full["layers"][name], half["layers"][name])
    values["growth.alloc_peak"] = _log2_ratio(alloc_full["alloc_peak"], alloc_half["alloc_peak"])
    values["trace.overhead_ratio"] = full["wall_s"] / plain["wall_s"]
    bodies = [plain, full, half, alloc_full, alloc_half]
    return values, _tally(bodies), bodies


def _distribution(xs: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    line = f"median {statistics.median(xs):.4f}"
    tail = [q for q in (75, 90, 95, 99) if len(xs) * (100 - q) >= 1000]
    if tail:
        cut = statistics.quantiles(xs, n=100)[tail[-1] - 1]
        line += f", p{tail[-1]} {cut:.4f}"
    return line + f", min {min(xs):.4f}, max {max(xs):.4f}, n={len(xs)}"


def _units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith("growth."):
        return "log2"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def _check_root() -> None:
    if not (ROOT / "src" / "effstruct" / "__init__.py").is_file():
        raise BenchError(f"no src/effstruct package under {ROOT}; run from an effstruct checkout")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one effstruct benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _check_root()
        if args.trace:
            values, tally, bodies = traced_run(args.workload, args.seed)
        else:
            values, tally, bodies = timed_run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(bodies)} bodies, "
          f"{tally['passed']}/{tally['checks']} checks passed")
    for failure in tally["failures"][:20]:
        print(f"FAILED CHECK: {failure}")
    if not args.trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "speed"):
            print(f"  {name} (as measured): {_distribution([b[name] for b in bodies])}")
    print(json.dumps({
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": v, "unit": _units(n)} for n, v in values.items()},
    }))
    return 0 if tally["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads diag limits artifacts \
        --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2 --out steadiness.json

Runs ``run.py --trace 0`` once per (set, seed, workload), visiting the
sets in turn for each seed so that slow drifts of the machine land in every
set.  For each set it reports, per workload and metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median.  It also reports how far
the last set's median lies from the first's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    p = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    p.add_argument("--workloads", nargs="+", default=["diag", "limits", "artifacts"])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--out", help="write every run and the summary here as JSON")
    args = p.parse_args()

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for seed in args.seeds:
        for s in range(args.sets):
            order = args.workloads if s % 2 == 0 else args.workloads[::-1]
            for w in order:
                start = perf_counter()
                runs[w][s].append(one_run(w, seed, args.seconds))
                print(f"set {s + 1} {w} seed {seed} ({perf_counter() - start:.1f} s): " + ", ".join(
                    f"{k}={v:.4g}" for k, v in runs[w][s][-1].items()), flush=True)

    summary = {}
    print(f"\n| workload | metric | set | median | q1 | q3 | spread | drift vs set 1 |")
    print("|---|---|---|---|---|---|---|---|")
    for w in args.workloads:
        summary[w] = {}
        for metric in runs[w][0][0]:
            per_set = [summarize([r[metric] for r in runs[w][s]]) for s in range(args.sets)]
            first = per_set[0]["median"]
            for s, st in enumerate(per_set):
                st["drift"] = (st["median"] - first) / first if first else 0.0
                print(f"| {w} | {metric} | {s + 1} | {st['median']:.4g} | {st['q1']:.4g} | "
                      f"{st['q3']:.4g} | {st['spread']:.3f} | {st['drift']:+.3f} |")
            summary[w][metric] = per_set
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                              "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

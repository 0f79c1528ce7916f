"""One workload body in a fresh interpreter.

    python3 perfbench/worker.py --workload diag --input-seed 7000 --div 1 --mode plain

Sets up the inputs (importing ``effstruct`` from the checkout's ``src``),
calls ``effstruct.cli.main`` for each command, decodes what the commands
wrote, checks every output and prints one JSON line.  ``--mode traced``
adds the per-layer hooks and writes spans to ``--spans``; ``--mode alloc``
records the largest ``tracemalloc`` peak of a construction run instead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_body(workload: str, input_seed: int, div: int, mode: str,
             spans: str | None = None) -> dict:
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from effstruct import cli
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    # fixed-width name: argv lengths, and so the tracemalloc peak, repeat exactly
    work = ROOT / ".perfbench" / "work" / f"{os.getpid():010d}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        body = w.setup(input_seed, div, work)
        setup_s = perf_counter() - start

        import layers
        from tracer import Tracer

        tracer, peaks = None, []
        if mode == "traced":
            tracer = Tracer()
            layers.install(tracer)
        elif mode == "alloc":
            restore = layers.install_alloc(peaks)

        outs, cmd_wall = [], {}
        first = perf_counter()
        for argv in body.commands:
            t = perf_counter()
            if tracer is None:
                outs.append(_call_cli(cli, argv))
            else:
                with tracer.region(f"cli.{argv[0]}"):
                    outs.append(_call_cli(cli, argv))
            cmd_wall[argv[0]] = cmd_wall.get(argv[0], 0.0) + perf_counter() - t
        wall_s = perf_counter() - first
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cmd_wall_s": cmd_wall,
            "peak_rss_mb": peak_rss_mb,
            "output_bytes": sum(len(o.encode()) for _, o in outs)
            + sum(os.path.getsize(f) for f in body.files if os.path.exists(f)),
        }
        if mode == "alloc":
            restore()
            result["alloc_peak"] = max(peaks)

        if tracer is None:
            decoded = w.readback(body)
        else:
            with tracer.region("readback"):
                decoded = w.readback(body)
            tracer.unpatch()
            result["layers"] = layers.metrics(tracer)
            if spans:
                tracer.write_spans(spans)

        checks = []
        for i, (code, _) in enumerate(outs):
            checks.append([i, f"{body.commands[i][0]} exit code", code == 0])
        for i, items in w.check(body, outs, decoded):
            checks += [[i, label, bool(ok)] for label, ok in items]
        result["commands"] = len(body.commands)
        result["checks"] = checks
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--input-seed", type=int, required=True)
    p.add_argument("--div", type=int, default=1)
    p.add_argument("--mode", choices=("plain", "traced", "alloc"), default="plain")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    result = run_body(args.workload, args.input_seed, args.div, args.mode, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

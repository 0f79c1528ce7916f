"""Where the tracer hooks into effstruct, and the per-layer metrics it yields.

Each hook replaces a name where its caller looks it up: ``coceer`` calls
``cantor_unpair`` and ``pi01`` calls ``upseq_eval`` through their own
module globals, the CLI calls the constructions through module
attributes, and the ceer runners dispatch through class attributes.
"""

from __future__ import annotations

import os
import tracemalloc

from effstruct import blocks, ceersim, cli, coceer, core, eqrel, pi01, preorder

from tracer import Tracer

_PARTITION = ("eqrel.init", "eqrel.merge", "eqrel.find", "eqrel.classes")


def install(t: Tracer) -> None:
    counters = t.counters
    runners: list = []

    def add(name, amount):
        counters[name] += amount

    # cli
    t.patch(cli, "_load_json", "cli.json_read")
    t.patch(cli, "_dump_json", "cli.json_write",
            after=lambda a, r: add("cli.bytes_written", os.path.getsize(a[0])))
    # core: the hot arithmetic, aggregated only
    t.patch(coceer, "cantor_unpair", "core.cantor_unpair", span=False)
    t.patch(pi01, "upseq_eval", "core.upseq_eval", span=False)
    t.patch(core, "upseq_eval", "core.upseq_eval", span=False)
    # ceersim: one advance_to and one oldest_class_min per runner per stage
    t.patch(ceersim.CeerRunner, "__init__", "ceersim.runner_init", span=False,
            after=lambda a, r: runners.append(a[0]))
    t.patch(ceersim.CeerRunner, "advance_to", "ceersim.advance_to", span=False)
    t.patch(ceersim.CeerRunner, "oldest_class_min", "ceersim.oldest_class_min", span=False)
    for cls in (ceersim.CeerScript, ceersim.ChurnGenerator):
        t.patch(cls, "events_at", "ceersim.events_at", span=False,
                after=lambda a, r: add("ceersim.events_applied", len(r)))

    # coceer
    def coceer_done(args, result):
        _, trace = result
        for r in trace.records:
            counters[f"coceer.case{r.case}"] += 1
            counters["coceer.exiles"] += len(r.exiled)
        add("coceer.records", len(trace.records))
        add("ceersim.uf_elements", sum(len(r.uf.parent) for r in runners))

    t.patch(coceer, "run_coceer", "coceer.loop", before=lambda a: runners.clear(),
            after=coceer_done)
    t.patch(coceer, "_dispatch", "coceer.step")
    t.patch(coceer, "verify_requirement", "coceer.verify")
    t.patch(coceer, "trace_to_json", "coceer.trace_codec")
    t.patch(coceer, "trace_from_json", "coceer.trace_codec")

    # pi01
    def pi01_done(args, trace):
        labels = removals = 0
        for hist in trace.transitions.values():
            removed = sum(1 for _, v in hist if v is None)
            removals += removed
            labels += len(hist) - removed
            counters["pi01.recycled"] += len(hist) == 3
        add("pi01.topups", labels - trace.stages)   # one founder per stage
        add("pi01.removals", removals)

    t.patch(pi01, "run_pi01", "pi01.loop", after=pi01_done)
    t.patch(pi01, "pi01_step", "pi01.step")
    t.patch(pi01.GTable, "g", "pi01.g", span=False)
    t.patch(pi01, "verify_liminf_counts", "pi01.verify")
    t.patch(pi01, "trace_to_json", "pi01.trace_codec")
    t.patch(pi01, "trace_from_json", "pi01.trace_codec")

    # preorder
    def preorder_done(args, table):
        for _, _, old, _ in table.events:
            counters["preorder.fresh" if old is None else "preorder.resets"] += 1

    t.patch(preorder, "run_preorder", "preorder.loop", after=preorder_done)
    t.patch(preorder, "preorder_step", "preorder.step")
    t.patch(preorder.VTable, "holders_of", "preorder.holders_of", span=False,
            after=lambda a, r: add("preorder.holders_scanned", len(a[0].v)))
    t.patch(preorder, "verify_claim", "preorder.verify")
    t.patch(preorder, "materialize", "preorder.materialize",
            after=lambda a, r: add("preorder.leq_pairs", len(r.leq)))
    t.patch(preorder, "snapshot_to_json", "preorder.snapshot_codec")
    t.patch(preorder, "snapshot_from_json", "preorder.snapshot_codec")

    # eqrel: the dense partition, and its codec (the CLI imported the encoder)
    t.patch(eqrel.Partition, "__init__", "eqrel.init", span=False)
    t.patch(eqrel.Partition, "merge", "eqrel.merge", span=False)
    t.patch(eqrel.Partition, "find", "eqrel.find", span=False)
    t.patch(eqrel.Partition, "classes", "eqrel.classes")
    t.patch(cli, "partition_to_json", "eqrel.partition_codec")
    t.patch(eqrel, "partition_from_json", "eqrel.partition_codec")

    # blocks
    t.patch(blocks, "encode_blocks", "blocks.encode")
    t.patch(blocks, "block_character", "blocks.encode")
    t.patch(blocks, "decode_character", "blocks.decode")


def install_alloc(peaks: list[int]):
    """Record the ``tracemalloc`` peak of every construction run in ``peaks``.

    Only the constructions are traced: the CLI around them (argparse, file
    reads) allocates a few hundred bytes that differ from run to run, and
    the growth exponent must repeat exactly.  Returns a function that
    restores the originals.
    """
    entries = [(coceer, "run_coceer"), (pi01, "run_pi01"), (preorder, "run_preorder"),
               (preorder, "materialize"), (blocks, "encode_blocks")]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in entries]

    def tracked(fn):
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return run

    for owner, attr, fn in originals:
        setattr(owner, attr, tracked(fn))

    def restore():
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    return restore


def metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced body (counts exact, times in s)."""
    out: dict[str, float] = {
        "cli.json_write_s": t.total_s["cli.json_write"],
        "cli.json_read_s": t.total_s["cli.json_read"],
        "cli.bytes_written": t.counters["cli.bytes_written"],
    }
    for name in ("core.cantor_unpair", "core.upseq_eval", "ceersim.advance_to",
                 "ceersim.events_at", "ceersim.oldest_class_min", "coceer.step",
                 "pi01.step", "preorder.step", "preorder.holders_of"):
        out[f"{name}.calls"] = t.calls[name]
        out[f"{name}.self_s"] = t.self_s[name]
    for name in ("coceer.loop", "coceer.verify", "pi01.verify", "preorder.verify",
                 "preorder.materialize", "blocks.encode", "blocks.decode"):
        out[f"{name}.self_s"] = t.self_s[name]
    for name in ("coceer.trace_codec", "pi01.trace_codec", "preorder.snapshot_codec",
                 "eqrel.partition_codec"):
        out[f"{name}_s"] = t.total_s[name]
    for name in ("ceersim.events_applied", "ceersim.uf_elements", "coceer.records",
                 "coceer.case1", "coceer.case2", "coceer.case3", "coceer.case4",
                 "coceer.exiles", "pi01.topups", "pi01.removals", "pi01.recycled",
                 "preorder.holders_scanned", "preorder.fresh", "preorder.resets",
                 "preorder.leq_pairs"):
        out[name] = t.counters[name]
    out["coceer.skip_records"] = t.counters["coceer.case0"]
    out["pi01.g_lookups"] = t.calls["pi01.g"]
    out["eqrel.merge.calls"] = t.calls["eqrel.merge"]
    out["eqrel.find.calls"] = t.calls["eqrel.find"]
    out["eqrel.partition.self_s"] = sum(t.self_s[n] for n in _PARTITION)
    return out

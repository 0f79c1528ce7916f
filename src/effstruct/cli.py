"""Command-line entry point and the suite driver behind ``verify-all``.

Exit codes: 0 when every requested verification succeeded, 1 when a
construction failed verification, 2 on input errors (bad files, bad
flags, or an insufficient stage horizon, reported with the budget that
would have sufficed).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Optional

from . import blocks as blocks_mod
from . import coceer as coceer_mod
from . import generators, pi01, preorder
from .ceersim import family_from_json
from .core import check_format, delta02_from_json, is_nat
from .eqrel import Character, character_of, partition_to_json
from .errors import EffstructError, HorizonError, InputError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(path: str, obj: object) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_coceer(args: argparse.Namespace) -> int:
    fam = family_from_json(_load_json(args.family))
    state, trace = coceer_mod.run_coceer(fam, args.columns, args.stages)
    if args.trace:
        _dump_json(args.trace, coceer_mod.trace_to_json(trace))
    if not args.verify:
        return EXIT_OK
    reports = [coceer_mod.verify_requirement(state, fam, e) for e in range(args.columns)]
    for rep in reports:
        status = "ok" if rep.satisfied and rep.certified else "FAIL"
        print(
            f"column {rep.e} ({rep.kind}, target size {rep.k}): witness class "
            f"{rep.witness_class_size}, family realizes size: {rep.r_e_has_size_k}, "
            f"satisfied={rep.satisfied}, certified={rep.certified} [{status}]"
        )
    if args.report:
        _dump_json(args.report, [coceer_mod.report_to_json(r) for r in reports])
    ok = all(r.satisfied and r.certified for r in reports)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_pi01(args: argparse.Namespace) -> int:
    table = pi01.gtable_from_json(_load_json(args.g))
    trace = pi01.run_pi01(table, args.stages)
    if args.trace:
        _dump_json(args.trace, pi01.trace_to_json(trace))
    if not args.verify:
        return EXIT_OK
    report = pi01.verify_liminf_counts(trace, table, args.labels)
    for entry in report.entries:
        status = "ok" if entry.match else "FAIL"
        print(
            f"label {entry.label}: expected {entry.expected}, "
            f"observed {entry.observed} [{status}]"
        )
    return EXIT_OK if report.all_match else EXIT_VERIFY_FAILED


def _cmd_preorder(args: argparse.Namespace) -> int:
    approx = delta02_from_json(_load_json(args.b))
    table = preorder.run_preorder(approx, args.stages)
    if args.snapshot:
        _dump_json(args.snapshot, preorder.snapshot_to_json(preorder.materialize(table)))
    if not args.verify:
        return EXIT_OK
    horizon = args.horizon if args.horizon is not None else approx.width - 1
    report = preorder.verify_claim(table, approx, horizon)
    for entry in report.entries:
        status = "ok" if entry.ok else "FAIL"
        print(
            f"x={entry.x}: in set={entry.in_b}, threshold holders={list(entry.holders)} "
            f"[{status}]"
        )
    print(
        f"zero thresholds: {report.zero_count} (need >= {horizon}), "
        f"fingerprint {list(report.fingerprint_values)} vs set {list(report.expected_members)}"
    )
    return EXIT_OK if report.all_ok else EXIT_VERIFY_FAILED


def _cmd_blocks(args: argparse.Namespace) -> int:
    if (args.x is None) == (args.decode is None):
        raise InputError("use either --x with --encode, or --decode")
    if args.x is not None:
        bits = blocks_mod.parse_bits(args.x)
        n = len(bits)
        partition = blocks_mod.encode_blocks(bits, n)
        character = blocks_mod.block_character(bits, n)
        payload = {
            "format": 1,
            "n_blocks": n,
            "partition": partition_to_json(partition),
            "character": character.to_pairs(),
        }
        if args.encode:
            _dump_json(args.encode, payload)
        print(f"encoded {n} bits into {partition.window} elements")
        return EXIT_OK
    obj = _load_json(args.decode)
    if not isinstance(obj, dict) or "character" not in obj:
        raise InputError("character file needs a 'character' array")
    check_format(obj, default=1)
    ch = Character.from_pairs(obj["character"])
    n = obj.get("n_blocks", sum(1 for s in ch.sizes() if s >= 2))
    if not is_nat(n):
        raise InputError(f"n_blocks must be a nonnegative integer, got {n!r}")
    bits = blocks_mod.decode_character(ch, n)
    print("".join(str(b) for b in bits))
    return EXIT_OK


def _suite_coceer(seed: int, stages: int) -> tuple[bool, str]:
    fam, kinds = generators.generate_diagonalization_suite(seed)
    state, _ = coceer_mod.run_coceer(fam, len(fam.members), stages)
    reports = [coceer_mod.verify_requirement(state, fam, e) for e in kinds]
    good = sum(1 for r in reports if r.satisfied and r.certified)
    return good == len(reports), (
        f"diagonalization: {good}/{len(reports)} requirements satisfied and "
        f"certified within {stages} stages"
    )


def _suite_pi01(seed: int, runs: int = 50) -> tuple[bool, str]:
    bad = 0
    for j in range(runs):
        K = 2 + j % 7
        table = generators.generate_gtable(seed + j, K)
        trace = pi01.run_pi01(table, pi01.required_stages_for(table, K) + 4)
        report = pi01.verify_liminf_counts(trace, table, K)
        histories = all(
            pi01.classify_history(trace, x) in ("a", "b", "unstable")
            for x in trace.elements()
        )
        if not (report.all_match and histories):
            bad += 1
    return bad == 0, f"liminf class sizes: {runs - bad}/{runs} tables verified exactly"


def _suite_preorder(seed: int, runs: int = 30) -> tuple[bool, str]:
    bad = 0
    flips = 0
    for j in range(runs):
        K = 3 + j % 8
        approx = generators.generate_b(seed + j, K)
        flips += generators.has_membership_flip(approx)
        table = preorder.run_preorder(approx, preorder.required_stages_for(approx, K) + 2)
        if not preorder.verify_claim(table, approx, K).all_ok:
            bad += 1
    return bad == 0, (
        f"preorder fingerprints: {runs - bad}/{runs} set approximations recovered "
        f"exactly ({flips} with membership flips)"
    )


def _suite_blocks(seed: int, runs: int = 100) -> tuple[bool, str]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(runs):
        bits = [rng.randint(0, 1) for _ in range(64)]
        if blocks_mod.decode_character(blocks_mod.block_character(bits, 64), 64) != bits:
            bad += 1
    for n in range(33):
        bits = [rng.randint(0, 1) for _ in range(n)]
        direct = blocks_mod.block_character(bits, n)
        via_partition = character_of(blocks_mod.encode_blocks(bits, n))
        if direct != via_partition:
            bad += 1
    return bad == 0, f"block coder: {runs} round trips and 33 character cross-checks exact"


def _cmd_verify_all(args: argparse.Namespace) -> int:
    suites = [
        _suite_coceer(args.seed, args.stages),
        _suite_pi01(args.seed),
        _suite_preorder(args.seed),
        _suite_blocks(args.seed),
    ]
    ok = True
    for passed, line in suites:
        print(("PASS " if passed else "FAIL ") + line)
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effstruct",
        description="Stage constructions for effective equivalence structures and preorders",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coceer", help="diagonalize a co-ceer against a ceer family")
    p.set_defaults(handler=_cmd_coceer)
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--columns", type=int, required=True, help="number of columns E")
    p.add_argument("--stages", type=int, required=True, help="stage budget")
    p.add_argument("--trace", help="write the stage trace to this JSON file")
    p.add_argument("--report", help="write per-column verification reports here")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("pi01", help="build class sizes from a liminf table")
    p.set_defaults(handler=_cmd_pi01)
    p.add_argument("--g", required=True, help="class-size table JSON file")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--labels", type=int, default=0, help="verify labels 0..K")
    p.add_argument("--trace", help="write the run trace to this JSON file")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("preorder", help="encode a binary limit set into a preorder")
    p.set_defaults(handler=_cmd_preorder)
    p.add_argument("--b", required=True, help="set approximation JSON file")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--horizon", type=int, help="verify membership up to this value")
    p.add_argument("--snapshot", help="write the materialized order here")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("blocks", help="encode/decode bit vectors as block structures")
    p.set_defaults(handler=_cmd_blocks)
    p.add_argument("--x", help="bit string to encode")
    p.add_argument("--encode", help="write the encoded structure here")
    p.add_argument("--decode", help="character JSON file to decode")

    p = sub.add_parser("verify-all", help="run every generated property suite")
    p.set_defaults(handler=_cmd_verify_all)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stages", type=int, default=5000, help="diagonalization budget")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Parse ``argv`` and run its subcommand; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HorizonError as exc:
        print(f"error: {exc} (required stages: {exc.required_stages})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EffstructError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point and the suite driver behind ``verify-all``.

Each subcommand is one entry of ``_COMMANDS`` (handler, help line, flags).
A well-formed call is read straight from that table and builds no parser;
every other line (help, usage errors, any form the table reader does not
take) goes to the full ``build_parser()``, whose messages it keeps.

Exit codes: 0 when every requested verification succeeded, 1 when a
construction failed verification, 2 on input errors (bad files, bad
flags, or an insufficient stage horizon, reported with the budget that
would have sufficed).  A command verifies before it writes any file, so
one that stops on an insufficient horizon writes nothing.
"""

from __future__ import annotations

import gc
import json
import random
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from . import blocks as blocks_mod
from . import coceer as coceer_mod
from . import generators, pi01, preorder
from .ceersim import family_from_json
from .core import Delta02SetApprox, check_format, is_nat, table_from_json
from .eqrel import Character, character_of, partition_to_json
from .errors import EffstructError, HorizonError, InputError

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # JSONDecodeError, or an over-long integer
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(path: str, obj: object) -> None:
    """Write ``obj`` as one compact line with sorted keys.

    Without ``indent`` CPython encodes with its C encoder; ``indent``
    would fall back to the pure-Python one.  Every ``obj`` is a tree just
    built by a ``*_to_json`` function, which holds no cycle, so the
    encoder's circular-reference check (a dict entry per list and object)
    is skipped; the bytes are the same.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_coceer(args: SimpleNamespace) -> int:
    if args.report is not None and not args.verify:
        raise InputError("--report needs --verify")
    fam = family_from_json(_load_json(args.family))
    columns, trace = coceer_mod.run_coceer(fam, args.columns, args.stages)
    reports = ([coceer_mod.verify_requirement(columns, fam, e) for e in range(args.columns)]
               if args.verify else None)
    if args.trace:
        _dump_json(args.trace, coceer_mod.trace_to_json(trace))
    if reports is None:
        return EXIT_OK
    if args.report:
        _dump_json(args.report, [coceer_mod.report_to_json(r) for r in reports])
    for rep in reports:
        status = "ok" if rep.satisfied and rep.certified else "FAIL"
        print(
            f"column {rep.e} ({rep.kind}, target size {rep.k}): witness class "
            f"{rep.witness_class_size}, family realizes size: {rep.r_e_has_size_k}, "
            f"satisfied={rep.satisfied}, certified={rep.certified} [{status}]"
        )
    ok = all(r.satisfied and r.certified for r in reports)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_pi01(args: SimpleNamespace) -> int:
    if args.labels is not None and not args.verify:
        raise InputError("--labels needs --verify")
    table = table_from_json(pi01.GTable, _load_json(args.g))
    trace = pi01.run_pi01(table, args.stages)
    counts = pi01.verify_liminf_counts(trace, table, args.labels or 0) if args.verify else None
    if args.trace:
        _dump_json(args.trace, pi01.trace_to_json(trace))
    if counts is None:
        return EXIT_OK
    for entry in counts:
        status = "ok" if entry.match else "FAIL"
        print(
            f"label {entry.label}: expected {entry.expected}, "
            f"observed {entry.observed} [{status}]"
        )
    return EXIT_OK if all(entry.match for entry in counts) else EXIT_VERIFY_FAILED


def _cmd_preorder(args: SimpleNamespace) -> int:
    approx = table_from_json(Delta02SetApprox, _load_json(args.b))
    table = preorder.run_preorder(approx, args.stages)
    report = preorder.verify_claim(table, approx) if args.verify else None
    if args.snapshot:
        _dump_json(args.snapshot, preorder.snapshot_to_json(preorder.materialize(table)))
    if report is None:
        return EXIT_OK
    for entry in report.entries:
        status = "ok" if entry.ok else "FAIL"
        print(
            f"x={entry.x}: in set={entry.in_b}, threshold holders={list(entry.holders)} "
            f"[{status}]"
        )
    print(
        f"zero thresholds: {report.zero_count} (need >= {approx.width - 1}), "
        f"fingerprint {list(report.fingerprint_values)} vs set {list(report.expected_members)}"
    )
    return EXIT_OK if report.all_ok else EXIT_VERIFY_FAILED


def _cmd_blocks(args: SimpleNamespace) -> int:
    if (args.x is None) == (args.decode is None) or (args.x is None) != (args.encode is None):
        raise InputError("use either --x with --encode, or --decode")
    if args.x is not None:
        bits = blocks_mod.parse_bits(args.x)
        n = len(bits)
        window = blocks_mod.block_offset(n)
        _dump_json(args.encode, {
            "format": 3,
            "n_blocks": n,
            "partition": partition_to_json(window, blocks_mod.block_runs(bits)),
            "character": blocks_mod.block_character(bits).to_pairs(),
        })
        print(f"encoded {n} bits into {window} elements")
        return EXIT_OK
    obj = _load_json(args.decode)
    if not isinstance(obj, dict) or "character" not in obj:
        raise InputError("character file needs a 'character' array")
    check_format(obj, default=1, versions=(1, 3))
    ch = Character.from_pairs(obj["character"])
    n = obj.get("n_blocks", sum(1 for s in ch.entries if s >= 2))
    if not is_nat(n):
        raise InputError(f"n_blocks must be a nonnegative integer, got {n!r}")
    bits = blocks_mod.decode_character(ch, n)
    if obj.get("format") == 3:
        # a block file's partition is the coding of the decoded bits, length for
        # length; == takes true for 1 and 1.0 for 1, so each number must be an int
        window, runs = blocks_mod.block_offset(n), blocks_mod.block_runs(bits)
        part = obj.get("partition")
        if not (part == partition_to_json(window, runs)
                and all(type(v) is int for v in (part["window"], *part["runs"]))):
            raise InputError(f"block file 'partition' must be the coding of the decoded bits: "
                             f"'window' {window} and 'runs' its {len(runs)} class lengths "
                             f"in window order")
    print("".join(str(b) for b in bits))
    return EXIT_OK


def _suite_coceer(seed: int, stages: int) -> tuple[bool, str]:
    fam, kinds = generators.generate_diagonalization_suite(seed)
    columns, _ = coceer_mod.run_coceer(fam, len(fam.members), stages)
    reports = [coceer_mod.verify_requirement(columns, fam, e) for e in kinds]
    good = sum(1 for r in reports if r.satisfied and r.certified)
    return good == len(reports), (
        f"diagonalization: {good}/{len(reports)} requirements satisfied and "
        f"certified within {stages} stages"
    )


def _suite_pi01(seed: int) -> tuple[bool, str]:
    bad = 0
    for j in range(50):
        K = 2 + j % 7
        table = generators.generate_gtable(seed + j, K)
        trace = pi01.run_pi01(table, pi01.required_stages_for(table, K) + 4)
        if not all(entry.match for entry in pi01.verify_liminf_counts(trace, table, K)):
            bad += 1
    return bad == 0, f"liminf class sizes: {50 - bad}/50 tables verified exactly"


def _suite_preorder(seed: int) -> tuple[bool, str]:
    bad = 0
    flips = 0
    for j in range(30):
        K = 3 + j % 8
        approx = generators.generate_b(seed + j, K)
        flips += generators.has_membership_flip(approx)
        table = preorder.run_preorder(approx, preorder.required_stages_for(approx) + 2)
        if not preorder.verify_claim(table, approx).all_ok:
            bad += 1
    return bad == 0, (
        f"preorder fingerprints: {30 - bad}/30 set approximations recovered "
        f"exactly ({flips} with membership flips)"
    )


def _suite_blocks(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(64)]
        if blocks_mod.decode_character(blocks_mod.block_character(bits), 64) != bits:
            bad += 1
    for n in range(33):
        bits = [rng.randint(0, 1) for _ in range(n)]
        direct = blocks_mod.block_character(bits)
        via_partition = character_of(blocks_mod.encode_blocks(bits))
        if direct != via_partition:
            bad += 1
    return bad == 0, "block coder: 100 round trips and 33 character cross-checks exact"


def _cmd_verify_all(args: SimpleNamespace) -> int:
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


_COMMANDS = {
    "coceer": (_cmd_coceer, "diagonalize a co-ceer against a ceer family", (
        ("--family", dict(required=True, help="family JSON file")),
        ("--columns", dict(type=int, required=True, help="number of columns E")),
        ("--stages", dict(type=int, required=True, help="stage budget")),
        ("--trace", dict(help="write the stage trace to this JSON file")),
        ("--report", dict(help="write per-column verification reports here")),
        ("--verify", dict(action="store_true")))),
    "pi01": (_cmd_pi01, "build class sizes from a liminf table", (
        ("--g", dict(required=True, help="class-size table JSON file")),
        ("--stages", dict(type=int, required=True)),
        ("--labels", dict(type=int, help="verify labels 0..K")),
        ("--trace", dict(help="write the run trace to this JSON file")),
        ("--verify", dict(action="store_true")))),
    "preorder": (_cmd_preorder, "encode a binary limit set into a preorder", (
        ("--b", dict(required=True, help="set approximation JSON file")),
        ("--stages", dict(type=int, required=True)),
        ("--snapshot", dict(help="write the materialized order here")),
        ("--verify", dict(action="store_true")))),
    "blocks": (_cmd_blocks, "encode/decode bit vectors as block structures", (
        ("--x", dict(help="bit string to encode")),
        ("--encode", dict(help="write the encoded structure here")),
        ("--decode", dict(help="character JSON file to decode")))),
    "verify-all": (_cmd_verify_all, "run every generated property suite", (
        ("--seed", dict(type=int, default=0)),
        ("--stages", dict(type=int, default=5000, help="diagonalization budget")))),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, built only for a line the table reader does not take;
    ``argparse`` (and the ``gettext`` it loads) is imported here, not at start-up."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="effstruct",
        description="Stage constructions for effective equivalence structures and preorders",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_line, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.set_defaults(handler=handler)
        for flag, keywords in flags:
            command.add_argument(flag, **keywords)
    return parser


def _read_command_line(argv: list[str]) -> Optional[SimpleNamespace]:
    """The attributes ``build_parser()`` gives ``argv``, less ``subcommand``, or None.

    Only a plain line is read: a command name, then that command's flags
    spelled exactly and each given at most once, every valued flag followed
    by a value not starting with ``-`` (and passing ``int()`` for an ``int``
    flag), every required flag present.  Any other line is None, so help,
    ``--``, ``--flag=value``, abbreviations, repeats and errors stay argparse's.
    A handler reads attributes only, so it takes either namespace.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[0]]
    spec = dict(flags)
    values: dict[str, object] = {}
    words = iter(argv[1:])
    for word in words:
        keywords = spec.get(word)
        if keywords is None or word in values:
            return None
        if keywords.get("action") == "store_true":
            values[word] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if keywords.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[word] = value
    args = SimpleNamespace(handler=handler)
    for flag, keywords in flags:
        if flag not in values and keywords.get("required"):
            return None
        default = False if keywords.get("action") == "store_true" else keywords.get("default")
        setattr(args, flag[2:], values.get(flag, default))
    return args


def main(argv: Optional[list[str]] = None) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` if None), run its subcommand, return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_command_line(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        del args.subcommand
    # what the imports built lives until exit: frozen, no collection in the command walks it
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
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
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, CLI commands, output checks.

Every workload builds its inputs with ``effstruct.generators`` from one
integer seed, writes them as the JSON files a user would pass to the CLI,
and lists the ``effstruct`` command lines to run.  The checks compare the
printed and written outputs with expectations derived from the generated
inputs; none of them reads the verifiers' own ``satisfied``/``ok`` flags.

Sizes are the full-size values; a divisor ``div`` shrinks every stage
count and bit count for the half-size growth runs and the self-test.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from effstruct import ceersim, coceer, core, eqrel, generators, pi01, preorder

COLUMNS = 26        # generate_diagonalization_suite: column 0 plus 25 under test
PI01_LABELS = 8     # generate_gtable(seed, 8): columns 0..8
PREORDER_WIDTH = 10  # generate_b(seed, 10): columns 0..10, horizon 10

DIAG_STAGES = 8000
LIMITS_PI01_STAGES = 1500
LIMITS_PREORDER_STAGES = 600
ARTIFACTS_COCEER_STAGES = 2500
ARTIFACTS_PI01_STAGES = 500
ARTIFACTS_PREORDER_STAGES = 250
ARTIFACTS_BITS = 400


@dataclass
class Body:
    """One workload instance: its commands and what the checks need."""

    commands: list[list[str]]
    files: list[str] = field(default_factory=list)   # files the CLI writes
    expect: dict = field(default_factory=dict)


def _write_json(path: Path, obj: object) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _read_json(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks

_COLUMN_LINE = re.compile(r"^column (\d+) \((\w+), target size (\d+)\): witness class (\d+),")
_LABEL_LINE = re.compile(r"^label (\d+): expected (\d+), observed (\d+) ")
_X_LINE = re.compile(r"^x=(\d+): in set=(True|False), threshold holders=\[([\d, ]*)\]")
_ZERO_LINE = re.compile(r"^zero thresholds: (\d+) \(need >= \d+\), fingerprint \[([\d, ]*)\] vs set")


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _coceer_checks(stdout: str, kinds: dict[int, str]) -> list[tuple[str, bool]]:
    """Witness class k+1 where the member realizes size k, else k."""
    seen = {}
    for line in stdout.splitlines():
        m = _COLUMN_LINE.match(line)
        if m:
            seen[int(m.group(1))] = (int(m.group(3)), int(m.group(4)))
    out = []
    for e in range(COLUMNS):
        k = 2 * e + 2
        want = k + 1 if kinds.get(e) == "with" else k
        out.append((f"column {e} witness class", seen.get(e) == (k, want)))
    return out


def _pi01_checks(stdout: str, table: pi01.GTable) -> list[tuple[str, bool]]:
    """Each label settles on min(period) elements of its column."""
    seen = {}
    for line in stdout.splitlines():
        m = _LABEL_LINE.match(line)
        if m:
            seen[int(m.group(1))] = (int(m.group(2)), int(m.group(3)))
    out = []
    for k in range(PI01_LABELS + 1):
        want = min(table.columns[k].period)
        out.append((f"label {k} count", seen.get(k) == (want, want)))
    return out


def _preorder_checks(stdout: str, b: core.Delta02SetApprox) -> list[tuple[str, bool]]:
    """The fingerprint is the set of columns whose constant period is 1."""
    members = [x for x in range(1, PREORDER_WIDTH + 1) if b.columns[x].period == (1,)]
    holders, zero = {}, None
    for line in stdout.splitlines():
        m = _X_LINE.match(line)
        if m:
            holders[int(m.group(1))] = (m.group(2) == "True", len(_ints(m.group(3))))
        m = _ZERO_LINE.match(line)
        if m:
            zero = (int(m.group(1)), _ints(m.group(2)))
    out = []
    for x in range(1, PREORDER_WIDTH + 1):
        inside = x in members
        out.append((f"x={x} holders", holders.get(x) == (inside, 1 if inside else 0)))
    out.append(("fingerprint", zero is not None and zero[1] == members))
    out.append(("zero thresholds", zero is not None and zero[0] >= PREORDER_WIDTH))
    return out


# ---------------------------------------------------------------- workloads


class Workload:
    name: str

    def setup(self, seed: int, div: int, work: Path) -> Body:
        raise NotImplementedError

    def readback(self, body: Body) -> dict:
        """Decode the files the commands wrote."""
        return {}

    def check(self, body: Body, outs: list[tuple[int, str]], decoded: dict):
        """Yield (command index, [(label, passed), ...])."""
        raise NotImplementedError


class Diag(Workload):
    """coceer on the 26-column diagonalization suite, verified, no files."""

    name = "diag"

    def setup(self, seed: int, div: int, work: Path) -> Body:
        fam, kinds = generators.generate_diagonalization_suite(seed)
        path = _write_json(work / "family.json", ceersim.family_to_json(fam))
        argv = ["coceer", "--family", path, "--columns", str(COLUMNS),
                "--stages", str(DIAG_STAGES // div), "--verify"]
        return Body([argv], expect={"kinds": kinds})

    def check(self, body: Body, outs: list[tuple[int, str]], decoded: dict):
        yield 0, _coceer_checks(outs[0][1], body.expect["kinds"])


class Limits(Workload):
    """pi01 then preorder, the superlinear steppers, verified, no files."""

    name = "limits"

    def setup(self, seed: int, div: int, work: Path) -> Body:
        table = generators.generate_gtable(seed, PI01_LABELS)
        b = generators.generate_b(seed, PREORDER_WIDTH)
        g_path = _write_json(work / "g.json", pi01.gtable_to_json(table))
        b_path = _write_json(work / "b.json", core.delta02_to_json(b))
        return Body(
            [
                ["pi01", "--g", g_path, "--stages", str(LIMITS_PI01_STAGES // div),
                 "--labels", str(PI01_LABELS), "--verify"],
                ["preorder", "--b", b_path, "--stages", str(LIMITS_PREORDER_STAGES // div),
                 "--verify"],
            ],
            expect={"table": table, "b": b},
        )

    def check(self, body: Body, outs: list[tuple[int, str]], decoded: dict):
        yield 0, _pi01_checks(outs[0][1], body.expect["table"])
        yield 1, _preorder_checks(outs[1][1], body.expect["b"])


def _block_classes(bits: list[int]) -> list[list[int]]:
    """Classes of the block coding, straight from its layout."""
    out = []
    start = 0
    for i, bit in enumerate(bits):
        width = 2 * i + 4
        if bit:
            out.append(list(range(start, start + width)))
        else:
            out += [list(range(start, start + width - 1)), [start + width - 1]]
        start += width
    return out


class Artifacts(Workload):
    """Every output file on, then every file decoded and compared."""

    name = "artifacts"

    def setup(self, seed: int, div: int, work: Path) -> Body:
        fam, kinds = generators.generate_diagonalization_suite(seed)
        table = generators.generate_gtable(seed, PI01_LABELS)
        b = generators.generate_b(seed, PREORDER_WIDTH)
        rng = random.Random(seed)
        bits = [rng.randint(0, 1) for _ in range(ARTIFACTS_BITS // div)]
        fam_path = _write_json(work / "family.json", ceersim.family_to_json(fam))
        g_path = _write_json(work / "g.json", pi01.gtable_to_json(table))
        b_path = _write_json(work / "b.json", core.delta02_to_json(b))
        files = {name: str(work / name) for name in (
            "coceer_trace.json", "report.json", "pi01_trace.json", "snapshot.json", "blocks.json")}
        stages = {
            "coceer": ARTIFACTS_COCEER_STAGES // div,
            "pi01": ARTIFACTS_PI01_STAGES // div,
            "preorder": ARTIFACTS_PREORDER_STAGES // div,
        }
        return Body(
            [
                ["coceer", "--family", fam_path, "--columns", str(COLUMNS),
                 "--stages", str(stages["coceer"]), "--verify",
                 "--trace", files["coceer_trace.json"], "--report", files["report.json"]],
                ["pi01", "--g", g_path, "--stages", str(stages["pi01"]),
                 "--labels", str(PI01_LABELS), "--verify", "--trace", files["pi01_trace.json"]],
                ["preorder", "--b", b_path, "--stages", str(stages["preorder"]), "--verify",
                 "--snapshot", files["snapshot.json"]],
                ["blocks", "--x", "".join(map(str, bits)), "--encode", files["blocks.json"]],
                ["blocks", "--decode", files["blocks.json"]],
            ],
            files=list(files.values()),
            expect={"fam": fam, "kinds": kinds, "table": table, "b": b, "bits": bits,
                    "stages": stages, "files": files},
        )

    def readback(self, body: Body) -> dict:
        """Decode every written file with the library's readers."""
        files = body.expect["files"]
        encoded = _read_json(files["blocks.json"])
        return {
            "coceer_trace": coceer.trace_from_json(_read_json(files["coceer_trace.json"])),
            "report": _read_json(files["report.json"]),
            "pi01_trace": pi01.trace_from_json(_read_json(files["pi01_trace.json"])),
            "snapshot": preorder.snapshot_from_json(_read_json(files["snapshot.json"])),
            "partition": eqrel.partition_from_json(encoded["partition"]),
            "character": eqrel.Character.from_pairs(encoded["character"]),
        }

    def check(self, body: Body, outs: list[tuple[int, str]], decoded: dict):
        x = body.expect
        fam, stages = x["fam"], x["stages"]
        state, trace = coceer.run_coceer(fam, COLUMNS, stages["coceer"])
        reports = [coceer.report_to_json(coceer.verify_requirement(state, fam, e))
                   for e in range(COLUMNS)]
        yield 0, _coceer_checks(outs[0][1], x["kinds"]) + [
            ("trace file equals the run", decoded["coceer_trace"] == trace),
            ("report file equals the run", decoded["report"] == reports),
        ]
        yield 1, _pi01_checks(outs[1][1], x["table"]) + [
            ("trace file equals the run",
             decoded["pi01_trace"] == pi01.run_pi01(x["table"], stages["pi01"])),
        ]
        snap = preorder.materialize(preorder.run_preorder(x["b"], stages["preorder"]))
        yield 2, _preorder_checks(outs[2][1], x["b"]) + [
            ("snapshot file equals the run", decoded["snapshot"] == snap),
        ]
        bits = x["bits"]
        n = len(bits)
        yield 3, [
            ("encode summary", outs[3][1] == f"encoded {n} bits into {n * n + 3 * n} elements\n"),
            ("partition file equals the coding", decoded["partition"].classes() == _block_classes(bits)),
            ("character file equals the coding", decoded["character"] == eqrel.Character(
                Counter(len(c) for c in _block_classes(bits)))),
        ]
        yield 4, [("decode returns the input bits", outs[4][1] == "".join(map(str, bits)) + "\n")]


WORKLOADS = {w.name: w for w in (Diag(), Limits(), Artifacts())}

"""CLI surface: exit codes, file round trips, determinism."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from effstruct import cli, coceer, preorder
from effstruct.ceersim import family_to_json
from effstruct.cli import main
from effstruct.core import cantor_unpair, table_to_json
from effstruct.eqrel import Partition
from effstruct.generators import (
    generate_b,
    generate_diagonalization_suite,
    generate_gtable,
)
from effstruct.pi01 import settle_stage
from effstruct.preorder import VTable

from reference import (
    as_recorded, cut_history, expand_tails, generate_family, label_stages, reference_materialize,
    reference_trace_from_json, run_length_mutations, runs_as_format_2, snapshot_thresholds,
    stepped_run_pi01, stepped_state_pi01, windows,
)


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    return _write(tmp_path / "fam.json", family_to_json(generate_family(3, 4)))


def test_missing_input_is_exit_2(tmp_path):
    assert main(["pi01", "--g", str(tmp_path / "missing.json"), "--stages", "5"]) == 2


@pytest.mark.parametrize("command", ["coceer", "pi01", "preorder"])
def test_zero_stage_budget_is_exit_2(tmp_path, capsys, family_file, command):
    inputs = {
        "coceer": ["--family", family_file, "--columns", "4"],
        "pi01": ["--g", _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4)))],
        "preorder": ["--b", _write(tmp_path / "b.json", table_to_json(generate_b(5, 6)))],
    }
    assert main([command, *inputs[command], "--stages", "0", "--verify"]) == 2
    assert capsys.readouterr().err.startswith("error: stage ")


def test_malformed_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["pi01", "--g", str(bad), "--stages", "5"]) == 2


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe{", "cannot read", id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "is not valid JSON", id="deep-nesting"),
    pytest.param(b'{"format": ' + b"9" * 5000 + b"}", "is not valid JSON", id="huge-int"),
])
@pytest.mark.parametrize("argv", [
    ["coceer", "--columns", "1", "--stages", "5", "--family"],
    ["pi01", "--stages", "5", "--g"],
    ["preorder", "--stages", "5", "--b"],
    ["blocks", "--decode"],
])
def test_unreadable_json_is_exit_2(tmp_path, capsys, content, message, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([*argv, str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_schema_violation_is_exit_2(tmp_path):
    path = _write(tmp_path / "g.json", {"columns": [{"prefix": [], "period": []}]})
    assert main(["pi01", "--g", path, "--stages", "5"]) == 2
    # true == 1 in Python, but it is not a format version
    path = _write(tmp_path / "g.json", {**table_to_json(generate_gtable(1, 4)), "format": True})
    assert main(["pi01", "--g", path, "--stages", "5"]) == 2


_ZERO, _TWO = {"prefix": [], "period": [0]}, {"prefix": [], "period": [2]}


@pytest.mark.parametrize("table, pi01_error, preorder_error", [
    pytest.param([], "g table must be an object with a 'columns' array",
                 "set approximation must be an object with a 'columns' array", id="not-an-object"),
    pytest.param({"columns": _TWO}, "g table must be an object with a 'columns' array",
                 "set approximation must be an object with a 'columns' array",
                 id="columns-not-an-array"),
    pytest.param({"columns": [_TWO, {"prefix": [3], "period": [0]}]},
                 "column 1 takes a value below 1", "column 0 is not {0,1}-valued", id="g-value-0"),
    pytest.param({"columns": [_ZERO, {"prefix": [2], "period": [0]}]},
                 "column 0 takes a value below 1", "column 1 is not {0,1}-valued", id="set-value-2"),
    pytest.param({"columns": [_ZERO, {"prefix": [], "period": [1, 0]}]},
                 "column 0 takes a value below 1",
                 "column 1 has a non-constant period; no limit", id="non-constant-period"),
    pytest.param({"columns": [{"prefix": [0], "period": [1]}]}, "column 0 takes a value below 1",
                 "column 0 must have limit 0 (the set never contains 0)", id="column-0-limit-1"),
    # an empty g table is valid, so pi01 reaches the stage budget
    pytest.param({"columns": []}, "stage count must be at least 1",
                 "a set approximation needs at least column 0", id="empty"),
    pytest.param({"format": True, "columns": [_ZERO]},
                 "unsupported format version True (expected 1)",
                 "unsupported format version True (expected 1)", id="format-true"),
    pytest.param({"columns": [{"prefix": []}]},
                 "sequence object must have 'prefix' and 'period' keys",
                 "sequence object must have 'prefix' and 'period' keys", id="no-period"),
])
def test_table_rejections_are_exit_2(tmp_path, capsys, table, pi01_error, preorder_error):
    """Each table file is rejected by both kinds of sequence table, each by its
    own rules, before the run checks the stage budget 0."""
    path = _write(tmp_path / "table.json", table)
    for command, flag, error in (("pi01", "--g", pi01_error), ("preorder", "--b", preorder_error)):
        assert main([command, flag, path, "--stages", "0"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_insufficient_horizon_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4)))
    code = main(["pi01", "--g", path, "--stages", "3", "--labels", "4", "--verify"])
    assert code == 2
    assert "required stages" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pi01", "preorder"])
def test_insufficient_horizon_writes_no_file(tmp_path, capsys, command):
    """The verifier runs before the output file is written, so a run that
    stops on its horizon leaves no file behind; a long enough run writes it."""
    inputs = {
        "pi01": ["--g", _write(tmp_path / "g.json", table_to_json(generate_gtable(7, 8))),
                 "--trace"],
        "preorder": ["--b", _write(tmp_path / "b.json", table_to_json(generate_b(7, 10))),
                     "--snapshot"],
    }
    out = tmp_path / "out.json"
    short, enough = {"pi01": ("5", "9"), "preorder": ("20", "31")}[command]
    assert main([command, *inputs[command], str(out), "--stages", short, "--verify"]) == 2
    assert "(required stages: " + enough + ")" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, *inputs[command], str(out), "--stages", enough, "--verify"]) == 0
    assert out.exists()


def test_negative_label_bound_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4)))
    assert main(["pi01", "--g", path, "--stages", "5", "--labels", "-1", "--verify"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pi01_verify_ok(tmp_path):
    path = _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4)))
    trace_path = tmp_path / "trace.json"
    code = main(
        ["pi01", "--g", path, "--stages", "60", "--labels", "4", "--verify",
         "--trace", str(trace_path)]
    )
    assert code == 0
    assert json.loads(trace_path.read_text())["format"] == 4


@pytest.mark.parametrize("command, flag", [("pi01", "--labels"), ("preorder", "--horizon")])
def test_verify_only_flag_needs_verify(tmp_path, capsys, command, flag):
    inputs = {
        "pi01": ["--g", _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4))),
                 "--stages", "60", "--trace"],
        "preorder": ["--b", _write(tmp_path / "b.json", table_to_json(generate_b(5, 6))),
                     "--stages", "50", "--snapshot"],
    }
    out = tmp_path / "out.json"
    assert main([command, *inputs[command], str(out), flag, "3"]) == 2
    assert capsys.readouterr().err == f"error: {flag} needs --verify\n"
    assert not out.exists()
    # without the flag, --verify checks its default
    assert main([command, *inputs[command], str(out), "--verify"]) == 0
    if command == "pi01":
        assert capsys.readouterr().out == "label 0: expected 8, observed 8 [ok]\n"


def test_coceer_verify_and_reports(tmp_path, family_file):
    report_path = tmp_path / "reports.json"
    code = main(
        ["coceer", "--family", family_file, "--columns", "4", "--stages", "600",
         "--verify", "--report", str(report_path)]
    )
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert len(reports) == 4
    assert all(r["certified"] for r in reports)
    # the reports come from --verify; without it the run is refused and writes nothing
    report_path.unlink()
    trace_path = tmp_path / "trace.json"
    code = main(
        ["coceer", "--family", family_file, "--columns", "4", "--stages", "600",
         "--report", str(report_path), "--trace", str(trace_path)]
    )
    assert code == 2
    assert not report_path.exists() and not trace_path.exists()


def test_coceer_unsatisfied_is_exit_1(tmp_path, capsys):
    # column 1 targets size 4; its script forms a size-4 class only at
    # stage 400, beyond the budget, so the witness class keeps size 4
    events = [[400, [0, x]] for x in (1, 2, 3)]
    fam_path = _write(
        tmp_path / "fam.json",
        {"format": 1, "members": [{"type": "script", "events": []},
                                  {"type": "script", "events": events}]},
    )
    code = main(["coceer", "--family", fam_path, "--columns", "2", "--stages", "300", "--verify"])
    assert code == 1
    assert "column 1 (script, target size 4): witness class 4, family realizes size: True, " \
        "satisfied=False" in capsys.readouterr().out


def test_coceer_churn_target_other_than_column_size(tmp_path, capsys):
    # column 1 targets size 4 against a size-3 churn: the limit is one
    # infinite class, so the verdict is made, and its size-4 class of 0
    # appears only at stages 2-3, so the column is certified by a case-4
    # stage after stage 3
    fam_path = _write(
        tmp_path / "fam.json",
        {"members": [{"type": "script", "events": []},
                     {"type": "churn", "k": 3, "spacing": 1}]},
    )
    code = main(["coceer", "--family", fam_path, "--columns", "2", "--stages", "400", "--verify"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert out.splitlines()[1] == (
        "column 1 (churn, target size 4): witness class 4, family realizes size: False, "
        "satisfied=True, certified=True [ok]")


def test_preorder_verify_and_snapshot(tmp_path):
    path = _write(tmp_path / "b.json", table_to_json(generate_b(5, 6)))
    snap_path = tmp_path / "snap.json"
    code = main(
        ["preorder", "--b", path, "--stages", "40", "--verify",
         "--snapshot", str(snap_path)]
    )
    assert code == 0
    snap = json.loads(snap_path.read_text())
    assert snap["format"] == 3 and snap["na"] == snap["nb"] == 40


def test_blocks_encode_decode_round_trip(tmp_path, capsys):
    encoded = tmp_path / "blocks.json"
    assert main(["blocks", "--x", "10110", "--encode", str(encoded)]) == 0
    payload = json.loads(encoded.read_text())
    assert payload["format"] == 3
    assert payload["partition"] == {"window": 40, "runs": [4, 5, 1, 8, 10, 11, 1]}
    character_file = _write(
        tmp_path / "char.json",
        {"format": 1, "character": payload["character"], "n_blocks": payload["n_blocks"]},
    )
    capsys.readouterr()
    # a hand-written format-1 character file and the format-3 --encode output
    for path in (character_file, str(encoded)):
        assert main(["blocks", "--decode", path]) == 0
        assert capsys.readouterr().out == "10110\n"


def test_blocks_encode_is_linear_and_builds_no_partition(tmp_path, monkeypatch):
    def no_partition(*args, **kwargs):
        raise AssertionError("blocks --encode built a Partition")

    monkeypatch.setattr(Partition, "__init__", no_partition)
    n = 800
    rng = random.Random(n)
    bits = "".join(rng.choice("01") for _ in range(n))
    encoded = tmp_path / "blocks.json"
    assert main(["blocks", "--x", bits, "--encode", str(encoded)]) == 0
    # at 800 bits a one bit writes a length and a size, about 12 bytes, and a
    # zero bit two lengths and a size, about 16; format 1 listed n^2 + 3n members
    assert encoded.stat().st_size < 40 * n


def test_blocks_flag_validation(tmp_path, capsys):
    assert main(["blocks"]) == 2
    assert main(["blocks", "--x", "012"]) == 2
    # each of these characters decodes once n_blocks is taken as given
    for character, n_blocks in (([[4, 1]], "x"), ([], -1), ([[4, 1]], True)):
        path = _write(tmp_path / "char.json", {"character": character, "n_blocks": n_blocks})
        assert main(["blocks", "--decode", path]) == 2, n_blocks
    # the character is read from 'character', the key --encode writes, only
    path = _write(tmp_path / "char.json", {"entries": [[4, 1]], "n_blocks": 1})
    assert main(["blocks", "--decode", path]) == 2
    capsys.readouterr()
    # the format, when given, must be the integer 1 or 3; format 2 is no longer read
    for version in (2, 7, "x", True):
        path = _write(tmp_path / "char.json",
                      {"format": version, "character": [[4, 1]], "n_blocks": 1,
                       "partition": {"window": 4, "runs": [4]}})
        assert main(["blocks", "--decode", path]) == 2, version
        assert capsys.readouterr() == (
            "", f"error: unsupported format version {version!r} (expected 1 or 3)\n")
    for header in ({"format": 1}, {}, {"format": 3, "partition": {"window": 4, "runs": [4]}}):
        path = _write(tmp_path / "char.json", {**header, "character": [[4, 1]], "n_blocks": 1})
        assert main(["blocks", "--decode", path]) == 0, header
        assert capsys.readouterr().out == "1\n"
    # --encode goes with --x only
    out = tmp_path / "out.json"
    assert main(["blocks", "--decode", path, "--encode", str(out)]) == 2
    assert not out.exists()


def test_blocks_decode_checks_partition_shape(tmp_path, capsys):
    """A format-3 file decodes only when its partition is the coding of
    the decoded bits, entry for entry: every single mutation of its run
    lengths or window, or a missing partition, exits 2 and prints nothing.
    A swap of two lengths and a length moved by 1 keep the window and the
    number of classes, so a check of the shape alone would pass them."""
    message = ("error: block file 'partition' must be the coding of the decoded bits: "
               "'window' {} and 'runs' its {} class lengths in window order\n")
    for bits in ("10110", "0", "1", "0011101001"):
        encoded = tmp_path / "blocks.json"
        assert main(["blocks", "--x", bits, "--encode", str(encoded)]) == 0
        valid = json.loads(encoded.read_text())
        window, runs = valid["partition"]["window"], valid["partition"]["runs"]
        capsys.readouterr()
        for partition in run_length_mutations(valid["partition"]):
            obj = {**valid, "partition": partition}
            if partition is None:
                del obj["partition"]
            assert main(["blocks", "--decode", _write(tmp_path / "bad.json", obj)]) == 2, obj
            assert capsys.readouterr() == ("", message.format(window, len(runs))), obj
        # the file as written decodes, and a format-1 file's partition is not read
        for obj in (valid, {**valid, "format": 1, "partition": {"window": 1, "runs": "garbage"}}):
            assert main(["blocks", "--decode", _write(tmp_path / "ok.json", obj)]) == 0
            assert capsys.readouterr().out == bits + "\n"
    # the partition of a file whose character does not decode is not read
    assert main(["blocks", "--decode", _write(tmp_path / "bad.json", {
        "format": 3, "character": [[4, 1], [6, 1]], "n_blocks": 1, "partition": None})]) == 2
    assert capsys.readouterr() == ("", "error: character does not match any block coding on "
                                       "1 blocks\n")


def test_verify_all_runs_the_whole_budget(capsys):
    assert main(["verify-all", "--seed", "7", "--stages", "30000"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "PASS diagonalization: 25/25 requirements satisfied and certified within 30000 stages")


def test_verify_all_green(capsys):
    assert main(["verify-all", "--seed", "7", "--stages", "5000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS diagonalization: 25/25 requirements satisfied and certified within 5000 stages",
        "PASS liminf class sizes: 50/50 tables verified exactly",
        "PASS preorder fingerprints: 30/30 set approximations recovered exactly "
        "(29 with membership flips)",
        "PASS block coder: 100 round trips and 33 character cross-checks exact",
    ]


def _as_format_4(run) -> dict:
    """A run's trace in format 4: one record per stepped focus with its
    column's extra after it and its exile, and the tails as (e, w, case).
    Pass it the records and tails that :func:`reference_trace_from_json`
    replays from a format-5 file."""
    records = [{"stage": r.stage, "e": r.e, "case": r.case, "extra": r.extra,
                "exiled": [list(pair) for pair in r.exiled]} for r in run.records]
    return {"format": 4, "columns": run.columns, "stages": run.stages, "records": records,
            "tails": [list(tail) for tail in run.tails]}


def _as_format_3(trace: dict) -> dict:
    """The format-4 trace in format 3: each record's extra spelled out as the
    column's witnesses "Y", the initial segment 1..2e+1 and then the extra."""
    records = [{**{k: v for k, v in r.items() if k != "extra"},
                "Y": list(range(1, 2 * r["e"] + 2)) + [r["extra"]] * (r["extra"] is not None)}
               for r in trace["records"]]
    return {**trace, "format": 3, "records": records}


def _as_format_2(run) -> dict:
    """A run's trace in format 2: its tails written out as records, and
    every record with the latch flag left after its focus, off."""
    records = [{"stage": r.stage, "e": r.e, "case": r.case, "Y": list(r.witnesses),
                "flag": "off", "exiled": [list(pair) for pair in r.exiled]}
               for r in expand_tails(run).records]
    return {"format": 2, "columns": len(run.cases), "stages": run.stages, "records": records}


def _as_format_1(trace: dict) -> dict:
    """The same trace in format 1: every stage recorded, a case-0 skip where
    the focus lies beyond the columns, and the constant mode field."""
    focused = {r["stage"]: r for r in trace["records"]}
    records = []
    for stage in range(1, trace["stages"] + 1):
        e, _ = cantor_unpair(stage)
        skip = {"stage": stage, "e": e, "case": 0, "Y": None, "flag": None, "exiled": []}
        records.append(focused.pop(stage) if e < trace["columns"] else skip)
    assert not focused
    return {**trace, "format": 1, "mode": "spaced", "records": records}


def _with_y_limit(entry: dict) -> dict:
    """A report entry with the limit witnesses spelled out as ``y_limit``,
    the initial segment 1..k-1 and then the extra, in place of ``extra``."""
    extra = entry["extra"]
    y_limit = list(range(1, entry["k"])) + ([] if extra is None else [extra])
    return {**{key: v for key, v in entry.items() if key != "extra"}, "y_limit": y_limit}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _indented(obj) -> bytes:
    """``obj`` as the CLI wrote files before they became one compact line."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _compact(obj) -> bytes:
    """``obj`` as the CLI writes files: one compact line with sorted keys."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_coceer_output_files_are_pinned(tmp_path):
    # a refactor of the construction must leave its trace and report bytes alone
    fam, _ = generate_diagonalization_suite(7)
    fam_path = _write(tmp_path / "fam.json", family_to_json(fam))
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    code = main(
        ["coceer", "--family", fam_path, "--columns", "26", "--stages", "3000", "--verify",
         "--trace", str(trace), "--report", str(report)]
    )
    assert code == 0
    assert _sha(trace.read_bytes()) == \
        "3abf9dbd60d3c5e45a3a35399ccb7f83469370f8c3373661661885fe429a6124"
    assert _sha(report.read_bytes()) == \
        "8663599bc8bceb44b37abc6c6617819c1e73f16d911be26cb255a26cd576b0d7"
    # with each entry's y_limit spelled out in place of its extra, the report
    # is the file written before, byte for byte (the digests pinned before)
    old_report = [_with_y_limit(entry) for entry in json.loads(report.read_text())]
    assert _sha(_compact(old_report)) == \
        "a3ee68fe8c030db3a1fe2af84d2c4acfddb3fe822649173ad7db0dfde3b66863"
    assert _sha(_indented(old_report)) == \
        "8dd419bb44931c6f736f51817f5be7d963f2991cea0565978a50eaf20143c3e4"
    # replayed column by column by the reference, the format-5 trace is the
    # format-4 file byte for byte (the digest pinned before format 5), and
    # the library's replay of the loaded trace gives the same records
    run = reference_trace_from_json(json.loads(trace.read_text()))
    loaded = coceer.trace_from_json(json.loads(trace.read_text()))
    assert as_recorded(loaded) == run
    four = _as_format_4(run)
    assert _sha(_compact(four)) == \
        "e84b2b581d5a9b075c0639ed0f78674da66516ab5b3d80c08f7fc390d33bb3a4"
    # with "Y" put back, the format-4 trace is the format-3 file byte for byte
    # (the digest pinned before format 4)
    assert _sha(_compact(_as_format_3(four))) == \
        "64f0c2e531c67997dc6c4e69adbf6d81d3b49c686d908a8c05f94439b2765d04"
    # with its tails written out and the flag put back, it is the format-2
    # file byte for byte (the digests pinned before format 3)
    old = _as_format_2(loaded)
    assert _sha(_compact(old)) == \
        "b583b5ddc0dba257a7932f156d59d757fafd1218ea36b281913574f1779b2b35"
    assert _sha(_indented(old)) == \
        "7404bb86ea86fff3f437fba999af72feeb4860953ce878fad4d07be460d67e53"
    # expanded with its skip records, the format-2 trace is the format-1 file
    # byte for byte (the digest pinned before format 2)
    assert _sha(_indented(_as_format_1(old))) == \
        "32ceccc6ec59b627d5289a4d71a45e0e61afc690957d8f7b45542e6fe5416955"


@pytest.mark.parametrize("stages, code, fails, digest", [
    # churn columns 12 and 14 have settled by stage 120, before their fourth case 3
    (120, 1, 22, "5ef1f74d43d23c4d4b3437c5db2d52c5218565f321cf59604ce0159f933b48fb"),
    (300, 1, 9, "1ddc8eb7739bcee8448e4cf690fd122deda22bdc57db26d55efa9314047bb749"),
    (3000, 0, 0, "b447b56dda7f8c370d40ff9abd4610ed4888fe0ea2dbd2398e2b7e02f47fbf71"),
])
def test_coceer_short_budget_verdicts_are_pinned(tmp_path, capsys, stages, code, fails, digest):
    # a change to a certificate or a settle rule must leave the verdicts of
    # budgets too short for some columns alone
    fam, _ = generate_diagonalization_suite(7)
    fam_path = _write(tmp_path / "fam.json", family_to_json(fam))
    assert main(["coceer", "--family", fam_path, "--columns", "26",
                 "--stages", str(stages), "--verify"]) == code
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == fails
    assert _sha(out.encode()) == digest


def _as_pi01_format_3(trace: dict, since: list) -> dict:
    """The format-4 pi01 trace in format 3: ``since``, each label's stages
    at S for the labels below min(width, S), put back."""
    return {**trace, "format": 3, "since": since}


def _as_pi01_format_2(trace: dict) -> dict:
    """The format-3 pi01 trace in format 2: the i-th history numbered i, and
    the window after each stage 0..T, for T the greatest stage in the
    histories, counted from the histories' first entries."""
    histories = trace["transitions"]
    last = max((hist[-1][0] for hist in histories), default=0)
    return {"format": 2, "stages": trace["stages"], "windows": windows(histories, last),
            "transitions": [[x, hist] for x, hist in enumerate(histories)],
            "since": trace["since"]}


def test_pi01_preorder_output_files_are_pinned(tmp_path, capsys):
    # a faster stepper must leave the trace, snapshot and verdict bytes alone
    table = generate_gtable(7, 8)
    g_path = _write(tmp_path / "g.json", table_to_json(table))
    trace = tmp_path / "trace.json"
    code = main(["pi01", "--g", g_path, "--stages", "1500", "--labels", "8", "--verify",
                 "--trace", str(trace)])
    assert code == 0
    assert _sha(trace.read_bytes()) == \
        "647646cb8d5a4ee7f44762603720e33c4d2cb3988e0468f4793d3675995420e9"
    assert _sha(capsys.readouterr().out.encode()) == \
        "63b759712b73d4ff16ad7a2883ffe39d9612036c6d9ae564966bd9dda0d7e838"
    # with the stacks of the run stepped at every stage put back as 'since',
    # the format-4 trace is the format-3 file byte for byte (the digest
    # pinned before format 4)
    state = stepped_state_pi01(table, 1500)
    three = _as_pi01_format_3(json.loads(trace.read_text()),
                              [label_stages(state, k) for k in range(table.width)])
    assert _sha(_compact(three)) == \
        "9395c14a2d74c08a0558d45dab22fe03960cba70bb8cfbd5bbf5c3178ea17bca"
    # with the element numbers and the windows put back, the format-3 trace is
    # the format-2 file byte for byte (the digest pinned before format 3)
    obj = _as_pi01_format_2(three)
    assert _sha(_compact(obj)) == \
        "8e67941dacef5a65b4fa91530d7b41c05acc1922243273423c1e7301fe1c4c29"
    # the format-2 trace is the run stepped at every stage cut at its settle
    # stage, and that run written in format 1 is the format-1 file byte for
    # byte (the digests pinned before format 2)
    stepped, last = stepped_run_pi01(table, 1500), settle_stage(table)
    assert obj["windows"] == windows(stepped.transitions.values(), last)
    assert obj["transitions"] == json.loads(json.dumps(sorted(cut_history(stepped, last).items())))
    old = {"format": 1, "stages": 1500, "windows": windows(stepped.transitions.values(), 1500),
           "transitions": sorted(stepped.transitions.items())}
    assert _sha(_compact(old)) == \
        "f764cad88402f5e2721d2edc1f5be439e60173ff4524af6781945fb394ba3d83"
    assert _sha(_indented(json.loads(_compact(old)))) == \
        "c20ba4cc7301f807b8b7810c06f2a6d569bd94c0ded07943a01b8b30c4ec7987"
    b_path = _write(tmp_path / "b.json", table_to_json(generate_b(7, 10)))
    snapshot = tmp_path / "snapshot.json"
    code = main(["preorder", "--b", b_path, "--stages", "250", "--verify",
                 "--snapshot", str(snapshot)])
    assert code == 0
    assert snapshot.read_text() == (
        '{"format":3,"na":250,"nb":250,"thresholds":[0,0,0,2,0,4,5,0,6,0,8],"zeros":120}\n')
    assert _sha(capsys.readouterr().out.encode()) == \
        "4390d46cccef40ad5e9bdb77199455ea6f48f70906995eee40d8a10ce07e3ee6"
    # with every threshold spelled out, the format-3 snapshot is the format-2
    # file byte for byte (the digests pinned before format 3)
    snap = preorder.snapshot_from_json(json.loads(snapshot.read_text()))
    obj = {"format": 2, "na": snap.na, "nb": snap.nb, "thresholds": snapshot_thresholds(snap)}
    assert _sha(_compact(obj)) == \
        "1327d68e9ba7d0bfb6212b778e6c65718f988ea49a29cd06887bd50578000254"
    assert _sha(_indented(obj)) == \
        "1fa78d5f91056e5454bebe8f597c2070d50bfbb6de5c4f5f5837bd85a4d0a469"
    # expanded to its pairs, the format-2 snapshot is the format-1 file
    # byte for byte (the digest pinned before format 2)
    table = VTable(v=dict(enumerate(obj["thresholds"])))
    pairs = reference_materialize(table, obj["na"], obj["nb"]).leq
    old = {"format": 1, "na": obj["na"], "nb": obj["nb"], "leq": sorted(map(list, pairs))}
    assert _sha(_indented(old)) == \
        "8de11b9b6e542b82d45c5a887ed1e65d46cf4942227d802cd699261f91a9d621"


def test_blocks_output_is_pinned(tmp_path, capsys):
    # building the layout in closed form must leave the file and summary bytes alone
    bits = "".join(str((i * i + 3 * i) // 7 % 2) for i in range(400))
    encoded = tmp_path / "blocks.json"
    assert main(["blocks", "--x", bits, "--encode", str(encoded)]) == 0
    assert _sha(encoded.read_bytes()) == \
        "51b0aed0a46152523165332464ac0e7af47ffe349a4690af6552fee4b0c2cb9d"
    assert _sha(capsys.readouterr().out.encode()) == \
        "e76287da6f7833adc11039f116145b1e6c404c59ab1a3742b8550b463155e0a9"
    # with each length turned back into its [start, stop] run, the format-3
    # file is the format-2 file byte for byte (the digest pinned before format 3)
    obj = json.loads(encoded.read_text())
    two = {**obj, "format": 2, "partition": runs_as_format_2(obj["partition"])}
    assert _sha(_compact(two)) == \
        "34048aa2330e65a535f0abc4bb181aa7ca03d109ff19c25333e6b359eeef9de4"
    # with its runs expanded to member lists, the format-2 file is the
    # format-1 file byte for byte (the digest pinned before format 2)
    window, runs = two["partition"]["window"], two["partition"]["runs"]
    classes = [[x for start, stop in cls for x in range(start, stop)] for cls in runs]
    old = {**two, "format": 1, "partition": {"window": window, "classes": classes}}
    assert _sha(_indented(old)) == \
        "723cd3addae2cebde5da6daf88623d24190f051a7e9b83045eb2174adc11033a"


def test_written_files_match_default_json_dumps(tmp_path, monkeypatch):
    # _dump_json skips the encoder's circular-reference check; every file
    # kind, written from the README commands, is byte for byte what
    # json.dumps writes with the check
    written = []
    dump = cli._dump_json

    def recording(path, obj):
        dump(path, obj)
        written.append((path, obj))

    monkeypatch.setattr(cli, "_dump_json", recording)
    fam = _write(tmp_path / "fam.json", family_to_json(generate_diagonalization_suite(7)[0]))
    g = _write(tmp_path / "g.json", table_to_json(generate_gtable(7, 8)))
    b = _write(tmp_path / "b.json", table_to_json(generate_b(7, 10)))
    out = {name: str(tmp_path / f"{name}.json")
           for name in ("coceer_trace", "report", "pi01_trace", "snapshot", "blocks")}
    for argv in (
        ["coceer", "--family", fam, "--columns", "4", "--stages", "2000",
         "--trace", out["coceer_trace"], "--verify", "--report", out["report"]],
        ["pi01", "--g", g, "--stages", "60", "--labels", "4", "--trace", out["pi01_trace"],
         "--verify"],
        ["preorder", "--b", b, "--stages", "40", "--verify", "--snapshot", out["snapshot"]],
        ["blocks", "--x", "10110", "--encode", out["blocks"]],
    ):
        assert main(argv) == 0, argv
    assert sorted(path for path, _ in written) == sorted(out.values())
    for path, obj in written:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert Path(path).read_bytes() == text.encode(), path


def test_end_to_end_determinism(tmp_path, family_file):
    paths = []
    for name in ("a", "b"):
        trace = tmp_path / f"{name}.json"
        code = main(
            ["coceer", "--family", family_file, "--columns", "4", "--stages", "200",
             "--trace", str(trace)]
        )
        assert code == 0
        paths.append(trace)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "member",
    [
        {"type": "script", "events": [["a", [0, 1]]]},
        {"type": "script", "events": [[1.5, [0, 1]]]},
        {"type": "script", "events": [[True, [0, 1]]]},
        {"type": "script", "events": [[1, [0, "1"]]]},
        {"type": "churn", "k": "3", "spacing": 2},
        {"type": "churn", "k": 2.5, "spacing": 2},
        {"type": "churn", "k": 2, "spacing": True},
    ],
)
def test_non_natural_family_field_is_exit_2(tmp_path, capsys, member):
    fam_path = _write(tmp_path / "fam.json", {"format": 1, "members": [member]})
    code = main(["coceer", "--family", fam_path, "--columns", "1", "--stages", "20", "--verify"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_is_exit_2(tmp_path, capsys, family_file):
    g_path = _write(tmp_path / "g.json", table_to_json(generate_gtable(1, 4)))
    b_path = _write(tmp_path / "b.json", table_to_json(generate_b(5, 6)))
    bad = str(tmp_path / "missing" / "out.json")
    commands = [
        ["coceer", "--family", family_file, "--columns", "4", "--stages", "50", "--trace", bad],
        ["coceer", "--family", family_file, "--columns", "4", "--stages", "600", "--verify",
         "--report", bad],
        ["pi01", "--g", g_path, "--stages", "20", "--trace", bad],
        ["preorder", "--b", b_path, "--stages", "20", "--snapshot", bad],
        ["blocks", "--x", "101", "--encode", bad],
    ]
    for argv in commands:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert f"cannot write {bad}" in err
        assert out == "", argv   # every file is written before any verdict is printed


_STARTUP_PROBE = """
import json, sys
import effstruct.cli, effstruct.generators
mods = [m for name, m in sys.modules.items() if name.startswith("effstruct")]
print(json.dumps({
    "loaded": sorted({"argparse", "dataclasses", "gettext", "inspect"} & sys.modules.keys()),
    "dataclasses": sorted(c.__qualname__ for m in mods for c in vars(m).values()
                          if isinstance(c, type) and hasattr(c, "__dataclass_fields__")),
}))
"""


def test_startup_loads_no_dataclasses():
    """A fresh interpreter importing the CLI loads none of ``argparse``,
    ``gettext``, ``dataclasses`` and ``inspect``, and builds no dataclass:
    each costs start-up in every process (README, start-up), and only a
    line the command table does not take builds a parser.  ``-S`` keeps
    site hooks out of the count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", _STARTUP_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"loaded": [], "dataclasses": []}


COMMANDS = ("coceer", "pi01", "preorder", "blocks", "verify-all")
# the fewest flags each command parses without error; no file is read while parsing
VALID = {
    "coceer": ["--family", "f.json", "--columns", "1", "--stages", "1"],
    "pi01": ["--g", "g.json", "--stages", "1"],
    "preorder": ["--b", "b.json", "--stages", "1"],
    "blocks": [],
    "verify-all": [],
}
ARGV_BATTERY = [
    [], ["-h"], ["--help"], ["nope"], ["-h", "coceer"], ["--verify"], ["coceer=1"],
    *([name, "-h"] for name in COMMANDS),
    *([name, *VALID[name]] for name in COMMANDS),
    ["coceer", "--columns", "1", "--stages", "1"],
    ["pi01", "--g", "g.json", "--stages", "zz"],
    ["coceer", "--fam", "f.json", "--col", "1", "--stages=1", "--verify"],
    ["coceer", *VALID["coceer"], "--bogus"],
    ["coceer", "--bogus"],
    ["coceer", *VALID["coceer"], "-h"],
    ["blocks", "extra"],
    ["blocks", "--x=101", "--", "extra"],
    ["coceer", "--", "--x"],
    ["verify-all", "--seed"],
    ["verify-all", "--seed", "3", "--stages", "-9", "--seed", "4"],
    ["verify-all", "--s", "3"],
    ["pi01", *VALID["pi01"], "--labels", "-1", "--verify", "--trace", "t.json"],
    ["preorder", *VALID["preorder"], "--horizon", "2", "--snapshot", "s.json", "pi01"],
    ["blocks", "coceer", *VALID["coceer"]],
    ["coceer", *VALID["coceer"], "--verify", "--verify"],
    ["pi01", "--g", "", "--stages", "1"],
    ["pi01", "--g", "g.json", "--stages", " 7"],
    ["coceer", "--family", "--verify", "--columns", "1", "--stages", "1"],
]


@pytest.fixture
def recorded(monkeypatch):
    """Every command's handler records its namespace instead of running."""
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0
    monkeypatch.setattr(cli, "_COMMANDS", {name: (record, help_line, flags)
                                           for name, (_, help_line, flags) in cli._COMMANDS.items()})
    return seen


@pytest.fixture
def built(monkeypatch):
    """Every ``ArgumentParser`` built, in order."""
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return parsers


def _outcome(capsys, seen, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, seen.pop() if seen else None


def _run_full_parser(argv):
    args = cli.build_parser().parse_args(argv)
    del args.subcommand
    return args.handler(args)


@pytest.mark.parametrize("argv", ARGV_BATTERY, ids=lambda argv: " ".join(argv) or "<none>")
def test_command_parser_behaves_as_full_parser(monkeypatch, capsys, recorded, argv):
    """``main`` reads a plain line from the command table and falls back to the
    full parser: stdout, stderr, exit code and namespace (but for ``subcommand``)
    are the full parser's, whether ``argv`` is passed or read from ``sys.argv``."""
    full = _outcome(capsys, recorded, lambda: _run_full_parser(list(argv)))
    via_main = _outcome(capsys, recorded, lambda: main(list(argv)))
    monkeypatch.setattr(sys, "argv", ["effstruct", *argv])
    via_sys_argv = _outcome(capsys, recorded, main)
    assert via_main == via_sys_argv == full


_FLAGS = sorted({flag for _, _, flags in cli._COMMANDS.values() for flag, _ in flags})
_VALUE = st.sampled_from(["7", "-3", " 7", "5_000", "9" * 5000, "zz", "", "f.json", "101"])
_WORD = st.one_of(_VALUE, st.sampled_from([
    *COMMANDS, *_FLAGS,
    "--fam", "--col", "--s", "--st", "--ver", "--lab", "--hor", "--snap", "--enc", "--dec",
    "--stages=1", "--g=g.json", "--x=101", "--seed=2", "-h", "--help", "--",
]))


def _pair(spec):
    """A flag with a value its type takes, or alone if it takes none."""
    flag, keywords = spec
    if keywords.get("action") == "store_true":
        return st.just((flag,))
    values = ["7", " 7", "5_000", "0"] if keywords.get("type") is int else ["f.json", "101", ""]
    return st.tuples(st.just(flag), st.sampled_from(values))


@st.composite
def _command_lines(draw):
    """A well-formed line (a command, its required flags and some others, each with
    a value its type takes, in any order), then up to two words inserted or
    replaced anywhere: flags of any command, odd forms, odd values."""
    name = draw(st.sampled_from(COMMANDS))
    specs = cli._COMMANDS[name][2]
    chosen = [spec for spec in specs if spec[1].get("required") or draw(st.booleans())]
    words = [name, *(word for spec in draw(st.permutations(chosen)) for word in draw(_pair(spec)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        if at < len(words) and draw(st.booleans()):
            words[at] = draw(_WORD)
        else:
            words.insert(at, draw(_WORD))
    return words


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
def test_table_reader_agrees_with_full_parser(capsys, recorded, argv):
    """On drawn lines ``main`` prints, exits and records what the full parser does,
    and the table reader gives either None or the full parser's namespace."""
    full = _outcome(capsys, recorded, lambda: _run_full_parser(list(argv)))
    assert _outcome(capsys, recorded, lambda: main(list(argv))) == full
    read = cli._read_command_line(list(argv))
    assert read is None or (full[0] == 0 and vars(read) == full[3])


@pytest.mark.parametrize("name", COMMANDS)
def test_valid_call_builds_one_parser(recorded, built, name):
    """A valid call builds no ``ArgumentParser``: the table reader reads it.
    Counted, not timed."""
    assert main([name, *VALID[name]]) == 0
    assert built == []
    assert recorded


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope"], ["-h", "coceer"],
                                  ["coceer", *VALID["coceer"], "--bogus"], ["blocks", "extra"]],
                         ids=lambda argv: " ".join(argv) or "<none>")
def test_help_and_fallback_build_the_full_parser(recorded, built, argv):
    """Help and usage errors build the full parser and nothing before it."""
    with pytest.raises(SystemExit):
        main(argv)
    assert [p.prog for p in built] == ["effstruct", *(f"effstruct {name}" for name in COMMANDS)]
    assert not recorded

"""CLI surface: exit codes, file round trips, determinism."""

import hashlib
import json

import pytest

from effstruct.ceersim import family_to_json
from effstruct.cli import main
from effstruct.core import cantor_unpair, delta02_to_json
from effstruct.generators import (
    generate_b,
    generate_diagonalization_suite,
    generate_family,
    generate_gtable,
)
from effstruct.pi01 import gtable_to_json
from effstruct.preorder import VTable

from reference import reference_materialize


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
        "pi01": ["--g", _write(tmp_path / "g.json", gtable_to_json(generate_gtable(1, 4)))],
        "preorder": ["--b", _write(tmp_path / "b.json", delta02_to_json(generate_b(5, 6)))],
    }
    assert main([command, *inputs[command], "--stages", "0", "--verify"]) == 2
    assert capsys.readouterr().err.startswith("error: stage ")


def test_malformed_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["pi01", "--g", str(bad), "--stages", "5"]) == 2


def test_schema_violation_is_exit_2(tmp_path):
    path = _write(tmp_path / "g.json", {"columns": [{"prefix": [], "period": []}]})
    assert main(["pi01", "--g", path, "--stages", "5"]) == 2
    # true == 1 in Python, but it is not a format version
    path = _write(tmp_path / "g.json", {**gtable_to_json(generate_gtable(1, 4)), "format": True})
    assert main(["pi01", "--g", path, "--stages", "5"]) == 2


def test_insufficient_horizon_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path / "g.json", gtable_to_json(generate_gtable(1, 4)))
    code = main(["pi01", "--g", path, "--stages", "3", "--labels", "4", "--verify"])
    assert code == 2
    assert "required stages" in capsys.readouterr().err


def test_negative_label_bound_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path / "g.json", gtable_to_json(generate_gtable(1, 4)))
    assert main(["pi01", "--g", path, "--stages", "5", "--labels", "-1", "--verify"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_pi01_verify_ok(tmp_path):
    path = _write(tmp_path / "g.json", gtable_to_json(generate_gtable(1, 4)))
    trace_path = tmp_path / "trace.json"
    code = main(
        ["pi01", "--g", path, "--stages", "60", "--labels", "4", "--verify",
         "--trace", str(trace_path)]
    )
    assert code == 0
    assert json.loads(trace_path.read_text())["format"] == 1


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
    # appears once, so the column is never certified
    fam_path = _write(
        tmp_path / "fam.json",
        {"members": [{"type": "script", "events": []},
                     {"type": "churn", "k": 3, "spacing": 1}]},
    )
    code = main(["coceer", "--family", fam_path, "--columns", "2", "--stages", "400", "--verify"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    assert out.splitlines()[1] == (
        "column 1 (churn, target size 4): witness class 4, family realizes size: False, "
        "satisfied=True, certified=False [FAIL]")


def test_preorder_verify_and_snapshot(tmp_path):
    path = _write(tmp_path / "b.json", delta02_to_json(generate_b(5, 6)))
    snap_path = tmp_path / "snap.json"
    code = main(
        ["preorder", "--b", path, "--stages", "40", "--verify",
         "--snapshot", str(snap_path)]
    )
    assert code == 0
    snap = json.loads(snap_path.read_text())
    assert snap["na"] == snap["nb"] == 40


def test_blocks_encode_decode_round_trip(tmp_path, capsys):
    encoded = tmp_path / "blocks.json"
    assert main(["blocks", "--x", "10110", "--encode", str(encoded)]) == 0
    payload = json.loads(encoded.read_text())
    character_file = _write(
        tmp_path / "char.json",
        {"format": 1, "character": payload["character"], "n_blocks": payload["n_blocks"]},
    )
    capsys.readouterr()
    assert main(["blocks", "--decode", character_file]) == 0
    assert capsys.readouterr().out.strip() == "10110"


def test_blocks_flag_validation(tmp_path):
    assert main(["blocks"]) == 2
    assert main(["blocks", "--x", "012"]) == 2
    # each of these characters decodes once n_blocks is taken as given
    for character, n_blocks in (([[4, 1]], "x"), ([], -1), ([[4, 1]], True)):
        path = _write(tmp_path / "char.json", {"character": character, "n_blocks": n_blocks})
        assert main(["blocks", "--decode", path]) == 2, n_blocks
    # the character is read from 'character', the key --encode writes, only
    path = _write(tmp_path / "char.json", {"entries": [[4, 1]], "n_blocks": 1})
    assert main(["blocks", "--decode", path]) == 2
    # the format, when given, must be the integer 1
    for version in (7, "x", True):
        path = _write(tmp_path / "char.json",
                      {"format": version, "character": [[4, 1]], "n_blocks": 1})
        assert main(["blocks", "--decode", path]) == 2, version
    for header in ({"format": 1}, {}):
        path = _write(tmp_path / "char.json", {**header, "character": [[4, 1]], "n_blocks": 1})
        assert main(["blocks", "--decode", path]) == 0, header


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
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (trace, report)]
    assert digests == [
        "7404bb86ea86fff3f437fba999af72feeb4860953ce878fad4d07be460d67e53",
        "8dd419bb44931c6f736f51817f5be7d963f2991cea0565978a50eaf20143c3e4",
    ]
    # expanded with its skip records, the format-2 trace is the format-1 file
    # byte for byte (the digest pinned before format 2)
    old = json.dumps(_as_format_1(json.loads(trace.read_text())), indent=2, sort_keys=True)
    assert hashlib.sha256((old + "\n").encode()).hexdigest() == \
        "32ceccc6ec59b627d5289a4d71a45e0e61afc690957d8f7b45542e6fe5416955"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_pi01_preorder_output_files_are_pinned(tmp_path, capsys):
    # a faster stepper must leave the trace, snapshot and verdict bytes alone
    g_path = _write(tmp_path / "g.json", gtable_to_json(generate_gtable(7, 8)))
    trace = tmp_path / "trace.json"
    code = main(["pi01", "--g", g_path, "--stages", "1500", "--labels", "8", "--verify",
                 "--trace", str(trace)])
    assert code == 0
    assert [_sha(trace.read_bytes()), _sha(capsys.readouterr().out.encode())] == [
        "c20ba4cc7301f807b8b7810c06f2a6d569bd94c0ded07943a01b8b30c4ec7987",
        "63b759712b73d4ff16ad7a2883ffe39d9612036c6d9ae564966bd9dda0d7e838",
    ]
    b_path = _write(tmp_path / "b.json", delta02_to_json(generate_b(7, 10)))
    snapshot = tmp_path / "snapshot.json"
    code = main(["preorder", "--b", b_path, "--stages", "250", "--verify",
                 "--snapshot", str(snapshot)])
    assert code == 0
    assert [_sha(snapshot.read_bytes()), _sha(capsys.readouterr().out.encode())] == [
        "1fa78d5f91056e5454bebe8f597c2070d50bfbb6de5c4f5f5837bd85a4d0a469",
        "4390d46cccef40ad5e9bdb77199455ea6f48f70906995eee40d8a10ce07e3ee6",
    ]
    # expanded to its pairs, the format-2 snapshot is the format-1 file
    # byte for byte (the digest pinned before format 2)
    obj = json.loads(snapshot.read_text())
    table = VTable(v=dict(enumerate(obj["thresholds"])))
    pairs = reference_materialize(table, obj["na"], obj["nb"]).leq
    old = {"format": 1, "na": obj["na"], "nb": obj["nb"], "leq": sorted(map(list, pairs))}
    assert _sha((json.dumps(old, indent=2, sort_keys=True) + "\n").encode()) == \
        "8de11b9b6e542b82d45c5a887ed1e65d46cf4942227d802cd699261f91a9d621"


def test_blocks_output_is_pinned(tmp_path, capsys):
    # building the layout in closed form must leave the file and summary bytes alone
    bits = "".join(str((i * i + 3 * i) // 7 % 2) for i in range(400))
    encoded = tmp_path / "blocks.json"
    assert main(["blocks", "--x", bits, "--encode", str(encoded)]) == 0
    assert [_sha(encoded.read_bytes()), _sha(capsys.readouterr().out.encode())] == [
        "723cd3addae2cebde5da6daf88623d24190f051a7e9b83045eb2174adc11033a",
        "e76287da6f7833adc11039f116145b1e6c404c59ab1a3742b8550b463155e0a9",
    ]


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
    g_path = _write(tmp_path / "g.json", gtable_to_json(generate_gtable(1, 4)))
    b_path = _write(tmp_path / "b.json", delta02_to_json(generate_b(5, 6)))
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
        assert f"cannot write {bad}" in capsys.readouterr().err

"""Co-ceer diagonalization: stage cases, certification, and limit behavior."""

import random

import pytest

from effstruct.ceersim import CeerFamily, CeerScript, ChurnGenerator
from effstruct.coceer import (
    CoceerRun,
    compute_uv,
    init_coceer,
    run_coceer,
    trace_from_json,
    trace_to_json,
    verify_requirement,
)
from effstruct.core import cantor_pair, cantor_unpair
from effstruct.errors import InputError

from bruteforce import bf_is_equivalence, bf_relation_of_partition, bf_subset
from reference import coceer_snapshot

EMPTY = CeerScript(())


def test_init_spaced():
    state = init_coceer(3)
    col = state.columns[2]
    assert col.k == 6
    assert col.witnesses == {1, 2, 3, 4, 5}
    assert col.initial_witnesses == frozenset(col.witnesses)
    assert all(not c.flag for c in state.columns)


def test_init_validation():
    with pytest.raises(InputError):
        init_coceer(0)


def test_compute_uv():
    run = CoceerRun(CeerFamily((EMPTY, EMPTY)), 2)
    col = run.state.columns[1]
    assert (col.k, col.witnesses) == (4, {1, 2, 3})
    assert compute_uv(run.state, 1) == (None, 4)
    col.witnesses = {1, 2, 3, 7}
    col.exiled = {8}
    assert compute_uv(run.state, 1) == (7, 9)
    assert compute_uv(run.state, 0) == (None, 2)
    with pytest.raises(InputError):
        compute_uv(run.state, 2)


def _run_before_column_one(member):
    """Run on (empty script, member) through stage 1.

    Stage 2 = <1, 0>, so running to stage 2 dispatches column 1, whose
    target size is 4 and whose initial witnesses are {1, 2, 3}.
    """
    assert cantor_pair(1, 0) == 2
    run = CoceerRun(CeerFamily((EMPTY, member)), 2)
    run.run_to(1)
    return run


def _run_stage_two(run):
    [record] = run.run_to(2)
    return record


def test_step_case_one_declares_witness():
    # a size-4 class present from stage 0 is on record, so it latches no flag
    run = _run_before_column_one(CeerScript(tuple((0, (0, x)) for x in (1, 2, 3))))
    record = _run_stage_two(run)
    col = run.state.columns[1]
    assert record.case == 1
    assert col.witnesses == {1, 2, 3, 4}
    assert col.exiled == {5}
    assert not col.flag


def test_step_case_two_retracts_witness():
    run = _run_before_column_one(EMPTY)
    run.state.columns[1].witnesses = {1, 2, 3, 4}
    assert _run_stage_two(run).case == 2
    col = run.state.columns[1]
    assert col.witnesses == {1, 2, 3}
    assert col.exiled == {4}


def test_step_case_three_without_replaceable_witness():
    # a size-4 class formed at stage 1 is new to the history: the flag latches
    run = _run_before_column_one(CeerScript(tuple((1, (0, x)) for x in (1, 2, 3))))
    assert run.state.columns[1].flag
    assert _run_stage_two(run).case == 3
    col = run.state.columns[1]
    assert col.witnesses == {1, 2, 3, 4}
    assert not col.flag
    assert col.exiled == set()
    assert col.case3_count == 1


def test_step_case_three_swaps_witness():
    run = _run_before_column_one(EMPTY)
    # a reachable grown state: 4 and 5 were burned on the way to witness 6
    col = run.state.columns[1]
    col.witnesses = {1, 2, 3, 6}
    col.exiled = {4, 5}
    col.flag = True
    assert _run_stage_two(run).case == 3
    assert col.witnesses == {1, 2, 3, 7}
    assert col.exiled == {4, 5, 6}
    assert not col.flag


def test_step_case_four_pads():
    run = _run_before_column_one(EMPTY)
    assert _run_stage_two(run).case == 4  # baseline, no size-4 class, flag off
    col = run.state.columns[1]
    assert col.witnesses == {1, 2, 3}
    assert col.exiled == {4}
    assert col.last_case4_stage == 2


def test_run_trace_length_and_budget():
    fam = CeerFamily((CeerScript(()),))
    state, trace = run_coceer(fam, 1, 1)
    assert len(trace.records) == 1
    with pytest.raises(InputError):
        run_coceer(fam, 1, 0)
    with pytest.raises(InputError):
        run_coceer(fam, 2, 5)


def test_run_skips_columns_beyond_family_width():
    fam = CeerFamily((CeerScript(()),))
    state, trace = run_coceer(fam, 1, 10)
    assert [r.stage for r in trace.records] == [s for s in range(1, 11) if cantor_unpair(s)[0] < 1]
    assert all(r.e == 0 for r in trace.records) and state.stage == 10


def test_step_matches_run():
    rng = random.Random(13)
    events = tuple(
        sorted((rng.randint(1, 20), (rng.randrange(8), rng.randrange(8))) for _ in range(10))
    )
    fam = CeerFamily((CeerScript(events), ChurnGenerator(4, 2), EMPTY))
    run = CoceerRun(fam, 3)
    records = []
    for stage in (1, 2, 5, 5, 6, 17, 18, 40, 60):  # focused and unfocused stops, one repeated
        records += run.run_to(stage)
        assert run.state.stage == stage
    assert run.run_to(59) == [] and run.state.stage == 60  # no running backwards
    state, trace = run_coceer(fam, 3, 60)
    assert run.state == state
    assert tuple(records) == trace.records


def test_exiles_accumulate_and_stay_disjoint_from_witnesses():
    fam = CeerFamily((CeerScript(((2, (0, 1)),)), ChurnGenerator(4, 2)))
    state, trace = run_coceer(fam, 2, 120)
    seen: set[tuple[int, int]] = set()
    for record in trace.records:
        for pair in record.exiled:
            assert pair not in seen  # an element is exiled at most once
            seen.add(pair)
    for e, col in enumerate(state.columns):
        assert {(e, x) for x in col.exiled} <= seen | set()
        assert not col.witnesses & col.exiled


def test_snapshot_is_column_partition_initially():
    state = init_coceer(3)
    snap = coceer_snapshot(state, 12)
    for z1 in range(12):
        for z2 in range(12):
            same_column = cantor_unpair(z1)[0] == cantor_unpair(z2)[0]
            assert (snap.find(z1) == snap.find(z2)) == same_column


def test_snapshot_stays_equivalence_and_shrinks():
    fam = CeerFamily(
        (CeerScript(((1, (0, 1)), (3, (1, 2)))), ChurnGenerator(4, 2), CeerScript(()))
    )
    run = CoceerRun(fam, 3)
    previous = bf_relation_of_partition(coceer_snapshot(run.state, 12).classes())
    assert bf_is_equivalence(12, previous)
    for stage in range(1, 381):  # the first 80 focused stages
        run.run_to(stage)
        current = bf_relation_of_partition(coceer_snapshot(run.state, 12).classes())
        assert bf_is_equivalence(12, current)
        assert bf_subset(current, previous)
        previous = current


def test_verify_script_with_target_class():
    # column 1 (spaced) targets size 4; give its script a size-4 limit class
    events = tuple((s, (10, 10 + i)) for i, s in enumerate(range(1, 4), start=1))
    fam = CeerFamily((CeerScript(()), CeerScript(events)))
    state, _ = run_coceer(fam, 2, 200)
    report = verify_requirement(state, fam, 1)
    assert report.k == 4
    assert report.r_e_has_size_k
    assert report.witness_class_size == 5
    assert report.satisfied and report.certified


def test_verify_script_without_target_class():
    fam = CeerFamily((CeerScript(()), CeerScript(((1, (0, 1)),))))
    state, _ = run_coceer(fam, 2, 200)
    report = verify_requirement(state, fam, 1)
    assert not report.r_e_has_size_k
    assert report.witness_class_size == 4
    assert report.satisfied and report.certified


def test_verify_churn_settles_on_initial_witnesses():
    fam = CeerFamily((CeerScript(()), ChurnGenerator(4, 2)))
    state, trace = run_coceer(fam, 2, 400)
    report = verify_requirement(state, fam, 1)
    assert report.kind == "churn"
    assert report.y_limit == (1, 2, 3)
    assert report.witness_class_size == 4
    assert report.satisfied and report.certified
    # every witness the churn ever forced in was forced out again
    col = state.columns[1]
    extras = set().union(*(r.witnesses for r in trace.records if r.e == 1)) \
        - col.initial_witnesses
    assert extras  # the adversary did provoke the construction
    assert extras - col.witnesses <= col.exiled


def test_spaced_witness_sizes_disjoint_across_columns():
    state = init_coceer(30)
    taken: set[int] = set()
    for col in state.columns:
        sizes = {col.k, col.k + 1}
        assert 1 not in sizes  # exile singletons can never be mistaken for a witness class
        assert not sizes & taken
        taken |= sizes


def test_verify_uncertified_on_tiny_budget():
    fam = CeerFamily((CeerScript(()), ChurnGenerator(4, 2)))
    state, _ = run_coceer(fam, 2, 3)
    report = verify_requirement(state, fam, 1)
    assert not report.certified


def test_trace_json_round_trip():
    fam = CeerFamily((CeerScript(((1, (0, 1)),)), ChurnGenerator(4, 2)))
    _, trace = run_coceer(fam, 2, 30)
    obj = trace_to_json(trace)
    assert obj["format"] == 2 and "mode" not in obj
    assert [r["stage"] for r in obj["records"]] == [
        s for s in range(1, 31) if cantor_unpair(s)[0] < 2]
    assert trace_from_json(obj) == trace
    with pytest.raises(InputError):
        trace_from_json({"format": 2, "records": [{"stage": 1}]})
    for bad in ({"format": 1}, {"format": True}, {"format": 2.0}, {"columns": "z"},
                {"columns": -1}, {"stages": -1}, {"stages": False}):
        with pytest.raises(InputError):
            trace_from_json({**obj, **bad})
    records = obj["records"]

    def patched(i, **fields):
        return {**obj, "records": [*records[:i], {**records[i], **fields}, *records[i + 1:]]}

    for bad in ({"stage": -5}, {"stage": True}, {"e": "x"}, {"e": 1.0}, {"case": 9},
                {"case": -1}, {"case": "1"}, {"case": 0}, {"flag": "maybe"}, {"flag": True},
                {"flag": None}, {"Y": None}, {"Y": [-1]}, {"Y": ["0"]}, {"Y": 3},
                {"exiled": [[0, -1]]}, {"exiled": [["0", 1]]}, {"exiled": [[0, 1, 2]]},
                {"exiled": None}):
        with pytest.raises(InputError):
            trace_from_json(patched(0, **bad))
    for good in ({"flag": "on"}, {"Y": []}, {"case": 4}, {"exiled": []}):
        trace_from_json(patched(0, **good))
    # the records must be exactly the focused stages, in order
    schedule_breaks = [
        {**obj, "records": [records[1], records[0], *records[2:]]},   # not increasing
        {**obj, "records": [records[0], *records]},                   # repeated stage
        {**obj, "stages": records[-1]["stage"] - 1},                  # stage > stages
        patched(1, e=0),                                              # e != focus of stage
        patched(1, stage=3, e=1),                                     # stage 3 focuses 0
        {**obj, "columns": 1},                                        # e >= columns
        {**obj, "records": records[:-1]},                             # a focused stage lost
        {**obj, "records": [*records[:3], *records[4:]]},
    ]
    for broken in schedule_breaks:
        with pytest.raises(InputError):
            trace_from_json(broken)
    assert trace_from_json({**obj, "stages": 31}).stages == 31  # stage 31 focuses column 3
    with pytest.raises(InputError):  # no run has zero columns
        trace_from_json({**obj, "columns": 0, "records": []})

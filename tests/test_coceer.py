"""Co-ceer diagonalization: stage cases, certification, and limit behavior."""

import json
import random

import pytest

from effstruct.ceersim import CeerFamily, CeerScript, ChurnGenerator
from effstruct.coceer import (
    ColumnState,
    StageRecord,
    run_coceer,
    trace_from_json,
    trace_to_json,
    verify_requirement,
)
from effstruct.core import cantor_unpair
from effstruct.errors import InputError
from effstruct.generators import generate_diagonalization_suite

from bruteforce import bf_cantor_pair, bf_is_equivalence, bf_relation_of_partition, bf_subset
from reference import (
    coceer_snapshot, column_exiles, column_witnesses, expand_tails, record_witnesses,
    report_y_limit, tail_triples,
)

EMPTY = CeerScript(())
# the columns of a run before its first focus
INITIAL = [ColumnState(k=2 * e + 2, next_free=2 * e + 2) for e in range(3)]


def test_init_spaced():
    # stage 1 focuses column 0 only, so columns 1 and 2 are still initial
    columns, _ = run_coceer(CeerFamily((EMPTY,) * 3), 3, 1)
    assert columns[1:] == INITIAL[1:]
    col = columns[2]
    assert col.k == 6
    assert (column_witnesses(col), column_exiles(col)) == ((1, 2, 3, 4, 5), set())


def test_init_validation():
    with pytest.raises(InputError, match="need at least one column"):
        run_coceer(CeerFamily((EMPTY,)), 0, 5)


def test_column_witnesses_and_exiles_from_two_integers():
    col = ColumnState(k=4, next_free=4)
    assert (col.base, column_witnesses(col), column_exiles(col)) == (3, (1, 2, 3), set())
    col.extra, col.next_free = 7, 9  # 4, 5, 6 and 8 were burned on the way to witness 7
    assert column_witnesses(col) == (1, 2, 3, 7)
    assert column_exiles(col) == {4, 5, 6, 8}
    col.extra = None
    assert (column_witnesses(col), column_exiles(col)) == ((1, 2, 3), {4, 5, 6, 7, 8})


def _step_column_one(member, stage, case, witnesses, exiles):
    """Run (empty script, member) through ``stage``, a focus of column 1, and
    check that focus's case, the witnesses and exiles after it, and that its
    record lists exactly the new exiles.

    Column 1 targets size 4 with the initial witnesses {1, 2, 3}, and it is
    focused at stages 2 = <1, 0> and 4 = <1, 1>.
    """
    assert (bf_cantor_pair(1, 0), bf_cantor_pair(1, 1)) == (2, 4)
    fam = CeerFamily((EMPTY, member))
    before = column_exiles(run_coceer(fam, 2, stage - 1)[0][1])
    columns, trace = run_coceer(fam, 2, stage)
    record, col = trace.records[-1], columns[1]
    assert (record.stage, record.e) == (stage, 1)
    assert (record.case, record_witnesses(record), column_witnesses(col)) == (
        case, witnesses, witnesses)
    assert column_exiles(col) == exiles
    assert record.exiled == tuple((1, x) for x in sorted(exiles - before))
    return col


_SIZE_4_AT_0 = tuple((0, (0, x)) for x in (1, 2, 3))


def test_step_case_one_declares_witness():
    # a size-4 class present from stage 0 is on record, so it latches nothing
    _step_column_one(CeerScript(_SIZE_4_AT_0), 2, 1, (1, 2, 3, 4), {5})


def test_step_case_two_retracts_witness():
    # stage 2 declares witness 4; at stage 3 the size-4 class grows to 5
    member = CeerScript((*_SIZE_4_AT_0, (3, (0, 4))))
    _step_column_one(member, 2, 1, (1, 2, 3, 4), {5})
    _step_column_one(member, 4, 2, (1, 2, 3), {4, 5})


def test_step_case_three_without_replaceable_witness():
    # a size-4 class formed at stage 1 is new to the history: it latches,
    # and column 1's next focus, stage 2, reads the latch and takes case 3
    member = CeerScript(tuple((1, (0, x)) for x in (1, 2, 3)))
    fam = CeerFamily((EMPTY, member))
    columns, trace = run_coceer(fam, 2, 1)   # column 1 not yet focused, and it holds no latch
    assert [r.e for r in trace.records] == [0] and columns[1] == ColumnState(k=4, next_free=4)
    _step_column_one(member, 2, 3, (1, 2, 3, 4), set())


def test_step_case_three_swaps_witness():
    # stage 2 declares witness 4; at stage 3 that class grows to 5 and a new
    # size-4 class forms, so stage 4 latches and swaps 4 for 6
    member = CeerScript((*_SIZE_4_AT_0, *((3, (10, x)) for x in (11, 12, 13)),
                         (3, (0, 4))))
    _step_column_one(member, 2, 1, (1, 2, 3, 4), {5})
    _step_column_one(member, 4, 3, (1, 2, 3, 6), {4, 5})


def test_step_case_four_pads():
    # baseline, no size-4 class, no latch
    assert _step_column_one(EMPTY, 2, 4, (1, 2, 3), {4}).tail == 4


def test_run_trace_length_and_budget():
    fam = CeerFamily((CeerScript(()),))
    _, trace = run_coceer(fam, 1, 1)
    assert len(trace.records) == 1
    with pytest.raises(InputError):
        run_coceer(fam, 1, 0)
    with pytest.raises(InputError):
        run_coceer(fam, 2, 5)


def test_run_skips_columns_beyond_family_width():
    fam = CeerFamily((CeerScript(()),))
    columns, trace = run_coceer(fam, 1, 10)
    # column 0 takes case 4 at stage 1, after its script's last change, and settles
    assert [(r.stage, r.case) for r in trace.records] == [(1, 4)] and trace.tails == (4,)
    records = expand_tails(trace).records
    assert [r.stage for r in records] == [s for s in range(1, 11) if cantor_unpair(s)[0] < 1]
    assert all(r.e == 0 for r in records) and trace.stages == 10 and len(columns) == 1


def _cut(trace, stage):
    """The records and the tails (e, w, case) of ``trace`` by ``stage``."""
    return (tuple(r for r in trace.records if r.stage <= stage),
            tuple(t for t in tail_triples(trace) if t[1] * (t[1] + 1) // 2 + t[0] <= stage))


def test_shorter_run_is_prefix_of_longer_run():
    """A run to b has the records and the tails with stage <= b of a run to
    B > b, and its tails write out as the longer run's records to b."""
    rng = random.Random(13)
    events = tuple(
        sorted((rng.randint(1, 20), (rng.randrange(8), rng.randrange(8))) for _ in range(10))
    )
    fam = CeerFamily((CeerScript(events), ChurnGenerator(4, 2), EMPTY))
    suite, _ = generate_diagonalization_suite(7)
    for fam, E, stops in ((fam, 3, (1, 2, 5, 6, 17, 18, 40, 59)),   # focused and unfocused
                          (suite, 26, (1, 30, 351, 352, 1000, 2999))):
        _, full = run_coceer(fam, E, stops[-1] + 1)
        expanded = expand_tails(full).records
        for stage in stops:
            _, trace = run_coceer(fam, E, stage)
            assert (trace.records, tail_triples(trace)) == _cut(full, stage)
            assert expand_tails(trace).records == tuple(r for r in expanded if r.stage <= stage)
            assert trace.stages == stage


def test_exiles_accumulate_and_stay_disjoint_from_witnesses():
    fam = CeerFamily((CeerScript(((2, (0, 1)),)), ChurnGenerator(4, 2)))
    columns, trace = run_coceer(fam, 2, 120)
    seen: set[tuple[int, int]] = set()
    for record in expand_tails(trace).records:
        for pair in record.exiled:
            assert pair not in seen  # an element is exiled at most once
            seen.add(pair)
    for e, col in enumerate(columns):
        # the records list every exile of the column
        assert {(e, x) for x in column_exiles(col)} == {(a, x) for a, x in seen if a == e}
        assert not set(column_witnesses(col)) & column_exiles(col)


def test_snapshot_is_column_partition_initially():
    snap = coceer_snapshot(INITIAL, 12)
    for z1 in range(12):
        for z2 in range(12):
            same_column = cantor_unpair(z1)[0] == cantor_unpair(z2)[0]
            assert (snap.find(z1) == snap.find(z2)) == same_column


def test_snapshot_stays_equivalence_and_shrinks():
    fam = CeerFamily(
        (CeerScript(((1, (0, 1)), (3, (1, 2)))), ChurnGenerator(4, 2), CeerScript(()))
    )
    previous = bf_relation_of_partition(coceer_snapshot(INITIAL, 12).classes())
    assert bf_is_equivalence(12, previous)
    for stage in range(1, 381):  # the first 80 focused stages
        columns, _ = run_coceer(fam, 3, stage)
        current = bf_relation_of_partition(coceer_snapshot(columns, 12).classes())
        assert bf_is_equivalence(12, current)
        assert bf_subset(current, previous)
        previous = current


def test_verify_script_with_target_class():
    # column 1 (spaced) targets size 4; give its script a size-4 limit class
    events = tuple((s, (10, 10 + i)) for i, s in enumerate(range(1, 4), start=1))
    fam = CeerFamily((CeerScript(()), CeerScript(events)))
    columns, _ = run_coceer(fam, 2, 200)
    report = verify_requirement(columns, fam, 1)
    assert report.k == 4
    assert report.r_e_has_size_k
    assert report.witness_class_size == 5
    assert report.satisfied and report.certified


def test_verify_script_without_target_class():
    fam = CeerFamily((CeerScript(()), CeerScript(((1, (0, 1)),))))
    columns, _ = run_coceer(fam, 2, 200)
    report = verify_requirement(columns, fam, 1)
    assert not report.r_e_has_size_k
    assert report.witness_class_size == 4
    assert report.satisfied and report.certified


def test_verify_churn_settles_on_initial_witnesses():
    fam = CeerFamily((CeerScript(()), ChurnGenerator(4, 2)))
    columns, trace = run_coceer(fam, 2, 400)
    report = verify_requirement(columns, fam, 1)
    assert report.kind == "churn"
    assert (report.extra, report_y_limit(report)) == (None, (1, 2, 3))
    assert report.witness_class_size == 4
    assert report.satisfied and report.certified
    # every witness the churn ever forced in was forced out again
    col = columns[1]
    extras = set().union(*(r.witnesses for r in expand_tails(trace).records if r.e == 1)) \
        - {1, 2, 3}
    assert extras  # the adversary did provoke the construction
    assert extras - set(column_witnesses(col)) <= column_exiles(col)


@pytest.mark.parametrize("target", [2**63 - 1, 2**63, 10**30])
def test_churn_target_past_a_machine_word(target):
    """A churn's classes are read by size from its rounds, never as ranges,
    so a target past ``sys.maxsize`` runs like any other: neither column
    ever has a class of its size, and both settle on case 4 at once."""
    fam = CeerFamily((ChurnGenerator(target, 1),) * 2)
    columns, trace = run_coceer(fam, 2, 400)
    assert trace.cases == ((4,), (4,)) and trace.tails == (4, 4)
    for e in range(2):
        report = verify_requirement(columns, fam, e)
        assert report.satisfied and report.certified


def test_spaced_witness_sizes_disjoint_across_columns():
    columns, _ = run_coceer(CeerFamily((EMPTY,) * 30), 30, 1)
    taken: set[int] = set()
    for col in columns:
        sizes = {col.k, col.k + 1}
        assert 1 not in sizes  # exile singletons can never be mistaken for a witness class
        assert not sizes & taken
        taken |= sizes


def test_verify_uncertified_on_tiny_budget():
    fam = CeerFamily((CeerScript(()), ChurnGenerator(4, 2)))
    columns, _ = run_coceer(fam, 2, 3)
    report = verify_requirement(columns, fam, 1)
    assert not report.certified


def test_trace_json_round_trip():
    fam = CeerFamily((CeerScript(((1, (0, 1)),)), ChurnGenerator(4, 2)))
    _, trace = run_coceer(fam, 2, 30)
    obj = json.loads(json.dumps(trace_to_json(trace)))
    # column 0 settles at its focus on diagonal 2 (stage 3), column 1 on diagonal 3 (stage 7)
    assert obj == {"format": 5, "stages": 30, "cases": [[3, 4], [3, 2, 3]], "tails": [4, 3]}
    assert (trace.cases, trace.tails) == (((3, 4), (3, 2, 3)), (4, 3))
    assert trace_to_json(trace) == {"format": 5, "stages": 30, "cases": trace.cases,
                                    "tails": trace.tails}
    assert trace_from_json(obj) == trace == trace_from_json(trace_to_json(trace))
    _, short = run_coceer(fam, 2, 2)   # neither column has settled by stage 2
    assert trace_to_json(short) == {"format": 5, "stages": 2, "cases": ((3,), (3,)),
                                    "tails": (None, None)}
    assert trace_from_json(trace_to_json(short)) == short
    for bad in ({"format": 4}, {"format": 3}, {"format": 2}, {"format": 1}, {"format": True},
                {"format": 5.0}, {"stages": -1}, {"stages": False}, {"stages": "30"}):
        with pytest.raises(InputError):
            trace_from_json({**obj, **bad})

    def cased(*cases, tails=(4, 3)):
        return {**obj, "cases": [list(c) for c in cases], "tails": list(tails)}

    # each case is the one _dispatch takes from the column its earlier cases
    # leave: stage 1 latched column 0 (case 3) and recruited the extra 2, and
    # stage 4 dropped column 1's extra 4 (case 2)
    replay_breaks = [
        cased([2, 4], [3, 2, 3]),   # case 2 on a column without an extra
        cased([3, 1], [3, 2, 3]),   # case 1 on a column with the extra 2
        cased([3, 4], [3, 1, 3]),   # case 1 on a column with the extra 4
        cased([3, 4], [3, 2, 2]),   # case 2 after case 2 dropped the extra
        *(cased([3, bad], [3, 2, 3]) for bad in (0, 5, -1, "4", 4.0, True, None, [4])),
    ]
    for broken in replay_breaks:
        with pytest.raises(InputError):
            trace_from_json(broken)
    # the cases and tails: one of each per column, and at least one column; a
    # case's stage within 'stages'; an untailed column lists every focused
    # stage up to 'stages'; a tail is null, 3 or 4 and follows a case
    shape_breaks = [
        {**obj, "stages": 6},                       # column 1's stage 7 > stages
        cased([3, 4], [3, 2, 3, 3, 3, 3, 3, 3]),    # its eighth focus, stage 37 > stages
        cased([3, 4], [3, 2, 3], tails=(None, 3)),  # column 0 lacks stages 6 .. 28
        cased([3, 4], [3, 2, 3], tails=(4, None)),  # column 1 lacks stages 11 .. 29
        cased([], [3, 2, 3]),                       # a tail before any case
        *(cased([3, 4], [3, 2, 3], tails=(bad, 3)) for bad in (5, 2, 0, "4", 4.0, True, [4])),
        cased([3, 4], [3, 2, 3], tails=(4,)), cased([3, 4], [3, 2, 3], tails=(4, 3, None)),
        cased([3, 4], tails=(4, 3)), cased(tails=()),
        {**obj, "cases": None}, {**obj, "cases": "zz"}, {**obj, "cases": [[3, 4], 7]},
        {**obj, "tails": None}, {**obj, "tails": {"0": 4, "1": 3}},
        {k: v for k, v in obj.items() if k != "tails"},
        {k: v for k, v in obj.items() if k != "cases"},
    ]
    for broken in shape_breaks:
        with pytest.raises(InputError):
            trace_from_json(broken)
    assert trace_from_json({**obj, "stages": 31}).stages == 31  # stage 31 focuses column 3
    # the trade of a file that keeps only cases: a case flipped to another one
    # that _dispatch takes loads as a different run (only the input can tell)
    flipped = trace_from_json(cased([3, 3], [3, 2, 3]))
    assert flipped.records[2] == StageRecord(3, 0, 3, 3, ((0, 2),)) != trace.records[2]

"""Liminf-realizing construction: stage traces, histories, certified counts.

A library run keeps histories only up to its settle stage, so the
properties of whole histories are checked on :func:`stepped_run_pi01`,
the library's stepper run at every stage."""

import json
import random

import pytest

from effstruct.core import UPSeq, table_from_json, table_to_json
from effstruct.errors import ConstructionBugError, HorizonError, InputError
from effstruct.generators import generate_gtable
from effstruct.pi01 import (
    GTable,
    LabelState,
    PiTrace,
    pi01_step,
    required_stages_for,
    run_pi01,
    settle_stage,
    trace_from_json,
    trace_to_json,
    verify_liminf_counts,
)

from bruteforce import bf_is_equivalence, bf_relation_of_partition, bf_subset
from reference import (
    classify_history, ever_labeled, label_at, label_stages, snapshot_at, stable_window_label,
    stepped_run_pi01, windows,
)

CONSTANT_ONE = GTable(())


def _table(*columns):
    return GTable(tuple(UPSeq(tuple(p), tuple(q)) for p, q in columns))


def test_gtable_validation():
    with pytest.raises(InputError):
        _table(([0], [1]))  # values must stay >= 1
    table = _table(([2], [1]))
    assert table.g(0, 0) == 2
    assert table.g(5, 99) == 1  # defaults beyond the declared width
    assert table.liminf(5) == 1


def test_constant_one_keeps_singletons():
    trace = stepped_run_pi01(CONSTANT_ONE, 50)
    for s in range(1, 51):
        snap = snapshot_at(trace, s)
        assert all(len(c) == 1 for c in snap.classes())
    assert all(classify_history(trace, x) == "a" for x in sorted(trace.transitions))


def test_first_stage():
    trace = stepped_run_pi01(CONSTANT_ONE, 1)
    assert label_at(trace, 0, 1) == 0
    assert len(trace.transitions) == 1
    # single steps on a raw state agree with the driver
    st = LabelState()
    pi01_step(st, CONSTANT_ONE)
    assert st.members == [[0]] and label_stages(st, 0) == [1] and st.history == [((1, 0),)]


def test_hand_simulated_drop_column():
    # column 0 holds 2 through stage 2, then settles at 1: label 0 gains a
    # fresh element at stage 2 and sheds its greatest element at stage 3;
    # the shed element is recycled as the founder of the next new label
    g = _table(([2, 2, 2], [1]))
    trace = run_pi01(g, 4)
    assert trace.transitions[0] == ((1, 0),)
    assert trace.transitions[1] == ((2, 1),)
    assert trace.transitions[2] == ((2, 0), (3, None), (4, 3))
    assert trace.transitions[3] == ((3, 2),)
    assert classify_history(trace, 2) == "b"
    # second label strictly above the first
    assert trace.transitions[2][0][1] < trace.transitions[2][2][1]


def test_unstable_at_removal_horizon():
    g = _table(([2, 2, 2], [1]))
    trace = run_pi01(g, 3)
    assert classify_history(trace, 2) == "unstable"


def test_per_stage_count_identity():
    rng = random.Random(21)
    for trial in range(20):
        K = rng.randint(0, 6)
        g = generate_gtable(300 + trial, K)
        stages = required_stages_for(g, K) + 3
        trace = stepped_run_pi01(g, stages)
        window = len(trace.transitions)
        for s in range(1, stages + 1):
            counts: dict[int, int] = {}
            for x in range(window):
                label = label_at(trace, x, s)
                if label is not None:
                    counts[label] = counts.get(label, 0) + 1
            for k in range(s - 1):
                assert counts.get(k, 0) == g.g(k, s), (trial, s, k)
            if s >= 1:  # the label opened this stage holds its founder only
                assert counts.get(s - 1, 0) == 1


def test_founder_is_class_minimum_and_never_removed():
    rng = random.Random(33)
    for trial in range(15):
        g = generate_gtable(500 + trial, rng.randint(1, 6))
        trace = stepped_run_pi01(g, 50)
        for x, hist in trace.transitions.items():
            first_label = hist[0][1]
            owners = [y for y in sorted(trace.transitions)
                      if label_at(trace, y, trace.stages) == first_label]
            if owners and min(owners) == x:
                # class minima keep their label to the horizon
                assert label_at(trace, x, trace.stages) == first_label or len(hist) == 1


def test_snapshots_shrink_and_stay_equivalences():
    g = _table(([2, 2, 2, 2], [1, 3]), ([5], [2]))
    trace = stepped_run_pi01(g, 30)
    sizes = windows(trace.transitions.values(), 30)
    for s in range(1, 30):
        w = min(12, sizes[s])
        older = bf_relation_of_partition(snapshot_at(trace, s, w).classes())
        newer = bf_relation_of_partition(snapshot_at(trace, s + 1, w).classes())
        assert bf_is_equivalence(w, older)
        assert bf_subset(newer, older)


def test_histories_classify_everywhere():
    rng = random.Random(8)
    for trial in range(25):
        g = generate_gtable(700 + trial, rng.randint(0, 8))
        trace = stepped_run_pi01(g, rng.randint(5, 60))
        for x in sorted(trace.transitions):
            assert classify_history(trace, x) in ("a", "b", "unstable")
    with pytest.raises(InputError):
        classify_history(stepped_run_pi01(CONSTANT_ONE, 2), 99)


def test_verify_liminf_examples():
    counts = verify_liminf_counts(run_pi01(CONSTANT_ONE, 40), CONSTANT_ONE, 5)
    assert [entry.label for entry in counts] == list(range(6))
    assert all(entry.match and entry.expected == 1 for entry in counts)

    g = _table(([1], [1]), ([], [1]), ([], [1, 5]), ([], [4]))
    trace = run_pi01(g, required_stages_for(g, 3) + 2)
    counts = verify_liminf_counts(trace, g, 3)
    assert all(entry.match for entry in counts)
    by_label = {entry.label: entry for entry in counts}
    assert by_label[2].expected == 1  # liminf of an oscillating column
    assert by_label[3].expected == 4
    assert by_label[3].observed == 4
    with pytest.raises(InputError):  # a negative label bound would check nothing
        verify_liminf_counts(trace, g, -1)


def test_verify_refuses_short_horizon():
    g = _table(([], [2, 7]))
    with pytest.raises(HorizonError) as err:
        verify_liminf_counts(run_pi01(g, 3), g, 0)
    assert err.value.required_stages == required_stages_for(g, 0)
    assert str(err.value.required_stages) in str(err.value)


def test_stable_labels_partition_matches_final_snapshot():
    # on certified-stable elements, sharing a class means sharing a label
    g = _table(([], [3]), ([2, 2, 2, 2], [1]), ([], [2, 4]))
    stages = required_stages_for(g, 2) + 2
    trace = stepped_run_pi01(g, stages)
    snap = snapshot_at(trace, stages)
    stable: dict[int, int] = {}
    for k in range(3):
        _, perlen = g.column_shape(k)
        for x in ever_labeled(trace, k):
            if stable_window_label(trace, x, stages - 2 * perlen, stages) == k:
                stable[x] = k
    for x in stable:
        for y in stable:
            assert (snap.find(x) == snap.find(y)) == (stable[x] == stable[y])


def test_run_validation_and_json():
    with pytest.raises(InputError):
        run_pi01(CONSTANT_ONE, 0)
    g = _table(([2], [1]), ([], [3]))
    assert table_from_json(GTable, table_to_json(g)) == g
    trace = run_pi01(g, 12)
    # the writer hands its history tuples to the encoder, so read back the file
    obj = json.loads(json.dumps(trace_to_json(trace)))
    assert trace_from_json(obj) == trace
    with pytest.raises(InputError):
        table_from_json(GTable, {"columns": "zzz"})
    with pytest.raises(InputError):
        trace_from_json({"format": 4, "stages": 1})
    for bad in ({"format": True}, {"format": 4.0}, {"format": None}, {"format": 3},
                {"format": 2}, {"format": 1}, {"stages": -3}, {"stages": True},
                {"transitions": [[[True, "z"]]]}, {"transitions": [[[True, 0]]]},
                {"transitions": [[[-1, 0]]]}, {"transitions": [[[1, "z"]]]},
                {"transitions": [[[1, 1.0]]]}, {"transitions": [[[1, -2]]]},
                {"transitions": [[[1, 0, 2]]]}, {"transitions": ["zz"]},
                {"transitions": [7]}, {"transitions": "zz"}, {"transitions": None},
                # a history stage within [1, stages]: no T above S
                {"stages": 3}, {"transitions": [[[13, 0]]]},
                # history stages strictly increasing
                {"transitions": [[[2, 0], [1, None]]]},
                {"transitions": [[[1, 0], [1, None]]]}, {"transitions": [[[0, 0]]]},
                # one to three entries
                {"transitions": [[[9, 0], [1, None], [1, None], [1, None]]]},
                {"transitions": [[[1, 0], [2, None], [3, 2], [4, None]]]},
                {"transitions": [[]]},
                # stage s opens label s - 1, so labels sit below their stage
                {"transitions": [[[1, 1]]]},
                # a label, a removal, then the label founded when recycled
                {"transitions": [[[1, None]]]}, {"transitions": [[[1, 0], [2, 1]]]},
                {"transitions": [[[1, 0], [2, None], [3, None]]]},
                # a stack grows upward: a greater member never took the label first
                {"transitions": [[[2, 0]], [[1, 0]]]},
                # T is the greatest stage, and each stage up to it opens a label
                {"transitions": obj["transitions"] + [[[12, 0]]]}):
        with pytest.raises(InputError):
            trace_from_json({**obj, **bad})
    # elements are 0, 1, 2, ... in creation order: the i-th history is element
    # i's, and none starts before the one before it
    one = json.loads(json.dumps(trace_to_json(run_pi01(GTable([UPSeq((), (1,))]), 3))))
    assert one["transitions"] == [[[1, 0]], [[2, 1]], [[3, 2]]]
    h0, h1, h2 = one["transitions"]
    for transitions in (one["transitions"][::-1], [h1, h0, h2]):
        with pytest.raises(InputError):
            trace_from_json({**one, "transitions": transitions})
    # a removed and recycled element loads with its whole history
    drop = run_pi01(_table(([2, 2, 2], [1])), 4)
    assert trace_from_json(json.loads(json.dumps(trace_to_json(drop)))).transitions[2] == \
        ((2, 0), (3, None), (4, 3))
    for version in (True, 1.0):
        with pytest.raises(InputError):
            table_from_json(GTable, {**table_to_json(g), "format": version})


def test_step_guards_raise_on_corrupted_states():
    """Each of pi01_step's three guards raises on a state or table that
    breaks what it guards."""
    g = _table(([2, 2, 2], [1]))   # element 2 is parked at stage 3
    st = LabelState()
    for _ in range(3):
        pi01_step(st, g)
    assert st.removed_pending == [2] and st.history[2] == ((2, 0), (3, None))
    # the parked element's history says it left label 3, not below the new label 3
    st.history[2] = ((2, 3), (3, None))
    with pytest.raises(ConstructionBugError, match="left label 3 to found label 3"):
        pi01_step(st, g)

    class ZeroTable:   # a goal of 0 would strip a label's founder
        width = 1

        def g(self, k, s):
            return 0

    st = pi01_step(LabelState(), ZeroTable())
    with pytest.raises(ConstructionBugError, match="strip to 0 removes its founder"):
        pi01_step(st, ZeroTable())

    class LeakyStack(list):   # a stack that loses its top-ups
        def extend(self, items):
            pass

    st = pi01_step(LabelState(), g)
    st.members[0] = LeakyStack(st.members[0])
    with pytest.raises(ConstructionBugError, match="count 1 != g = 2"):
        pi01_step(st, g)


@pytest.mark.parametrize("stages", [1, 7, 10**6])
def test_width_zero_trace_writes_and_loads(stages):
    """A table of width 0 settles at stage 0, so a run steps no stage: its
    trace has no history, and is still written and read back."""
    assert settle_stage(CONSTANT_ONE) == 0
    trace = run_pi01(CONSTANT_ONE, stages)
    assert trace == PiTrace(stages, {})
    obj = json.loads(json.dumps(trace_to_json(trace)))
    assert obj == {"format": 4, "stages": stages, "transitions": []}
    assert trace_from_json(obj) == trace

"""Liminf-realizing construction: stage traces, histories, certified counts."""

import random

import pytest

from effstruct.core import UPSeq
from effstruct.errors import HorizonError, InputError
from effstruct.generators import generate_gtable
from effstruct.pi01 import (
    GTable,
    LabelState,
    classify_history,
    gtable_from_json,
    gtable_to_json,
    pi01_step,
    required_stages_for,
    run_pi01,
    trace_from_json,
    trace_to_json,
    verify_liminf_counts,
)

from bruteforce import bf_is_equivalence, bf_relation_of_partition, bf_subset
from reference import ever_labeled, snapshot_at

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
    trace = run_pi01(CONSTANT_ONE, 50)
    for s in range(1, 51):
        snap = snapshot_at(trace, s)
        assert all(len(c) == 1 for c in snap.classes())
    assert all(classify_history(trace, x) == "a" for x in trace.elements())


def test_first_stage():
    trace = run_pi01(CONSTANT_ONE, 1)
    assert trace.label_at(0, 1) == 0
    assert trace.windows[1] == 1
    # single steps on a raw state agree with the driver
    st = LabelState()
    pi01_step(st, CONSTANT_ONE)
    assert st.ell == {0: 0} and st.next_fresh == 1


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
        trace = run_pi01(g, stages)
        window = trace.windows[stages]
        for s in range(1, stages + 1):
            counts: dict[int, int] = {}
            for x in range(window):
                label = trace.label_at(x, s)
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
        trace = run_pi01(g, 50)
        for x, hist in trace.transitions.items():
            first_label = hist[0][1]
            owners = [y for y in trace.elements() if trace.label_at(y, trace.stages) == first_label]
            if owners and min(owners) == x:
                # class minima keep their label to the horizon
                assert trace.label_at(x, trace.stages) == first_label or len(hist) == 1


def test_snapshots_shrink_and_stay_equivalences():
    g = _table(([2, 2, 2, 2], [1, 3]), ([5], [2]))
    trace = run_pi01(g, 30)
    for s in range(1, 30):
        w = min(12, trace.windows[s])
        older = bf_relation_of_partition(snapshot_at(trace, s, w).classes())
        newer = bf_relation_of_partition(snapshot_at(trace, s + 1, w).classes())
        assert bf_is_equivalence(w, older)
        assert bf_subset(newer, older)


def test_histories_classify_everywhere():
    rng = random.Random(8)
    for trial in range(25):
        g = generate_gtable(700 + trial, rng.randint(0, 8))
        trace = run_pi01(g, rng.randint(5, 60))
        for x in trace.elements():
            assert classify_history(trace, x) in ("a", "b", "unstable")
    with pytest.raises(InputError):
        classify_history(run_pi01(CONSTANT_ONE, 2), 99)


def test_verify_liminf_examples():
    report = verify_liminf_counts(run_pi01(CONSTANT_ONE, 40), CONSTANT_ONE, 5)
    assert report.all_match
    assert all(entry.expected == 1 for entry in report.entries)

    g = _table(([1], [1]), ([], [1]), ([], [1, 5]), ([], [4]))
    trace = run_pi01(g, required_stages_for(g, 3) + 2)
    report = verify_liminf_counts(trace, g, 3)
    assert report.all_match
    by_label = {entry.label: entry for entry in report.entries}
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
    trace = run_pi01(g, stages)
    snap = snapshot_at(trace, stages)
    stable: dict[int, int] = {}
    for k in range(3):
        _, perlen = g.column_shape(k)
        for x in ever_labeled(trace, k):
            if trace.stable_window_label(x, stages - 2 * perlen, stages) == k:
                stable[x] = k
    for x in stable:
        for y in stable:
            assert (snap.find(x) == snap.find(y)) == (stable[x] == stable[y])


def test_run_validation_and_json():
    with pytest.raises(InputError):
        run_pi01(CONSTANT_ONE, 0)
    g = _table(([2], [1]), ([], [3]))
    assert gtable_from_json(gtable_to_json(g)) == g
    trace = run_pi01(g, 12)
    assert trace_from_json(trace_to_json(trace)) == trace
    with pytest.raises(InputError):
        gtable_from_json({"columns": "zzz"})
    with pytest.raises(InputError):
        trace_from_json({"format": 1, "stages": 1})
    obj = trace_to_json(trace)
    for bad in ({"format": True}, {"format": 1.0}, {"format": None},
                {"stages": -3}, {"stages": True}, {"windows": ["x"]}, {"windows": [-1]},
                {"transitions": [[-1, [[True, "z"]]]]}, {"transitions": [[-1, [[1, 0]]]]},
                {"transitions": [["0", [[1, 0]]]]}, {"transitions": [[0, [[True, 0]]]]},
                {"transitions": [[0, [[-1, 0]]]]}, {"transitions": [[0, [[1, "z"]]]]},
                {"transitions": [[0, [[1, 1.0]]]]}, {"transitions": [[0, [[1, -2]]]]},
                {"transitions": [[0, [[1, 0, 2]]]]}, {"transitions": [[0, "zz"]]},
                {"transitions": "zz"}):
        with pytest.raises(InputError):
            trace_from_json({**obj, **bad})
    removal = {**obj, "transitions": [[0, [[1, 0], [2, None]]]]}
    assert trace_from_json(removal).transitions == {0: ((1, 0), (2, None))}
    for version in (True, 1.0):
        with pytest.raises(InputError):
            gtable_from_json({**gtable_to_json(g), "format": version})

"""Threshold preorder: staged assignment, materialization, limit fingerprint."""

import json
import random

import pytest

from effstruct.core import Delta02SetApprox, UPSeq
from effstruct.errors import ConstructionBugError, HorizonError, InputError
from effstruct.generators import generate_b
from effstruct.preorder import (
    ELEM_C,
    ELEM_D,
    PreorderSnapshot,
    VTable,
    elem_a,
    elem_b,
    fingerprint,
    materialize,
    preorder_step,
    required_stages_for,
    run_preorder,
    snapshot_from_json,
    snapshot_to_json,
    verify_claim,
)

from bruteforce import bf_is_preorder, bf_preorder_closure, bf_subset
from reference import canonical_snapshot, snapshot_thresholds


def _approx(*limits_with_prefixes):
    """Columns 1..n from (prefix, limit) pairs; column 0 is constant 0."""
    cols = [UPSeq((), (0,))]
    for prefix, limit in limits_with_prefixes:
        cols.append(UPSeq(tuple(prefix), (limit,)))
    return Delta02SetApprox(tuple(cols))


EMPTY_SET = _approx(([], 0), ([], 0), ([], 0))


def _le(snap, x, y):
    return (x, y) in snap.leq


def _incomparable(snap, x, y):
    return not _le(snap, x, y) and not _le(snap, y, x)


def _incomparable_b_count(snap, i):
    """How many materialized b's are incomparable with a_i, read off the pairs."""
    return sum(_incomparable(snap, elem_a(i), elem_b(j)) for j in range(snap.nb))


def test_first_stage_assigns_zero():
    t = run_preorder(EMPTY_SET, 1)
    assert t.v == {0: 0}


def test_member_gets_unique_threshold():
    b = _approx(([], 0), ([], 1))  # B = {2}
    t = run_preorder(b, 4)
    assert t.holders_of(2) == [2]  # assigned at the first even stage seeing x=2
    t = run_preorder(b, 40)
    assert len(t.holders_of(2)) == 1
    assert not any(i in t.holders_of(2) for _, i, old, _ in t.events if old is not None)


def test_flip_assigns_then_resets():
    # x = 3 looks in for four stages, then settles out
    b = _approx(([], 0), ([], 0), ([1, 1, 1, 1], 0))
    t = run_preorder(b, 4)
    assert t.holders_of(3) == [2]
    t = run_preorder(b, 6)
    assert t.holders_of(3) == []
    assert t.v[2] == 0 and [old for _, i, old, _ in t.events if i == 2] == [None, 3]


def test_reset_guard_raises_on_corrupted_table():
    """A threshold is reset only from a positive value, so a second change
    would reset a 0; a table whose ``holders`` file a zero under x = 1 makes
    the next even stage, which reads g(1, .) = 0, try it."""
    b = _approx(([], 0), ([], 0), ([1, 1, 1, 1], 0))
    for stages, i in ((3, 0), (7, 2)):   # a fresh zero; index 2, reset at stage 6
        t = run_preorder(b, stages)
        assert t.v[i] == 0 and stages % 2 == 1
        t.holders[1] = {i}
        with pytest.raises(ConstructionBugError, match=f"v\\({i}\\) reset while already 0"):
            preorder_step(t, b)


def test_thresholds_change_at_most_once_and_only_to_zero():
    for seed in range(20):
        b = generate_b(900 + seed, 3 + seed % 8)
        t = run_preorder(b, 80)
        for stage, i, old, new in t.events:
            assert new == 0 or old is None  # changes always land on 0
        resets = [i for _, i, old, _ in t.events if old is not None]
        assert len(resets) == len(set(resets))   # at most one reset per index


def test_materialize_skeleton():
    snap = PreorderSnapshot(1, 2, (), 0)   # a_0 without a threshold: threshold nb = 2
    a0, b0, b1 = elem_a(0), elem_b(0), elem_b(1)
    assert _le(snap, ELEM_C, a0) and not _le(snap, a0, ELEM_C)
    assert _incomparable(snap, a0, b0) and _incomparable(snap, a0, b1)
    assert _incomparable(snap, a0, ELEM_D)
    assert _incomparable(snap, ELEM_C, ELEM_D)
    assert _incomparable(snap, b0, ELEM_C)
    assert _le(snap, b1, b0) and not _le(snap, b0, b1)
    assert _le(snap, b0, ELEM_D) and _le(snap, b1, ELEM_D)


def test_materialize_threshold_facts():
    t = VTable(v={0: 2}, stage=4)
    snap = materialize(t)
    a0 = elem_a(0)
    assert _le(snap, elem_b(2), a0) and _le(snap, elem_b(3), a0)
    assert _incomparable(snap, a0, elem_b(0)) and _incomparable(snap, a0, elem_b(1))
    assert _incomparable_b_count(snap, 0) == snapshot_thresholds(snap)[0] == 2
    assert (snap.thresholds, snap.zeros) == ((2,), 0)
    zero = materialize(VTable(v={0: 0}, stage=4))
    assert all(_le(zero, elem_b(j), a0) for j in range(4))
    assert _incomparable_b_count(zero, 0) == snapshot_thresholds(zero)[0] == 0
    assert (zero.thresholds, zero.zeros) == ((), 1)
    fresh = materialize(VTable(stage=4))
    assert _incomparable_b_count(fresh, 0) == snapshot_thresholds(fresh)[0] == 4
    assert (fresh.thresholds, fresh.zeros) == ((), 0)


def test_materialize_matches_bruteforce_closure():
    rng = random.Random(17)
    for _ in range(220):
        na = nb = rng.randint(0, 5)
        t = VTable(stage=na)
        for i in range(na):
            if rng.random() < 0.7:
                t.v[i] = rng.randint(0, nb + 1)
        snap = materialize(t)
        elements = snap.elements()
        generators = []
        generators += [(ELEM_C, elem_a(i)) for i in range(na)]
        generators += [(elem_b(j + 1), elem_b(j)) for j in range(nb - 1)]
        if nb:
            generators.append((elem_b(0), ELEM_D))
        for i in range(na):
            if i in t.v and t.v[i] < nb:
                generators.append((elem_b(t.v[i]), elem_a(i)))
        closure = bf_preorder_closure(elements, generators)
        assert closure == snap.leq
        assert bf_is_preorder(elements, snap.leq)
        # the strict part has no two-cycles
        for x in elements:
            for y in elements:
                if x != y:
                    assert not (_le(snap, x, y) and _le(snap, y, x))


def test_snapshots_only_gain_facts():
    b = _approx(([1], 0), ([], 1), ([0, 1, 1, 0], 0), ([], 1))
    t = VTable()
    previous = materialize(t).leq
    for _ in range(40):
        preorder_step(t, b)
        current = materialize(t).leq
        assert bf_subset(previous, current)
        previous = current


def test_fingerprint():
    assert fingerprint(VTable(v={0: 0, 1: 0})) == set()
    assert fingerprint(VTable(v={0: 0, 1: 2})) == {2}


def test_verify_claim_empty_set():
    t = run_preorder(EMPTY_SET, required_stages_for(EMPTY_SET))
    report = verify_claim(t, EMPTY_SET)
    assert report.all_ok
    assert report.fingerprint_values == ()
    assert all(v == 0 for v in t.v.values())


def test_verify_claim_two_members():
    b = _approx(([], 0), ([], 1), ([], 0), ([], 0), ([], 1))  # B = {2, 5}
    t = run_preorder(b, required_stages_for(b) + 1)
    report = verify_claim(t, b)
    assert report.all_ok
    assert report.fingerprint_values == (2, 5)
    # every x below the width is checked, and no other
    assert [entry.x for entry in report.entries] == [1, 2, 3, 4, 5]
    for entry in report.entries:
        assert len(entry.holders) == (1 if entry.x in (2, 5) else 0)
    assert report.zero_count >= 5


def test_verify_claim_after_flip():
    b = _approx(([], 0), ([], 0), ([1, 1, 1, 1, 1], 0))  # x = 3 flips out
    t = run_preorder(b, required_stages_for(b))
    report = verify_claim(t, b)
    assert report.all_ok
    assert t.holders_of(3) == []


def test_verify_claim_horizon():
    b = _approx(([1, 1, 1, 1], 0))
    with pytest.raises(HorizonError) as err:
        verify_claim(run_preorder(b, 3), b)
    assert err.value.required_stages == required_stages_for(b)


def test_incomparable_counts_equal_thresholds_at_limit():
    b = _approx(([], 1), ([0, 1], 1), ([1, 1], 0))  # B = {1, 2}
    t = run_preorder(b, required_stages_for(b) + 3)
    assert verify_claim(t, b).all_ok
    snap = materialize(t)
    assert snap.nb > max(t.v.values())
    for i in range(len(t.v)):
        assert _incomparable_b_count(snap, i) == snapshot_thresholds(snap)[i] == t.v[i]


def test_snapshot_json_round_trip():
    t = run_preorder(_approx(([], 1)), 3)
    snap = materialize(t)
    obj = snapshot_to_json(snap)
    assert snapshot_from_json(obj) == snap
    # thresholds [0, 1, 0]: the head [0, 1], then one 0
    assert obj == {"format": 3, "na": 3, "nb": 3, "thresholds": [0, 1], "zeros": 1}
    with pytest.raises(InputError):
        snapshot_from_json({"format": 3, "na": 1})
    # the pair-list format 1 and the full-array format 2 are not read any more
    format_1 = {"format": 1, "na": 3, "nb": 3, "leq": sorted([x, y] for x, y in snap.leq)}
    format_2 = {"format": 2, "na": 3, "nb": 3, "thresholds": [0, 1, 0]}
    for bad in ({"format": True}, {"format": 3.0}, {"format": 1}, {"format": 2}, format_1,
                format_2, {"na": True}, {"nb": -1}, {"na": 2.5}, {"zeros": True},
                {"zeros": -1}, {"zeros": 1.0}, {"zeros": None},
                {"thresholds": ["0", 1]}, {"thresholds": [0, True]}, {"thresholds": [-1, 1]},
                {"thresholds": [0, 4]}, {"thresholds": "01"},
                # a head ending in 0, or in nb with no zeros after it
                {"thresholds": [1, 0], "zeros": 1}, {"thresholds": [0, 1, 0], "zeros": 0},
                {"thresholds": [0, 3], "zeros": 0}, {"thresholds": [3], "zeros": 0},
                # more thresholds and zeros than a's
                {"zeros": 2}, {"na": 2}, {"thresholds": [1, 1, 1]},
                # with nb = 0 every threshold is nb, so none is stated
                {"nb": 0, "thresholds": [], "zeros": 1}, {"nb": 0, "thresholds": [0]}):
        with pytest.raises(InputError):
            snapshot_from_json({**obj, **bad})
    assert snapshot_from_json({**obj, "thresholds": [], "zeros": 0}) == materialize(VTable(stage=3))
    assert snapshot_from_json({**obj, "thresholds": [0, 3], "zeros": 1}) == materialize(
        VTable(v={0: 0, 1: 5, 2: 0}, stage=3))


def test_snapshot_canonical_form_round_trips():
    """Drawn full threshold vectors (runs of 0 and nb at the end, nb inside
    the head, nb = 0): the canonical form spells the vector back out, it is
    what ``materialize`` gives for a table holding the vector, and its file
    loads as itself.  So does a run stopped below the width, where the a's
    the run assigned past index n - 1 are left out."""
    rng = random.Random(37)
    for _ in range(600):
        na, nb = rng.randint(0, 8), rng.randint(0, 4)
        full = [rng.choice((0, nb, rng.randint(0, nb))) for _ in range(na)]
        snap = canonical_snapshot(na, nb, full)
        assert snapshot_thresholds(snap) == full
        assert snapshot_from_json(json.loads(json.dumps(snapshot_to_json(snap)))) == snap
        if na == nb:
            assert materialize(VTable(v=dict(enumerate(full)), stage=na)) == snap
    cut = 0
    for seed in range(20):
        b = generate_b(seed, 10)
        for n in range(1, b.width):
            t = run_preorder(b, n)
            snap = materialize(t)
            assert snapshot_thresholds(snap) == [t.v.get(i, n) for i in range(n)]
            assert snapshot_from_json(json.loads(json.dumps(snapshot_to_json(snap)))) == snap
            cut += len(t.v) > n
    assert cut

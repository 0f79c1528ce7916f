"""Threshold preorder: staged assignment, materialization, limit fingerprint."""

import random

import pytest

from effstruct.core import Delta02SetApprox, UPSeq
from effstruct.errors import HorizonError, InputError
from effstruct.generators import generate_b
from effstruct.preorder import (
    ELEM_C,
    ELEM_D,
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
    assert all(t.change_count[i] == 0 for i in t.holders_of(2))


def test_flip_assigns_then_resets():
    # x = 3 looks in for four stages, then settles out
    b = _approx(([], 0), ([], 0), ([1, 1, 1, 1], 0))
    t = run_preorder(b, 4)
    assert t.holders_of(3) == [2]
    t = run_preorder(b, 6)
    assert t.holders_of(3) == []
    assert t.v[2] == 0 and t.change_count[2] == 1


def test_thresholds_change_at_most_once_and_only_to_zero():
    for seed in range(20):
        b = generate_b(900 + seed, 3 + seed % 8)
        t = run_preorder(b, 80)
        for stage, i, old, new in t.events:
            assert new == 0 or old is None  # changes always land on 0
        assert all(c <= 1 for c in t.change_count.values())


def test_materialize_skeleton():
    snap = materialize(VTable(), 1, 2)
    a0, b0, b1 = elem_a(0), elem_b(0), elem_b(1)
    assert _le(snap, ELEM_C, a0) and not _le(snap, a0, ELEM_C)
    assert _incomparable(snap, a0, b0) and _incomparable(snap, a0, b1)
    assert _incomparable(snap, a0, ELEM_D)
    assert _incomparable(snap, ELEM_C, ELEM_D)
    assert _incomparable(snap, b0, ELEM_C)
    assert _le(snap, b1, b0) and not _le(snap, b0, b1)
    assert _le(snap, b0, ELEM_D) and _le(snap, b1, ELEM_D)


def test_materialize_threshold_facts():
    t = VTable(v={0: 2}, defined_at={0: 1}, change_count={0: 0}, next_fresh=1, stage=2)
    snap = materialize(t, 1, 4)
    a0 = elem_a(0)
    assert _le(snap, elem_b(2), a0) and _le(snap, elem_b(3), a0)
    assert _incomparable(snap, a0, elem_b(0)) and _incomparable(snap, a0, elem_b(1))
    assert _incomparable_b_count(snap, 0) == snap.thresholds[0] == 2
    zero = materialize(VTable(v={0: 0}, defined_at={0: 1}, change_count={0: 0}, next_fresh=1, stage=1), 1, 4)
    assert all(_le(zero, elem_b(j), a0) for j in range(4))
    assert _incomparable_b_count(zero, 0) == zero.thresholds[0] == 0
    fresh = materialize(VTable(), 1, 4)
    assert _incomparable_b_count(fresh, 0) == fresh.thresholds[0] == 4


def test_materialize_matches_bruteforce_closure():
    rng = random.Random(17)
    for _ in range(220):
        na, nb = rng.randint(0, 5), rng.randint(0, 5)
        t = VTable()
        for i in range(na):
            if rng.random() < 0.7:
                t.v[i] = rng.randint(0, nb + 1)
                t.defined_at[i] = 1
                t.change_count[i] = 0
        t.next_fresh = na
        t.stage = 2
        snap = materialize(t, na, nb)
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
    previous = materialize(t, 8, 8).leq
    for _ in range(40):
        preorder_step(t, b)
        current = materialize(t, 8, 8).leq
        assert bf_subset(previous, current)
        previous = current


def test_fingerprint():
    assert fingerprint(VTable(v={0: 0, 1: 0})) == set()
    assert fingerprint(VTable(v={0: 0, 1: 2})) == {2}


def test_verify_claim_empty_set():
    t = run_preorder(EMPTY_SET, required_stages_for(EMPTY_SET, 3))
    report = verify_claim(t, EMPTY_SET, 3)
    assert report.all_ok
    assert report.fingerprint_values == ()
    assert all(v == 0 for v in t.v.values())


def test_verify_claim_two_members():
    b = _approx(([], 0), ([], 1), ([], 0), ([], 0), ([], 1))  # B = {2, 5}
    t = run_preorder(b, required_stages_for(b, 8) + 1)
    report = verify_claim(t, b, 8)
    assert report.all_ok
    assert report.fingerprint_values == (2, 5)
    for entry in report.entries:
        assert len(entry.holders) == (1 if entry.x in (2, 5) else 0)
    assert report.zero_count >= 8


def test_verify_claim_after_flip():
    b = _approx(([], 0), ([], 0), ([1, 1, 1, 1, 1], 0))  # x = 3 flips out
    t = run_preorder(b, required_stages_for(b, 3))
    report = verify_claim(t, b, 3)
    assert report.all_ok
    assert t.holders_of(3) == []


def test_verify_claim_horizon():
    b = _approx(([1, 1, 1, 1], 0))
    with pytest.raises(HorizonError) as err:
        verify_claim(run_preorder(b, 3), b, 1)
    assert err.value.required_stages == required_stages_for(b, 1)


def test_incomparable_counts_equal_thresholds_at_limit():
    b = _approx(([], 1), ([0, 1], 1), ([1, 1], 0))  # B = {1, 2}
    t = run_preorder(b, required_stages_for(b, 3) + 3)
    assert verify_claim(t, b, 3).all_ok
    nb = max(t.v.values()) + 2
    snap = materialize(t, t.next_fresh, nb)
    for i in range(t.next_fresh):
        assert _incomparable_b_count(snap, i) == snap.thresholds[i] == t.v[i]


def test_snapshot_json_round_trip():
    t = run_preorder(_approx(([], 1)), 6)
    snap = materialize(t, 3, 3)
    obj = snapshot_to_json(snap)
    assert snapshot_from_json(obj) == snap
    assert obj == {"format": 2, "na": 3, "nb": 3, "thresholds": [0, 1, 0]}
    with pytest.raises(InputError):
        snapshot_from_json({"format": 2, "na": 1})
    # the pair-list format 1 is not read any more
    format_1 = {"format": 1, "na": 3, "nb": 3, "leq": sorted([x, y] for x, y in snap.leq)}
    for bad in ({"format": True}, {"format": 2.0}, {"format": 1}, format_1,
                {"na": True}, {"nb": -1}, {"na": 2.5},
                {"thresholds": ["0", 1, 0]}, {"thresholds": [0, True, 0]},
                {"thresholds": [0, -1, 0]}, {"thresholds": [0, 4, 0]},
                {"thresholds": [0, 1]}, {"thresholds": [0, 1, 0, 0]}, {"thresholds": "010"}):
        with pytest.raises(InputError):
            snapshot_from_json({**obj, **bad})
    assert snapshot_from_json({**obj, "thresholds": [3, 3, 3]}) == materialize(VTable(), 3, 3)

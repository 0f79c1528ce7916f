"""Value semantics of the result and state records (``core.Record``)."""

import copy

import pytest

import effstruct.cli  # noqa: F401  (loads every module)
from effstruct.ceersim import CeerFamily, CeerScript, ChurnGenerator
from effstruct.coceer import (
    CoceerTrace, ColumnState, RequirementReport, StageRecord,
)
from effstruct.core import Delta02SetApprox, Record, UPSeq, UPTable
from effstruct.pi01 import GTable, LabelCount, LabelState, PiTrace
from effstruct.preorder import ClaimEntry, ClaimReport, PreorderSnapshot, VTable

MUTABLE = (ColumnState, LabelState, VTable)
_STEP = StageRecord(3, 0, 4, None, ((0, 2),))
_ENTRY = ClaimEntry(1, True, (0,))

# each record next to its repr text: the former dataclass's, but for the
# fields that ColumnState (flag, last_case4_stage, case3_count), StageRecord
# (witnesses, flag), VTable (next_fresh), LabelState (since, next_fresh),
# CoceerTrace (columns, records) and PiTrace (since) no longer have,
# StageRecord's extra, CoceerTrace's cases and tails, ColumnState's tail, the
# count of VTable's closed-form tail, LabelState's history list,
# RequirementReport's extra (in place of y_limit) and PreorderSnapshot's zeros
RECORDS = [
    (UPSeq((1,), (2, 3)), "UPSeq(prefix=(1,), period=(2, 3))"),
    (Delta02SetApprox([UPSeq((), (0,))]),
     "Delta02SetApprox(columns=(UPSeq(prefix=(), period=(0,)),))"),
    (CeerScript([(1, (0, 2))]), "CeerScript(events=((1, (0, 2)),))"),
    (ChurnGenerator(4, 2), "ChurnGenerator(target_size=4, block_spacing=2)"),
    (CeerFamily([ChurnGenerator(4, 2)]),
     "CeerFamily(members=(ChurnGenerator(target_size=4, block_spacing=2),))"),
    (ColumnState(k=4, next_free=4),
     "ColumnState(k=4, next_free=4, extra=None, tail=None)"),
    (_STEP, "StageRecord(stage=3, e=0, case=4, extra=None, exiled=((0, 2),))"),
    (CoceerTrace(3, ((4,),), (4,)), "CoceerTrace(stages=3, cases=((4,),), tails=(4,))"),
    (RequirementReport(0, 2, "script", 2, False, True, True, None),
     "RequirementReport(e=0, k=2, kind='script', witness_class_size=2, r_e_has_size_k=False, "
     "satisfied=True, certified=True, extra=None)"),
    (GTable([UPSeq((), (1,))]), "GTable(columns=(UPSeq(prefix=(), period=(1,)),))"),
    (LabelState(), "LabelState(members=[], removed_pending=[], stage=0, history=[])"),
    (PiTrace(1, {0: ((1, 0),)}), "PiTrace(stages=1, transitions={0: ((1, 0),)})"),
    (LabelCount(0, 1, 1), "LabelCount(label=0, expected=1, observed=1)"),
    (VTable(v={0: 2}), "VTable(v={0: 2}, stage=0, events=[], tail=0)"),
    (PreorderSnapshot(3, 3, (1, 3), 1), "PreorderSnapshot(na=3, nb=3, thresholds=(1, 3), zeros=1)"),
    (_ENTRY, "ClaimEntry(x=1, in_b=True, holders=(0,))"),
    (ClaimReport((_ENTRY,), 2, True, (1,), (1,)),
     "ClaimReport(entries=(ClaimEntry(x=1, in_b=True, holders=(0,)),), zero_count=2, "
     "zero_count_ok=True, fingerprint_values=(1,), expected_members=(1,))"),
]


def _twin(rec):
    """A record of another class with the same name, fields and values."""
    cls = type(type(rec).__name__, (Record,), {"__slots__": type(rec)._fields})
    twin = cls.__new__(cls)
    for f in cls._fields:
        setattr(twin, f, getattr(rec, f))
    return twin


@pytest.mark.parametrize("rec, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_value_semantics(rec, text):
    same = copy.deepcopy(rec)
    assert same is not rec and same == rec and not same != rec
    assert repr(rec) == text
    twin = _twin(rec)
    assert repr(twin) == text and twin != rec and rec != twin
    if isinstance(rec, MUTABLE):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(rec).__name__}'"):
            hash(rec)
    elif isinstance(rec, PiTrace):   # hashes its fields, and the history is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rec)
    else:
        assert hash(same) == hash(rec)


def _subclasses(cls):
    """Every class below ``cls``, such as the kinds of UPTable."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_cover_every_record_class():
    classes = {c for c in _subclasses(Record) if c.__module__.startswith("effstruct.")}
    assert classes - {UPTable} == {type(r) for r, _ in RECORDS}


def test_vtable_equality_ignores_holders_index():
    t, u = VTable(v={0: 2, 1: 0}), VTable(v={0: 2, 1: 0})
    u.holders[5] = {9}
    assert t == u and "holders" not in repr(u)
    u.v[2] = 5
    assert t != u


def test_coceer_records_are_replayed_once_and_are_no_field():
    trace = CoceerTrace(3, ((4,),), (4,))
    # column 0's focus at stage 1 pads: it exiles its next_free 2
    assert trace.records == (StageRecord(1, 0, 4, None, ((0, 2),)),)
    assert trace.records is trace.records and "records" not in repr(trace)
    assert trace == CoceerTrace(3, ((4,),), (4,)) and trace._fields == ("stages", "cases", "tails")


def test_snapshot_order_is_built_once_and_is_no_field(monkeypatch):
    built = []
    order = PreorderSnapshot._order
    monkeypatch.setattr(PreorderSnapshot, "_order", lambda self: built.append(self) or order(self))
    snap = PreorderSnapshot(2, 3, (1,), 0)
    assert ("b1", "a0") in snap.leq and ("b0", "a0") not in snap.leq
    assert snap.leq is snap.leq and built == [snap]
    fresh = PreorderSnapshot(2, 3, (1,), 0)
    assert snap == fresh and hash(snap) == hash(fresh) and repr(snap) == repr(fresh)
    assert len(fresh.leq) == len(snap.leq) and built == [snap, fresh]

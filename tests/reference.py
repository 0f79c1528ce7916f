"""Slow reference paths that the library's fast paths are compared against.

:class:`ReferenceRunner` replays a family member stage by stage, taking
its merges from ``ChurnGenerator.events_at`` or by scanning
``CeerScript.events``, into a union-find of its own; it shares no code
with ``ceersim.CeerRunner``.  :func:`reference_run_coceer` is the plain
loop of the co-ceer construction over every stage, driven by that runner:
it updates every flag at every stage from a seen-set of its own and
rescans each dispatched column's settled region with
:func:`reference_check_column`.  :func:`reference_certificate` gives a
column's verdict by the witness-history rule, read off the trace alone.
:func:`reference_pi01_step` and :func:`reference_preorder_step` are the
full-scan steppers of the two positive constructions: every label and
every x is visited at every stage, over state classes of their own.
:func:`reference_verify_liminf_counts` finds each label's elements by a
scan of the whole trace.  :func:`reference_materialize` builds a
preorder snapshot as its explicit set of ``leq`` pairs, and
:func:`reference_block_partition` builds the block coding one merge at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from effstruct.blocks import block_offset
from effstruct.ceersim import CeerFamily, CeerScript
from effstruct.coceer import (
    CoceerState,
    CoceerTrace,
    ColumnState,
    StageRecord,
    _dispatch,
    init_coceer,
)
from effstruct.core import Delta02SetApprox, cantor_unpair
from effstruct.eqrel import Partition
from effstruct.errors import ConstructionBugError, InputError
from effstruct.pi01 import GTable, LabelCount, LiminfReport, PiTrace, required_stages_for
from effstruct.preorder import ELEM_C, ELEM_D, VTable, elem_a, elem_b


class NaiveUnionFind:
    """Quick-find: every touched element maps to the member list of its class,
    whose first entry is the class minimum."""

    def __init__(self):
        self.class_of: dict[int, list[int]] = {}
        self.lists: dict[int, list[int]] = {}   # id -> members, classes of 2+ only

    def union(self, x: int, y: int) -> None:
        if x == y:
            return
        a = self.class_of.setdefault(x, [x])
        b = self.class_of.setdefault(y, [y])
        if a is b:
            return
        if len(a) < len(b):
            a, b = b, a
        a.extend(b)
        if b[0] < a[0]:  # keep the minimum first
            i = len(a) - len(b)
            a[0], a[i] = a[i], a[0]
        for z in b:
            self.class_of[z] = a
        self.lists.pop(id(b), None)
        self.lists[id(a)] = a


class ReferenceRunner:
    """Per-stage replay of one family member into a :class:`NaiveUnionFind`."""

    def __init__(self, member):
        self.member = member
        self.uf = NaiveUnionFind()
        self.stage = -1
        self._shape: list[tuple[int, int]] = []   # (min, size) of classes of 2+

    def _merges_at(self, stage: int) -> list[tuple[int, int]]:
        if isinstance(self.member, CeerScript):
            return [m for s, m in self.member.events if s == stage]
        return self.member.events_at(stage)

    def advance_to(self, stage: int) -> None:
        while self.stage < stage:
            self.stage += 1
            merges = self._merges_at(self.stage)
            for x, y in merges:
                self.uf.union(x, y)
            if merges:
                self._shape = [(c[0], len(c)) for c in self.uf.lists.values()]

    def has_class_of_size(self, k: int) -> bool:
        # omega has cofinitely many untouched singletons
        return k == 1 or any(size == k for _, size in self._shape)

    def oldest_class_min(self, k: int) -> Optional[int]:
        minima = [m for m, size in self._shape if size == k]
        return min(minima) if minima else None

    def partition_classes(self, window: int) -> list[list[int]]:
        """Classes of the current relation restricted to [0, window)."""
        inside = [sorted(x for x in c if x < window) for c in self.uf.lists.values()]
        touched = {x for c in inside for x in c}
        singles = [[x] for x in range(window) if x not in touched]
        return sorted([c for c in inside if c] + singles, key=lambda c: c[0])


def reference_check_column(col: ColumnState, e: int) -> None:
    """The settled-region identity by a scan of [0, max(Y)]: below the
    witness high-water mark, the surviving class members are exactly {0}
    plus the witnesses."""
    for x in range(max(col.witnesses) + 1):
        surviving = x not in col.exiled
        expected = x == 0 or x in col.witnesses
        if surviving != expected:
            raise ConstructionBugError(f"column {e}: settled-region identity fails at {x}")


def reference_run_coceer(
    fam: CeerFamily, E: int, stage_budget: int
) -> tuple[CoceerState, CoceerTrace]:
    """The co-ceer construction visiting every stage, over reference runners.

    Every stage advances every runner and latches every flag whose oldest
    size-k minimum is new to that column's seen-set; a stage whose focus
    lies beyond E is recorded as a case-0 skip.
    """
    state = init_coceer(E)
    runners = [ReferenceRunner(fam.member(e)) for e in range(E)]
    seen: list[set[int]] = [set() for _ in range(E)]
    for col, runner, minima in zip(state.columns, runners, seen):
        runner.advance_to(0)
        m = runner.oldest_class_min(col.k)
        if m is not None:
            minima.add(m)
    records = []
    for stage in range(1, stage_budget + 1):
        e_focus, _ = cantor_unpair(stage)
        for col, runner, minima in zip(state.columns, runners, seen):
            runner.advance_to(stage)
            m = runner.oldest_class_min(col.k)
            if m is not None and m not in minima:
                col.flag = True
                minima.add(m)
        if e_focus < E:
            has_k = runners[e_focus].has_class_of_size(state.columns[e_focus].k)
            records.append(_dispatch(state, e_focus, stage, has_k))
            reference_check_column(state.columns[e_focus], e_focus)
        else:
            records.append(StageRecord(stage, e_focus, 0, None, None, ()))
        state.stage = stage
    return state, CoceerTrace(columns=E, stages=stage_budget, records=tuple(records))


def reference_certificate(
    trace: CoceerTrace, fam: CeerFamily, e: int
) -> tuple[bool, tuple[int, ...]]:
    """(certified, y_limit) for column e by the witness-history rule.

    The witness versions are the initial segment at stage 0 and the
    witnesses of each record of the column whose case is not 4.  A script
    is certified when its last case-4 record comes after the last event,
    no version is newer than that record, and the column's last record has
    the flag off.  A churn column is certified when the witnesses kept by
    every version over its last four case-3 records are exactly the initial
    segment, which is then the limit.
    """
    initial = tuple(range(1, 2 * e + 2))
    records = [r for r in trace.records if r.e == e]
    versions = [(0, initial)] + [(r.stage, r.witnesses) for r in records if r.case != 4]
    final = records[-1].witnesses if records else initial
    member = fam.member(e)
    if isinstance(member, CeerScript):
        case4 = [r.stage for r in records if r.case == 4]
        certified = (
            bool(case4)
            and case4[-1] > member.last_event_stage
            and versions[-1][0] <= case4[-1]
            and not records[-1].flag
        )
        return certified, final
    case3 = [r.stage for r in records if r.case == 3]
    if len(case3) < 4:
        return False, final
    start, end = case3[-4], case3[-1]
    # the versions in force at some stage of [start, end]: each starts by
    # end and is replaced, if at all, after start
    nexts = [st for st, _ in versions[1:]] + [None]
    kept = set.intersection(*(
        set(y) for (st, y), nxt in zip(versions, nexts)
        if st <= end and (nxt is None or nxt > start)
    ))
    if kept == set(initial):
        return True, initial
    return False, final


@dataclass
class ReferenceLabelState:
    """pi01 state with parked elements in a plain set."""

    ell: dict[int, int] = field(default_factory=dict)
    members: dict[int, set[int]] = field(default_factory=dict)
    removed_pending: set[int] = field(default_factory=set)
    next_fresh: int = 0
    stage: int = 0
    transitions: dict[int, list[tuple[int, Optional[int]]]] = field(default_factory=dict)
    windows: list[int] = field(default_factory=lambda: [0])


def _ref_set_label(st: ReferenceLabelState, x: int, label: int, stage: int) -> None:
    st.ell[x] = label
    st.members.setdefault(label, set()).add(x)
    st.transitions.setdefault(x, []).append((stage, label))


def _ref_remove_element(st: ReferenceLabelState, z: int, stage: int) -> None:
    history = st.transitions[z]
    if len(history) >= 3:
        raise ConstructionBugError(f"element {z} removed twice")
    label = st.ell.pop(z)
    st.members[label].discard(z)
    st.removed_pending.add(z)
    history.append((stage, None))


def reference_pi01_step(st: ReferenceLabelState, g: GTable) -> ReferenceLabelState:
    """One pi01 stage that tops up or strips every label opened so far."""
    s = st.stage
    stage = s + 1
    if st.removed_pending:
        w = min(st.removed_pending)
        st.removed_pending.discard(w)
    else:
        w = st.next_fresh
        st.next_fresh += 1
    _ref_set_label(st, w, s, stage)
    for k in range(s):
        members = st.members.setdefault(k, set())
        delta = len(members)
        goal = g.g(k, stage)
        if goal > delta:
            for _ in range(goal - delta):
                y = st.next_fresh
                st.next_fresh += 1
                _ref_set_label(st, y, k, stage)
        elif goal < delta:
            keeper = min(members)
            for z in sorted(members, reverse=True)[: delta - goal]:
                if z == keeper:
                    raise ConstructionBugError(f"label {k}: class minimum removed")
                _ref_remove_element(st, z, stage)
        if len(st.members[k]) != goal:
            raise ConstructionBugError(f"label {k}: count {len(st.members[k])} != g = {goal}")
    st.stage = stage
    st.windows.append(st.next_fresh)
    return st


def reference_verify_liminf_counts(trace: PiTrace, g: GTable, K: int) -> LiminfReport:
    """The liminf verifier that asks ``PiTrace.ever_labeled`` once per label.

    The caller runs the trace past ``required_stages_for(g, K)``.
    """
    entries = []
    for k in range(K + 1):
        _, perlen = g.column_shape(k)
        start = trace.stages - 2 * perlen
        observed = sum(
            1
            for x in trace.ever_labeled(k)
            if trace.stable_window_label(x, start, trace.stages) == k
        )
        entries.append(LabelCount(label=k, expected=g.liminf(k), observed=observed))
    return LiminfReport(entries=tuple(entries), required_stages=required_stages_for(g, K))


@dataclass
class ReferenceVTable:
    """Preorder thresholds whose holders are found by scanning every threshold."""

    v: dict[int, int] = field(default_factory=dict)
    defined_at: dict[int, int] = field(default_factory=dict)
    change_count: dict[int, int] = field(default_factory=dict)
    next_fresh: int = 0
    stage: int = 0
    events: list[tuple[int, int, Optional[int], int]] = field(default_factory=list)

    def holders_of(self, x: int) -> list[int]:
        return sorted(i for i, val in self.v.items() if val == x)


def _ref_assign_fresh(t: ReferenceVTable, value: int, stage: int) -> None:
    i = t.next_fresh
    t.next_fresh += 1
    t.v[i] = value
    t.defined_at[i] = stage
    t.change_count[i] = 0
    t.events.append((stage, i, None, value))


def _ref_reset_to_zero(t: ReferenceVTable, i: int, stage: int) -> None:
    old = t.v[i]
    if t.change_count[i] >= 1:
        raise ConstructionBugError(f"threshold v({i}) changed a second time")
    if old == 0:
        raise ConstructionBugError(f"threshold v({i}) reset while already 0")
    t.v[i] = 0
    t.change_count[i] += 1
    t.events.append((stage, i, old, 0))


def reference_preorder_step(t: ReferenceVTable, gB: Delta02SetApprox) -> ReferenceVTable:
    """One preorder stage that reads every x up to the stage at even stages."""
    s = t.stage
    stage = s + 1
    if stage % 2 == 1:
        _ref_assign_fresh(t, 0, stage)
    else:
        for x in range(1, s + 1):
            gval = gB.g(x, s)
            holders = t.holders_of(x)
            if gval == 0 and holders:
                for i in holders:
                    _ref_reset_to_zero(t, i, stage)
            elif gval == 1 and not holders:
                _ref_assign_fresh(t, x, stage)
    t.stage = stage
    return t


@dataclass(frozen=True)
class ReferenceSnapshot:
    """A preorder snapshot as its set of pairs x <= y."""

    na: int
    nb: int
    leq: frozenset[tuple[str, str]]

    def le(self, x: str, y: str) -> bool:
        return (x, y) in self.leq


def reference_materialize(t: VTable, n_a: Optional[int] = None,
                          n_b: Optional[int] = None) -> ReferenceSnapshot:
    """Relation snapshot from the fixed skeleton plus the threshold facts.

    Defaults make every assigned threshold visible: one a per stage and
    one b per stage are more than enough.
    """
    na = t.stage if n_a is None else n_a
    nb = t.stage if n_b is None else n_b
    if na < 0 or nb < 0:
        raise InputError("snapshot bounds must be nonnegative")
    leq: set[tuple[str, str]] = set()
    for z in [ELEM_C, ELEM_D] + [elem_a(i) for i in range(na)] + [elem_b(j) for j in range(nb)]:
        leq.add((z, z))
    for i in range(na):
        leq.add((ELEM_C, elem_a(i)))
    for j in range(nb):
        leq.add((elem_b(j), ELEM_D))
        for jj in range(j + 1):  # deeper b's lie below shallower ones
            leq.add((elem_b(j), elem_b(jj)))
    for i in range(na):
        threshold = t.v.get(i)
        if threshold is not None:
            for j in range(threshold, nb):
                leq.add((elem_b(j), elem_a(i)))
    return ReferenceSnapshot(na=na, nb=nb, leq=frozenset(leq))


def reference_block_partition(bits: list[int], n: int) -> Partition:
    """The block coding of the first n bits, merged element by element."""
    p = Partition(block_offset(n))
    for i in range(n):
        start = block_offset(i)
        width = 2 * i + 4
        for offset in range(1, width - 1):
            p.merge(start, start + offset)
        if bits[i] == 1:
            p.merge(start, start + width - 1)
    return p

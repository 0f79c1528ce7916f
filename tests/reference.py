"""Slow reference paths that the library's fast paths are compared against.

:class:`ReferenceRunner` replays a family member stage by stage, taking
its merges from ``ChurnGenerator.events_at`` or from ``CeerScript.events``
indexed by stage, into a union-find of its own; it shares no code
with ``ceersim.CeerRunner``.  :func:`reference_run_coceer` is the plain
loop of the co-ceer construction over every stage, driven by that runner:
it updates every flag at every stage from a seen-set of its own, keeps
each column's witnesses and exiles as explicit sets
(:class:`ReferenceColumn`, :func:`reference_dispatch`) and rescans each
dispatched column with :func:`reference_check_column`, and records every
stage as a :class:`ReferenceRecord`; :func:`column_exiles` expands a
library column's two integers into the same set.  :func:`tail_triples`
spells a trace's tails out as (e, w, case), w the diagonal of the column's
last stepped focus, :class:`RecordedTrace` is a trace with its records and
those triples (:func:`as_recorded`), and :func:`expand_tails`
writes a run's tails out as the records of the focuses they stand for,
:func:`focus_schedule` lists every focused stage of a run, and
:func:`stepped_run_coceer` steps every focus through a ``CeerRunner``,
replaying each event stage (:func:`stepped_latch`), with the library's
dispatch and no settle rule; :func:`record_witnesses`,
:func:`column_witnesses` and :func:`report_y_limit` spell out the
witnesses of a library record, column and report, and
:func:`reference_trace_from_json` rebuilds a run's records and tails from
a trace file's cases on explicit sets.  :func:`reference_columns_at` rebuilds the
reference columns at a stage from a longer reference trace.
:func:`reference_certificate` gives a column's verdict by the
witness-history rule, read off such a trace and a replay of the member.
:func:`reference_pi01_step` and :func:`reference_preorder_step` are the
full-scan steppers of the two positive constructions: every label and
every x is visited at every stage, over state classes of their own.
:func:`stepped_state_pi01` steps the library's ``pi01_step`` at every
stage with no settle rule, :func:`stepped_run_pi01` is its trace, and
:func:`label_stages` reads a label's stack of stages off such a state, the
stacks the verifier rebuilds by the shift rule, and
:func:`shifted_label_stages` reads them at the budget the way a run did
while it stepped; :func:`cut_history` cuts its
histories at the last stage a library run steps, and :func:`windows`
counts the elements created by each stage from the histories.
:func:`reference_required_stages_for` reads the shape of every label up
to K.  :func:`reference_verify_liminf_counts` finds each label's elements by a
scan of the whole trace (:func:`ever_labeled`) and reads each element's
history with :func:`stable_window_label` and :func:`label_at`, where the
library reads only the label stages.  :func:`classify_history` checks
one element's history against the two guarantees that ``pi01_step`` checks
online.  :func:`expand_tail` writes a preorder run's closed-form tail out
as the entries a stepped run holds.  :func:`reference_materialize`
builds a preorder snapshot as its explicit set of ``leq`` pairs,
:func:`snapshot_thresholds` spells out a library snapshot's threshold of
every a and :func:`canonical_snapshot` cuts a full threshold vector to
the library's form, and
:func:`reference_block_partition` builds the block coding one merge at a
time, and :func:`reference_block_classes` lists its classes member by
member.  :func:`reference_character_from_pairs` and
:func:`reference_decode_character` read a character file in two checking
passes and decode it against a second, whole character.
:func:`reference_script_events` reads a script's events as the script
constructor did before it numbered their elements.
:func:`partition_runs` lists the class lengths of a partition into
consecutive intervals, the form of the partition codec, and
:func:`runs_as_format_2` turns those lengths back into the format-2
``[start, stop]`` runs.  :func:`reference_check_block_partition` compares
a block file's partition with the coding as JSON text, and
:func:`run_length_mutations` makes every single mutation of a valid one.

The snapshot oracles give a construction's relation at one stage as a
:class:`Partition` of a finite window, merged pair by pair:
:func:`runner_partition` and :func:`ceer_snapshot` for a family member,
:func:`coceer_snapshot` for the co-ceer and :func:`snapshot_at` for a
pi01 trace.  :func:`generate_family` draws a mixed family of scripts and
churn generators for the co-ceer tests.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional

from effstruct import coceer
from effstruct.blocks import block_offset
from effstruct.ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator
from effstruct.coceer import CoceerTrace, ColumnState, RequirementReport, StageRecord
from effstruct.core import Delta02SetApprox, cantor_unpair
from effstruct.eqrel import Partition
from effstruct.errors import ConstructionBugError, InputError
from effstruct.generators import _noise_events
from effstruct.pi01 import GTable, LabelCount, LabelState, PiTrace, pi01_step
from effstruct.preorder import ELEM_C, ELEM_D, PreorderSnapshot, VTable, elem_a, elem_b


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
        # a script's merges by stage, in script order within a stage
        self._script: Optional[dict[int, list[tuple[int, int]]]] = None
        if isinstance(member, CeerScript):
            self._script = {}
            for s, m in member.events:
                self._script.setdefault(s, []).append(m)

    def _merges_at(self, stage: int) -> list[tuple[int, int]]:
        if self._script is not None:
            return self._script.get(stage, [])
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


def runner_partition(runner: CeerRunner, window: int) -> Partition:
    """The runner's current relation restricted to [0, window).

    Restriction happens after the closure on omega: two in-window
    elements joined through an out-of-window element are related.
    """
    p = Partition(window)
    for c in runner.classes:
        inside = c[:bisect_left(c, window)]
        for other in inside[1:]:
            p.merge(inside[0], other)
    return p


def ceer_snapshot(fam: CeerFamily, e: int, s: int, window: int) -> Partition:
    """R_e[s] restricted to [0, window)."""
    runner = CeerRunner(fam.member(e))
    runner.advance_to(s)
    return runner_partition(runner, window)


def column_exiles(col: ColumnState) -> set[int]:
    """The exiles of a library column: (base, next_free) minus the extra."""
    return set(range(col.base + 1, col.next_free)) - {col.extra}


def coceer_snapshot(columns: list[ColumnState], window: int) -> Partition:
    """S[s] over pair codes [0, window): columns minus exiles, exiles single."""
    p = Partition(window)
    exiles = [column_exiles(col) for col in columns]
    bycol: dict[int, list[int]] = {}
    for z in range(window):
        e, x = cantor_unpair(z)
        if e < len(columns) and x in exiles[e]:
            continue
        bycol.setdefault(e, []).append(z)
    for group in bycol.values():
        for other in group[1:]:
            p.merge(group[0], other)
    return p


@dataclass(frozen=True)
class ReferenceRecord:
    """A stage of a co-ceer run: the column's witnesses and the latch flag
    after its focus, or ``case`` 0 and ``None`` for a skip."""

    stage: int
    e: int
    case: int
    witnesses: Optional[tuple[int, ...]]
    flag: Optional[bool]
    exiled: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReferenceTrace:
    columns: int
    stages: int
    records: tuple[ReferenceRecord, ...]


def tail_triples(trace: CoceerTrace) -> tuple[tuple[int, int, int], ...]:
    """(e, w, case) for each tailed column e of a trace: its focuses after
    diagonal w, the diagonal of its last stepped focus, take ``case``."""
    return tuple((e, max(e, 1) + len(trace.cases[e]) - 1, case)
                 for e, case in enumerate(trace.tails) if case is not None)


@dataclass(frozen=True)
class RecordedTrace:
    """A co-ceer trace in the form a run kept before its trace became its
    cases and tails: a record per stepped focus, in stage order, and the
    tails as (e, w, case) (:func:`tail_triples`)."""

    columns: int
    stages: int
    records: tuple[StageRecord, ...]
    tails: tuple[tuple[int, int, int], ...]


def as_recorded(trace: CoceerTrace) -> RecordedTrace:
    """A library trace with its records replayed and its tails spelled out."""
    return RecordedTrace(len(trace.cases), trace.stages, trace.records, tail_triples(trace))


# how far each case moves a column's next_free (coceer.ColumnState)
_NEXT_FREE_STEP = {1: 2, 2: 0, 3: 1, 4: 1}


def witness_set(k: int, extra: Optional[int]) -> tuple[int, ...]:
    """The witnesses of a column of target size k, sorted: the initial
    segment 1..k-1, then the extra if there is one."""
    initial = tuple(range(1, k))
    return initial if extra is None else initial + (extra,)


def record_witnesses(r: StageRecord) -> tuple[int, ...]:
    """The witnesses of a library record's column after its focus."""
    return witness_set(2 * r.e + 2, r.extra)


def column_witnesses(col: ColumnState) -> tuple[int, ...]:
    """The witnesses of a library column."""
    return witness_set(col.k, col.extra)


def report_y_limit(report: RequirementReport) -> tuple[int, ...]:
    """The limit witness set of a library report, as its ``y_limit`` field
    and report files spelled it out before the report kept only the extra."""
    return witness_set(report.k, report.extra)


def expand_tails(trace: CoceerTrace) -> ReferenceTrace:
    """Every focused stage of a run, its tails written out as the records a
    stepped run keeps, with the flag off (no case leaves the latch on).

    A tail (e, w, case) (:func:`tail_triples`) stands for column e's
    focuses on diagonals w + 1, w + 2, ... through ``trace.stages``.  The
    column's next_free after its last record is 2e + 2 plus the steps of
    its cases; a case-4 focus exiles it and keeps the extra, and a case-3
    focus recruits it and exiles the old extra.
    """
    records = [ReferenceRecord(r.stage, r.e, r.case, record_witnesses(r), False, r.exiled)
               for r in trace.records]
    for e, w, case in tail_triples(trace):
        mine = [r for r in trace.records if r.e == e]
        assert mine[-1].stage == w * (w + 1) // 2 + e
        extra, v = mine[-1].extra, 2 * e + 2 + sum(_NEXT_FREE_STEP[r.case] for r in mine)
        initial = tuple(range(1, 2 * e + 2))
        while (s := (w + 1) * (w + 2) // 2 + e) <= trace.stages:
            exiled = v
            if case == 3:
                exiled, extra = extra, v
            witnesses = initial if extra is None else initial + (extra,)
            records.append(ReferenceRecord(s, e, case, witnesses, False,
                                           () if exiled is None else ((e, exiled),)))
            v, w = v + 1, w + 1
    records.sort(key=lambda r: r.stage)
    return ReferenceTrace(len(trace.cases), trace.stages, tuple(records))


def focus_schedule(E: int, budget: int) -> Iterator[tuple[int, int]]:
    """The focused stages 1..budget as (stage, e), in order.

    Stage w(w+1)/2 + e focuses column e for e <= w; it is focused when e < E.
    """
    w = 1
    while w * (w + 1) // 2 <= budget:
        base = w * (w + 1) // 2
        for e in range(min(w + 1, E)):
            if base + e > budget:
                return
            yield base + e, e
        w += 1


def reference_trace_from_json(obj: dict) -> RecordedTrace:
    """A format-5 coceer trace file as the records and tails of the run it
    stands for, each column's cases replayed on explicit sets
    (:func:`reference_dispatch`): a case-3 focus latched, and has_k is case
    1, or case 4 with an extra.  It checks only that each focus takes its
    case."""
    records, tails = [], []
    for e, (cases, tail) in enumerate(zip(obj["cases"], obj["tails"])):
        col = ReferenceColumn(k=2 * e + 2, witnesses=set(range(1, 2 * e + 2)))
        w = max(e, 1)
        for case in cases:
            extra = max(col.witnesses) if len(col.witnesses) > col.base else None
            col.flag = case == 3
            r = reference_dispatch(col, e, w * (w + 1) // 2 + e,
                                   case == 1 or case == 4 and extra is not None)
            if r.case != case:
                raise InputError(f"column {e}: case {case} replays as case {r.case}")
            extra = r.witnesses[-1] if len(r.witnesses) > col.base else None
            records.append(StageRecord(r.stage, e, case, extra, r.exiled))
            w += 1
        if tail is not None:
            tails.append((e, w - 1, tail))
    records.sort(key=lambda r: r.stage)
    return RecordedTrace(len(obj["cases"]), obj["stages"], tuple(records), tuple(tails))


def stepped_latch(k: int, runner: CeerRunner, seen: set[int], last: int, stage: int) -> bool:
    """Whether a never-seen oldest size-k class of the runner's member
    appeared in (last, stage], for a runner advanced to ``last``.

    A script's event stages in (last, stage] are read from its events and
    replayed one at a time; each oldest size-k minimum not in ``seen`` is
    latched and added to it.  A churn member is answered by the library's
    ``_churn_latches``.
    """
    member = runner.member
    if isinstance(member, ChurnGenerator):
        return coceer._churn_latches(member, k, last, stage)
    latched = False
    for t in sorted({t for t, _ in member.events if last < t <= stage}):
        runner.advance_to(t)
        m = runner.oldest_class_min(k)
        if m is not None and m not in seen:
            latched = True
            seen.add(m)
    return latched


def stepped_run_coceer(fam: CeerFamily, E: int, stage_budget: int
                       ) -> tuple[list[ColumnState], ReferenceTrace]:
    """A co-ceer run with no script timeline: a ``CeerRunner`` per column,
    :func:`stepped_latch` and the library's dispatch at every focused
    stage, with no settle rule, so no column is advanced in closed form.
    Stage 0 seeds the oldest-minimum history and latches nothing."""
    columns = [ColumnState(k=2 * e + 2, next_free=2 * e + 2) for e in range(E)]
    records = []
    for e, col in enumerate(columns):
        runner = CeerRunner(fam.member(e))
        runner.advance_to(0)
        first = runner.oldest_class_min(col.k)
        seen = set() if first is None else {first}
        last, w = 0, max(e, 1)
        while (s := w * (w + 1) // 2 + e) <= stage_budget:
            latched = stepped_latch(col.k, runner, seen, last, s)
            runner.advance_to(s)
            case, x = coceer._dispatch(col, runner.has_class_of_size(col.k), latched)
            records.append(ReferenceRecord(s, e, case, column_witnesses(col), False,
                                           () if x is None else ((e, x),)))
            last, w = s, w + 1
    records.sort(key=lambda r: r.stage)
    return columns, ReferenceTrace(E, stage_budget, tuple(records))


@dataclass
class ReferenceColumn:
    """A co-ceer column with its witnesses and exiles as explicit sets, and
    the paper's latch flag, kept from stage to stage."""

    k: int
    witnesses: set[int]
    exiled: set[int] = field(default_factory=set)
    flag: bool = False
    last_case4_stage: Optional[int] = None

    @property
    def base(self) -> int:
        return self.k - 1


def _reference_exile(col: ReferenceColumn, x: int) -> list[int]:
    if x <= col.base:  # 0 or an initial witness
        raise ConstructionBugError(f"attempt to exile protected element {x}")
    if x in col.exiled:
        return []
    col.exiled.add(x)
    return [x]


def reference_dispatch(col: ReferenceColumn, e: int, stage: int, has_k: bool) -> ReferenceRecord:
    """One focused stage on explicit sets: u is the witness above the initial
    segment, v the least unexiled element above every witness."""
    top = max(col.witnesses)
    u = top if top > col.base else None
    v = top + 1
    while v in col.exiled:
        v += 1
    baseline = len(col.witnesses) == col.base
    newly: list[int] = []
    if col.flag:
        case = 3
        if u is not None:
            col.witnesses.discard(u)
            newly += _reference_exile(col, u)
        col.witnesses.add(v)
        col.flag = False
    elif baseline and has_k:
        case = 1
        col.witnesses.add(v)
        newly += _reference_exile(col, v + 1)
    elif not baseline and not has_k:
        case = 2
        col.witnesses.discard(u)
        newly += _reference_exile(col, u)
    else:
        case = 4
        newly += _reference_exile(col, v)
        col.last_case4_stage = stage
    reference_check_column(col, e)
    return ReferenceRecord(stage, e, case, tuple(sorted(col.witnesses)), col.flag,
                           tuple((e, x) for x in newly))


def reference_check_column(col: ReferenceColumn, e: int) -> None:
    """The witness count, no witness exiled, the initial witnesses kept, and
    the settled-region identity by a scan of [0, max(Y)]: below the witness
    high-water mark, the surviving class members are exactly {0} plus the
    witnesses."""
    if len(col.witnesses) not in (col.base, col.base + 1) or col.witnesses & col.exiled \
            or not set(range(1, col.base + 1)) <= col.witnesses:
        raise ConstructionBugError(f"column {e}: bad witness count, exiled or lost witness")
    for x in range(max(col.witnesses) + 1):
        surviving = x not in col.exiled
        expected = x == 0 or x in col.witnesses
        if surviving != expected:
            raise ConstructionBugError(f"column {e}: settled-region identity fails at {x}")


def reference_run_coceer(
    fam: CeerFamily, E: int, stage_budget: int
) -> tuple[list[ReferenceColumn], ReferenceTrace]:
    """The co-ceer construction visiting every stage, over reference runners
    and :class:`ReferenceColumn` states; returns the columns and the trace.

    Every stage advances every runner and latches every flag whose oldest
    size-k minimum is new to that column's seen-set; a stage whose focus
    lies beyond E is recorded as a case-0 skip.  Equal members share one
    runner, advanced once per stage.
    """
    columns = [ReferenceColumn(k=2 * e + 2, witnesses=set(range(1, 2 * e + 2)))
               for e in range(E)]
    shared: dict = {}
    runners = [shared.setdefault(m, ReferenceRunner(m)) for m in map(fam.member, range(E))]
    seen: list[set[int]] = [set() for _ in range(E)]
    for col, runner, minima in zip(columns, runners, seen):
        runner.advance_to(0)
        m = runner.oldest_class_min(col.k)
        if m is not None:
            minima.add(m)
    records = []
    for stage in range(1, stage_budget + 1):
        e_focus, _ = cantor_unpair(stage)
        for runner in shared.values():
            runner.advance_to(stage)
        for col, runner, minima in zip(columns, runners, seen):
            m = runner.oldest_class_min(col.k)
            if m is not None and m not in minima:
                col.flag = True
                minima.add(m)
        if e_focus < E:
            has_k = runners[e_focus].has_class_of_size(columns[e_focus].k)
            records.append(reference_dispatch(columns[e_focus], e_focus, stage, has_k))
        else:
            records.append(ReferenceRecord(stage, e_focus, 0, None, None, ()))
    return columns, ReferenceTrace(E, stage_budget, tuple(records))


def reference_columns_at(trace: ReferenceTrace, stage: int) -> list[ReferenceColumn]:
    """The columns of a reference run to ``stage``, rebuilt from the records
    through ``stage`` of a reference run at least that long: each column's
    last witnesses, its exiles so far and its last case-4 stage."""
    columns = [ReferenceColumn(k=2 * e + 2, witnesses=set(range(1, 2 * e + 2)))
               for e in range(trace.columns)]
    for r in trace.records[:stage]:   # the records of stages 1..stage
        if r.case:
            col = columns[r.e]
            col.witnesses = set(r.witnesses)
            col.exiled.update(x for _, x in r.exiled)
            if r.case == 4:
                col.last_case4_stage = r.stage
    return columns


def reference_certificate(
    trace: ReferenceTrace, fam: CeerFamily, e: int
) -> tuple[bool, tuple[int, ...]]:
    """(certified, y_limit) for column e by the witness-history rule, from
    a trace with a record for every focused stage (:func:`expand_tails`).

    The witness versions are the initial segment at stage 0 and the
    witnesses of each record of the column whose case is not 4.  A script,
    or a churn generator whose target is not the column's size k, is
    certified when its last case-4 record comes after the stage T after
    which the member shows no size-k class, no version is newer than that
    record, and the column's last record has the flag off.  T is a script's
    last event, and for a churn generator the last stage with a size-k
    class in a replay that runs, past the trace if need be, until the
    class of 0 outgrows k; its other classes are then blocks of size k' !=
    k, so no size-k class comes back.  A churn column of target
    k is certified when the witnesses kept by every version over its last
    four case-3 records are exactly the initial segment, which is then the
    limit.
    """
    k = 2 * e + 2
    initial = tuple(range(1, k))
    records = [r for r in trace.records if r.e == e]
    versions = [(0, initial)] + [(r.stage, r.witnesses) for r in records if r.case != 4]
    final = records[-1].witnesses if records else initial
    member = fam.member(e)
    quiet = member.last_event_stage if isinstance(member, CeerScript) else None
    if quiet is None and member.target_size != k:
        runner, quiet, s = ReferenceRunner(member), 0, 0
        while len(runner.uf.class_of.get(0, (0,))) <= k:
            runner.advance_to(s)
            quiet = s if runner.has_class_of_size(k) else quiet
            s += 1
    if quiet is not None:
        case4 = [r.stage for r in records if r.case == 4]
        certified = (
            bool(case4)
            and case4[-1] > quiet
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
    windows: list[int] = field(default_factory=lambda: [0])   # after each stage


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


def stepped_state_pi01(g: GTable, stages: int) -> LabelState:
    """The library's ``pi01_step`` at every stage 1..stages, with no settle rule."""
    st = LabelState()
    for _ in range(stages):
        pi01_step(st, g)
    return st


def stepped_run_pi01(g: GTable, stages: int) -> PiTrace:
    """The trace of :func:`stepped_state_pi01`: each element's whole history."""
    return PiTrace(stages, dict(enumerate(stepped_state_pi01(g, stages).history)))


def label_stages(st: LabelState, k: int) -> list[int]:
    """The stages at which label k's members took it, in stack order; they
    do not decrease."""
    return [st.history[x][-1][0] for x in st.members[k]]


def shifted_label_stages(g: GTable, budgets) -> dict[int, list[list[int]]]:
    """For each budget S, the stages of each label k below min(width, S) at
    S, as a run read them while it stepped: :func:`label_stages` at the
    label's repeat stage S' (the shift rule of ``pi01``), every entry past
    the first liminf_k moved up by S - S'.  One stepped state serves every
    budget."""
    repeat = {}
    for S in budgets:
        repeat[S] = []
        for k in range(min(g.width, S)):
            plen, perlen = g.column_shape(k)
            base = max(plen, k + 2) + perlen
            repeat[S].append(S if S < base else base + (S - base) % perlen)
    st, stacks = LabelState(), {S: [[] for _ in r] for S, r in repeat.items()}
    for s in range(1, max((max(r, default=0) for r in repeat.values()), default=0) + 1):
        pi01_step(st, g)
        for S, r in repeat.items():
            for k in (k for k, at in enumerate(r) if at == s):
                m, stack = g.liminf(k), label_stages(st, k)
                stacks[S][k] = stack[:m] + [t + S - s for t in stack[m:]]
    return stacks


def windows(histories, last: int) -> list[int]:
    """The window after each stage 0..last: the number of ``histories``
    (a trace's, or a trace file's) that start by then."""
    starts = sorted(hist[0][0] for hist in histories)
    return [bisect_right(starts, s) for s in range(last + 1)]


def cut_history(trace: PiTrace, last: int) -> dict[int, tuple]:
    """Each element's history through stage ``last``, without the elements
    that have no entry by then."""
    cut = {x: tuple(entry for entry in hist if entry[0] <= last)
           for x, hist in trace.transitions.items()}
    return {x: hist for x, hist in cut.items() if hist}


def label_at(trace: PiTrace, x: int, s: int) -> Optional[int]:
    """The label x holds after stage s, read off its history, or None."""
    label: Optional[int] = None
    for st, value in trace.transitions.get(x, ()):
        if st > s:
            break
        label = value
    return label


def stable_window_label(trace: PiTrace, x: int, start: int, end: int) -> Optional[int]:
    """The label x holds throughout [start, end], or None."""
    label = label_at(trace, x, start)
    if label is None:
        return None
    for st, _ in trace.transitions.get(x, ()):
        if start < st <= end:
            return None
    return label


def classify_history(trace: PiTrace, x: int) -> str:
    """Classify an element's label history.

    ``"a"``: labeled once and kept it.  ``"b"``: labeled, removed, then
    relabeled with a strictly larger label it keeps.  ``"unstable"``:
    removed and still awaiting its second label at the horizon.
    """
    hist = trace.transitions.get(x)
    if not hist:
        raise InputError(f"element {x} never appeared in the trace")
    values = [v for _, v in hist]
    if values[0] is None:
        raise ConstructionBugError(f"element {x} removed before being labeled")
    if len(hist) == 1:
        return "a"
    if len(hist) == 2 and values[1] is None:
        return "unstable"
    if len(hist) == 3 and values[1] is None and values[2] is not None:
        if values[2] <= values[0]:
            raise ConstructionBugError(f"element {x} relabeled downward: {values}")
        return "b"
    raise ConstructionBugError(f"element {x} has an impossible history {hist}")


def snapshot_at(trace: PiTrace, s: int, window: Optional[int] = None) -> Partition:
    """R[s] as a partition: equal defined labels, singletons otherwise."""
    if window is None:
        window = windows(trace.transitions.values(), s)[s]
    p = Partition(window)
    bylabel: dict[int, list[int]] = {}
    for x in range(window):
        label = label_at(trace, x, s)
        if label is not None:
            bylabel.setdefault(label, []).append(x)
    for group in bylabel.values():
        for other in group[1:]:
            p.merge(group[0], other)
    return p


def ever_labeled(trace: PiTrace, k: int) -> list[int]:
    """The elements that held label k at some stage, by a scan of the trace."""
    return sorted(
        x for x, hist in trace.transitions.items() if any(v == k for _, v in hist)
    )


def reference_required_stages_for(g: GTable, K: int) -> int:
    """The pi01 horizon by a loop over every label 0..K."""
    worst = 0
    for k in range(K + 1):
        plen, perlen = g.column_shape(k)
        worst = max(worst, plen + 3 * perlen)
    return K + 1 + worst


def reference_verify_liminf_counts(trace: PiTrace, g: GTable, K: int) -> tuple[LabelCount, ...]:
    """The liminf verifier by the trace-scanning rule: for each label, every
    element that ever held it (:func:`ever_labeled`) is checked with
    :func:`stable_window_label` over the final window.

    The caller runs the trace past ``required_stages_for(g, K)`` with
    history kept.
    """
    entries = []
    for k in range(K + 1):
        _, perlen = g.column_shape(k)
        start = trace.stages - 2 * perlen
        observed = sum(
            1
            for x in ever_labeled(trace, k)
            if stable_window_label(trace, x, start, trace.stages) == k
        )
        entries.append(LabelCount(label=k, expected=g.liminf(k), observed=observed))
    return tuple(entries)


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


def expand_tail(t: VTable) -> VTable:
    """A copy of ``t`` with its tail written out as a stepped run keeps it:
    a fresh a_i with threshold 0, unchanged, at each of the last ``tail``
    odd stages up to ``t.stage``."""
    out = VTable(v=dict(t.v), stage=t.stage)
    out.events = list(t.events)
    first = t.stage - (t.stage + 1) % 2 - 2 * (t.tail - 1)   # the earliest tail stage
    for stage in range(first, t.stage + 1, 2):
        i = len(out.v)
        out.v[i] = 0
        out.holders.setdefault(0, set()).add(i)
        out.events.append((stage, i, None, 0))
    return out


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


def snapshot_thresholds(snap: PreorderSnapshot) -> list[int]:
    """The threshold of every a_i, i < na, of a library snapshot: the
    ``thresholds`` array of a format-2 snapshot file."""
    stated = len(snap.thresholds) + snap.zeros
    return list(snap.thresholds) + [0] * snap.zeros + [snap.nb] * (snap.na - stated)


def canonical_snapshot(na: int, nb: int, thresholds: list[int]) -> PreorderSnapshot:
    """The snapshot of a full threshold vector (one entry <= nb per a): the
    vector with its trailing run of nb cut off, then its trailing run of 0
    cut off and counted."""
    head = list(thresholds)
    while head and head[-1] == nb:
        del head[-1]
    zeros = 0
    while head and head[-1] == 0:
        del head[-1]
        zeros += 1
    return PreorderSnapshot(na, nb, tuple(head), zeros)


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


def reference_block_classes(bits: list[int], n: int) -> list[list[int]]:
    """The classes of the block coding of the first n bits as member lists,
    ordered by minimum: block i is [block_offset(i), block_offset(i+1)),
    its last element a singleton when bit i is 0."""
    classes = []
    for i in range(n):
        start, stop = block_offset(i), block_offset(i + 1)
        if bits[i] == 1:
            classes.append(list(range(start, stop)))
        else:
            classes += [list(range(start, stop - 1)), [stop - 1]]
    return classes


def _nat(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def reference_script_events(events: object) -> tuple:
    """The events of a ``CeerScript`` as its constructor read them before
    it numbered the elements: each event unpacked and its shape checked,
    the first bad value or order reported only once every event has its
    shape, three natural tests per event."""
    norm = []
    last_stage = 0
    problem = None
    for ev in events:
        try:
            stage, (x, y) = ev
        except (TypeError, ValueError) as exc:
            raise InputError("script events must be [stage, [x, y]] entries") from exc
        if problem is None and not (_nat(stage) and _nat(x) and _nat(y)):
            problem = f"bad script event {(stage, (x, y))!r}: stage, x and y must be naturals"
        elif problem is None and stage < last_stage:
            problem = "script events must be sorted by stage"
        last_stage = stage
        norm.append((stage, (x, y)))
    if problem is not None:
        raise InputError(problem)
    return tuple(norm)


def reference_character_from_pairs(pairs: object) -> dict[int, int]:
    """The entries of a character file's ``[[size, count], ...]``, checked
    in the loader's two passes: each pair's shape and size, and that no
    size repeats; then each count, and that no size is 0.  Sizes of count
    0 are dropped and the rest sorted by size."""
    if not isinstance(pairs, list):
        raise InputError("a character must be an array of [size, count] pairs")
    out: dict[int, int] = {}
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2 or not _nat(pair[0]):
            raise InputError(f"character entries must be [size, count] pairs, got {pair!r}")
        size, count = pair
        if size in out:
            raise InputError(f"duplicate character size {size}")
        out[size] = count
    for size, count in out.items():
        if not _nat(size) or not _nat(count):
            raise InputError(f"character entries must be naturals, got ({size!r}, {count!r})")
        if size < 1:
            raise InputError(f"bad character entry ({size}, {count})")
    return {s: c for s, c in sorted(out.items()) if c > 0}


def reference_decode_character(entries: dict[int, int], n: int) -> list[int]:
    """The bits of a block-coding character's entries: each block's bit
    read off its two sizes, then the entries compared with the whole
    character the bits code, built from the formula."""
    bits = []
    for i in range(n):
        joined = entries.get(2 * i + 4, 0) == 1
        split = entries.get(2 * i + 3, 0) == 1
        if joined == split:
            raise InputError(
                f"character is not a block coding: block {i} needs exactly one "
                f"of sizes {2 * i + 3} and {2 * i + 4}"
            )
        bits.append(1 if joined else 0)
    zeros = bits.count(0)
    expected = {1: zeros} if zeros else {}
    for i, bit in enumerate(bits):
        expected[2 * i + 4 if bit else 2 * i + 3] = 1
    if entries != expected:
        raise InputError(f"character does not match any block coding on {n} blocks")
    return bits


def partition_runs(p: Partition) -> list[int]:
    """The lengths of the classes of ``p``, in window order, asserting that
    each class is an interval: the form ``partition_to_json`` writes as given."""
    out = []
    start = 0
    for members in p.classes():
        assert members == list(range(start, start + len(members))), members
        out.append(len(members))
        start += len(members)
    return out


def runs_as_format_2(part: dict) -> dict:
    """A format-3 ``partition`` in format 2: the length L at offset o is the
    class ``[[o, o + L]]``, a list of one half-open run."""
    classes, start = [], 0
    for length in part["runs"]:
        classes.append([[start, start + length]])
        start += length
    return {"window": part["window"], "runs": classes}


def reference_check_block_partition(part: object, bits: list[int], n: int) -> None:
    """Refuse a format-3 block file's ``partition`` unless its JSON text is
    that of the coding of ``bits``: window n^2 + 3n and the class lengths
    of :func:`reference_block_partition`.  Compared as text, ``true`` is not
    ``1`` and ``4.0`` is not ``4``."""
    window, runs = n * n + 3 * n, partition_runs(reference_block_partition(bits, n))
    if json.dumps(part, sort_keys=True) != json.dumps({"window": window, "runs": runs},
                                                      sort_keys=True):
        raise InputError(f"block file 'partition' must be the coding of the decoded bits: "
                         f"'window' {window} and 'runs' its {len(runs)} class lengths "
                         f"in window order")


def run_length_mutations(part: dict) -> Iterator[Optional[dict]]:
    """Each single mutation of a valid format-3 block file's ``partition``:
    two adjacent lengths swapped (when they differ) or merged, a length
    split, one moved by 1 to or from its right neighbour (the sum holds),
    an entry dropped or repeated, an entry made a bool, a float or a
    string, the window moved by 1, and None for no partition at all."""
    window, runs = part["window"], part["runs"]
    out = []
    for i, length in enumerate(runs):
        head, tail = runs[:i], runs[i + 1:]
        out += [head + tail, head + [length, length] + tail,
                head + [True] + tail, head + [float(length)] + tail, head + [str(length)] + tail]
        if length > 1:
            out += [head + [1, length - 1] + tail, head + [length - 1, 1] + tail]
        if tail:
            right, rest = tail[0], tail[1:]
            out += [head + [length + right] + rest,
                    head + [length + 1, right - 1] + rest, head + [length - 1, right + 1] + rest]
            if right != length:
                out.append(head + [right, length] + rest)
    yield from ({"window": window, "runs": mutated} for mutated in out)
    yield {"window": window - 1, "runs": runs}
    yield {"window": window + 1, "runs": runs}
    yield None


def generate_family(seed: int, count: int) -> CeerFamily:
    """Mixed family of scripts and churn generators.

    A churn member at position e targets size 2e+2, the size the co-ceer
    construction diagonalizes that column at, so generated families are
    verifiable end to end.
    """
    rng = random.Random(seed)
    members = []
    for e in range(count):
        if rng.random() < 0.3:
            members.append(ChurnGenerator(2 * e + 2, rng.randint(2, 4)))
        else:
            events = _noise_events(rng, rng.randint(5, 20))
            members.append(CeerScript(tuple(sorted(events, key=lambda ev: ev[0]))))
    return CeerFamily(tuple(members))

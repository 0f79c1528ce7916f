"""Stage construction of a co-ceer diagonalizing against ceer approximations.

The relation S starts as the partition of omega into columns (pair-coded:
<e,x> ~ <e',x'> iff e = e') and only ever separates elements by exiling
them into permanent singletons, so S is given by negative information
alone.  Column e maintains a witness set Y_e; the class of <e,0> restricted
to its settled region is always {<e,0>} union {<e,x> : x in Y_e}, so its
limit size is |Y_e| + 1 and is steered against the class sizes realized by
the e-th member of a ceer family.

Per column the construction keeps a latch flag that turns on whenever the
family member exhibits a never-before-seen oldest class of the target
size; the flag is consumed (and the witness set churned) the next time the
stage schedule focuses on that column.  Stage s focuses column
``cantor_unpair(s).e``; no other stage reads or consumes a column's flag,
so the flag is brought up to date lazily, at the column's own focused
stages, from the member's events in between (see :meth:`CoceerRun._latch`).

Column e has the target size k_e = 2e+2 and the initial witnesses
{1, ..., k_e - 1}, so its witness class sizes are {k_e, k_e + 1}, unique
across columns and disjoint from the size-1 exile classes.

:class:`CoceerRun` runs the construction forward to a given stage, one
focused stage at a time; :func:`run_coceer` runs it for a stage budget
and traces every focused stage.  A stage whose focus lies beyond the last
column changes nothing, so it is neither visited nor recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator, limit_has_class_of_size
from .core import cantor_unpair, check_format, is_nat
from .eqrel import Partition
from .errors import ConstructionBugError, InputError


@dataclass
class ColumnState:
    """Per-column bookkeeping for one requirement."""

    k: int                      # target class size
    witnesses: set[int]
    flag: bool = False
    seen_through: int = 0       # the flag is up to date through this stage
    seen_minima: set[int] = field(default_factory=set)  # oldest size-k minima (scripts)
    exiled: set[int] = field(default_factory=set)
    max_exiled: int = 0         # the largest exile, 0 while there is none
    next_free: int = 0          # every x with max(witnesses) < x < next_free is exiled
    case3_count: int = 0
    last_case4_stage: Optional[int] = None

    @property
    def base(self) -> int:
        """The initial witness segment is {1, ..., base}."""
        return self.k - 1

    @property
    def initial_witnesses(self) -> frozenset[int]:
        return frozenset(range(1, self.base + 1))


@dataclass
class CoceerState:
    stage: int                  # the construction has run through this stage
    columns: list[ColumnState]

    @property
    def width(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class StageRecord:
    stage: int
    e: int
    case: int                   # 1..4
    witnesses: tuple[int, ...]
    flag: bool
    exiled: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CoceerTrace:
    """One record per focused stage in 1..stages, in stage order."""

    columns: int
    stages: int
    records: tuple[StageRecord, ...]


@dataclass(frozen=True)
class RequirementReport:
    e: int
    k: int
    kind: str                   # "script" or "churn"
    witness_class_size: int
    r_e_has_size_k: bool
    satisfied: bool
    certified: bool
    y_limit: tuple[int, ...]


def init_coceer(E: int) -> CoceerState:
    """Fresh construction state for columns 0..E-1, all flags off."""
    if E < 1:
        raise InputError("need at least one column")
    columns = [ColumnState(k=2 * e + 2, witnesses=set(range(1, 2 * e + 2))) for e in range(E)]
    return CoceerState(stage=0, columns=columns)


def focus_schedule(E: int, budget: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """The focused stages 1..budget (unbounded for None) as (stage, e), in order.

    Stage w(w+1)/2 + e focuses column e for e <= w; it is focused when e < E.
    """
    w = 1
    while budget is None or w * (w + 1) // 2 <= budget:
        base = w * (w + 1) // 2
        for e in range(min(w + 1, E)):
            if budget is not None and base + e > budget:
                return
            yield base + e, e
        w += 1


def compute_uv(state: CoceerState, e: int) -> tuple[Optional[int], int]:
    """Replaceable witness and next recruit for column e.

    ``u`` is the witness above the initial segment (absent when the
    witness set is exactly the initial segment; the check after every
    stage leaves at most one); ``v`` is the least element beyond all
    current witnesses whose column entry has not been exiled, i.e. is
    still in the class of <e,0>.
    """
    if not 0 <= e < state.width:
        raise InputError(f"column {e} out of range")
    col = state.columns[e]
    top = max(col.witnesses)
    return (top if top > col.base else None), _next_free(col, top)


def _next_free(col: ColumnState, top: int) -> int:
    """The least x > top that is not exiled.

    ``col.next_free`` keeps the last answer, so the run of padding exiles
    above the witnesses is stepped over once, not at every stage.  It stays
    a lower bound: exiles are permanent, a recruit raises the top to the
    answer itself, and case 2 lowers the top only across elements that the
    settled-region identity shows exiled.
    """
    v = max(col.next_free, top + 1)
    while v in col.exiled:
        v += 1
    col.next_free = v
    return v


def _exile(col: ColumnState, x: int) -> list[int]:
    """Mark <e,x> as a permanent singleton; returns the newly exiled x."""
    if x <= col.base:  # 0 or an initial witness
        raise ConstructionBugError(f"attempt to exile protected element {x}")
    if x in col.exiled:
        return []
    col.exiled.add(x)
    col.max_exiled = max(col.max_exiled, x)
    return [x]


def _check_column(col: ColumnState, e: int) -> None:
    """Raise :class:`ConstructionBugError` unless column e is well formed.

    Besides the witness count, witnesses never exiled and the initial
    witnesses kept, this checks the settled-region identity: for every
    0 <= x <= top = max(Y), x is unexiled iff x = 0 or x is in Y.  It is
    checked as the counter identity

        0 not exiled  and  |Y - {0}| + |exiled & [1, top]| = top.

    Proof: Y lies in [0, top], so A = Y - {0} and B = exiled & [1, top] are
    subsets of [1, top], disjoint because no witness is exiled.  The identity
    at x = 0 says 0 is unexiled; on [1, top] it says A and B cover [1, top],
    which for disjoint subsets holds iff |A| + |B| = top.

    B is counted without a scan: with v the least unexiled element above
    top, the exiles above top are the run (top, v), v - top - 1 of them,
    plus any beyond v.  Exiles enter only as the next recruit (case 4), the
    element after a recruit (case 1) or an old witness (cases 2 and 3), so
    none lies beyond v and the last term is 0; it is counted only if the
    largest exile says otherwise.
    """
    n = len(col.witnesses)
    if n not in (col.base, col.base + 1):
        raise ConstructionBugError(f"column {e}: witness count {n} not in {{base, base+1}}")
    if col.witnesses & col.exiled:
        raise ConstructionBugError(f"column {e}: witness exiled")
    if not col.initial_witnesses <= col.witnesses:
        raise ConstructionBugError(f"column {e}: initial witness removed")
    top = max(col.witnesses)
    v = _next_free(col, top)
    above = v - top - 1
    if col.max_exiled > v:
        above += sum(1 for x in col.exiled if x > v)
    settled = len(col.exiled) - above
    if 0 in col.exiled or n - (0 in col.witnesses) + settled != top:
        raise ConstructionBugError(f"column {e}: settled-region identity fails below {top}")


def _dispatch(state: CoceerState, e: int, stage: int, has_k: bool) -> StageRecord:
    col = state.columns[e]
    u, v = compute_uv(state, e)
    baseline = len(col.witnesses) == col.base
    newly: list[int] = []
    if col.flag:
        case = 3
        if u is not None:
            col.witnesses.discard(u)
            newly += _exile(col, u)
        col.witnesses.add(v)
        col.flag = False
        col.case3_count += 1
    elif baseline and has_k:
        case = 1
        col.witnesses.add(v)
        newly += _exile(col, v + 1)
    elif not baseline and not has_k:
        case = 2
        if u is None:
            raise ConstructionBugError(f"column {e}: grown witness set without extra witness")
        col.witnesses.discard(u)
        newly += _exile(col, u)
    else:
        case = 4
        newly += _exile(col, v)
        col.last_case4_stage = stage
    _check_column(col, e)
    return StageRecord(
        stage=stage,
        e=e,
        case=case,
        witnesses=tuple(sorted(col.witnesses)),
        flag=col.flag,
        exiled=tuple((e, x) for x in newly),
    )


class CoceerRun:
    """The construction over columns 0..E-1 of ``fam``, run forward by :meth:`run_to`.

    The constructor builds one runner per column and seeds stage 0: the
    stage-0 approximations enter the oldest-class history, but flags stay
    off, since a class present from the start is not a mind change.
    """

    def __init__(self, fam: CeerFamily, E: int):
        if E > len(fam.members):
            raise InputError("family has fewer members than requested columns")
        self.state = init_coceer(E)
        self.runners = [CeerRunner(fam.member(e)) for e in range(E)]
        for col, runner in zip(self.state.columns, self.runners):
            runner.advance_to(0)
            m = runner.oldest_class_min(col.k)
            if m is not None:
                col.seen_minima.add(m)
        self._schedule = focus_schedule(E)
        self._next = next(self._schedule)

    def run_to(self, stage: int) -> list[StageRecord]:
        """Run the construction through ``stage``; returns the focused stages' records.

        Each focused stage brings its column's flag up to date, then
        dispatches; at the end every flag is brought up to ``stage``.  A
        stage the run has already reached is a no-op.
        """
        if stage <= self.state.stage:
            return []
        records = []
        while self._next[0] <= stage:
            s, e = self._next
            self._next = next(self._schedule)
            self._latch(e, s)
            runner = self.runners[e]
            runner.advance_to(s)
            has_k = runner.has_class_of_size(self.state.columns[e].k)
            records.append(_dispatch(self.state, e, s, has_k))
        for e in range(self.state.width):
            self._latch(e, stage)
        self.state.stage = stage
        return records

    def _latch(self, e: int, stage: int) -> None:
        """Latch column e's flag if a never-seen oldest size-k class appeared in
        (``seen_through``, stage].

        A script's oldest size-k class changes only at its event stages, so
        those are replayed one at a time and each new minimum is latched.  A
        churn member is answered by :func:`_churn_latches` without replay.
        """
        col, runner = self.state.columns[e], self.runners[e]
        last, col.seen_through = col.seen_through, stage
        member = runner.member
        if isinstance(member, ChurnGenerator):
            col.flag = col.flag or _churn_latches(member, col.k, last, stage)
            return
        while (t := runner.next_event_stage) is not None and t <= stage:
            runner.advance_to(t)
            m = runner.oldest_class_min(col.k)
            if m is not None and m not in col.seen_minima:
                col.flag = True
                col.seen_minima.add(m)


def _churn_latches(gen: ChurnGenerator, k: int, last: int, stage: int) -> bool:
    """Whether a never-seen oldest size-k class of ``gen`` appears in (last, stage].

    The classes of two or more are the class of 0, of size A*k' + 1 for k'
    the churn target and A the rounds absorbed, and a pending block of
    size k' (:meth:`ChurnGenerator.classes_after`).  For k = k' the class of
    0 never has size k (A*k' + 1 = k' has no solution), so the oldest
    size-k class is the pending block; a round forms a block with a larger
    minimum than every earlier one, and it is pending at its formation
    stage, so a new minimum appears iff some round forms in the interval.
    For k != k' only the class of 0 can have size k, with minimum 0, and
    only while A = (k-1)/k'.  A grows by at most one per stage, so if A
    passes that value in the interval it equals it at some stage there, and
    0 is new, since A was smaller at every earlier stage; if A reached it
    before, 0 was latched then.
    """
    formed0, absorbed0 = gen.rounds(last)
    formed1, absorbed1 = gen.rounds(stage)
    if k == gen.target_size:
        return formed1 > formed0
    rounds, rest = divmod(k - 1, gen.target_size)
    return rest == 0 and absorbed0 < rounds <= absorbed1


def run_coceer(fam: CeerFamily, E: int, stage_budget: int) -> tuple[CoceerState, CoceerTrace]:
    """Run the construction through stage ``stage_budget`` and trace it.

    The trace holds one record per focused stage, and every flag is brought
    up to the budget at the end.  Construction invariants (witness count,
    protected elements, settled-region identity) are checked on every
    focused stage and raise :class:`ConstructionBugError`.
    """
    if stage_budget < 1:
        raise InputError("stage budget must be at least 1")
    run = CoceerRun(fam, E)
    records = run.run_to(stage_budget)
    return run.state, CoceerTrace(columns=E, stages=stage_budget, records=tuple(records))


def snapshot(state: CoceerState, window: int) -> Partition:
    """S[s] over pair codes [0, window): columns minus exiles, exiles single."""
    p = Partition(window)
    bycol: dict[int, list[int]] = {}
    for z in range(window):
        e, x = cantor_unpair(z)
        if e < state.width and x in state.columns[e].exiled:
            continue
        bycol.setdefault(e, []).append(z)
    for group in bycol.values():
        for other in group[1:]:
            p.merge(group[0], other)
    return p


def verify_requirement(state: CoceerState, fam: CeerFamily, e: int) -> RequirementReport:
    """Check one requirement against the family's exact limit behavior.

    For a script the limit relation is known exactly and the witness set
    is final once, after the last event T, a focused stage L fell through to
    the padding case 4.  That alone implies that the flag is off and that no
    stage after L changed the witnesses:

    - Flags latch only at event stages, all at most T < L, and the latch at
      L replayed every one of them before the dispatch.  Case 4 was taken,
      so the flag was off then; nothing sets it after L, and case 4 leaves
      it off.
    - Case 4 at L means (baseline and not has_k) or (not baseline and
      has_k), where baseline says the witnesses are the initial segment.
      After T the member's classes are fixed, so has_k is the same at every
      later stage; case 4 changes no witness, so baseline is the same too.
      With the flag off, every later focused stage of the column is case 4
      again, and the witnesses never change after L.

    For a churn generator the witness set keeps cycling by design; its
    limit is the initial segment I, certified from the fourth case-3 stage
    on.  This is the rule "the witnesses kept by every version over the
    last four case-3 stages are exactly I", whose intersection test always
    passes: after case 3 the witnesses are I plus the recruit v.  The next
    case 3, and any case 2 before it, discards and exiles that extra.  The
    recruit of the next case 3 lies above the current witnesses and is
    unexiled (:func:`_next_free`), while v is then a witness or exiled, and
    exiles never leave; so the two extras differ.  :func:`_check_column`
    keeps I among the witnesses at every stage, so across any two case-3
    stages the witnesses kept throughout are exactly I.
    """
    if not 0 <= e < state.width:
        raise InputError(f"column {e} out of range")
    col = state.columns[e]
    member = fam.member(e)
    r_has = limit_has_class_of_size(member, col.k)
    y_limit = frozenset(col.witnesses)
    if isinstance(member, CeerScript):
        kind = "script"
        certified = (
            col.last_case4_stage is not None
            and col.last_case4_stage > member.last_event_stage
        )
    else:
        kind = "churn"
        certified = col.case3_count >= 4
        if certified:
            y_limit = col.initial_witnesses
    witness_class_size = len(y_limit) + 1
    satisfied = (witness_class_size == col.k) == (not r_has)
    return RequirementReport(
        e=e,
        k=col.k,
        kind=kind,
        witness_class_size=witness_class_size,
        r_e_has_size_k=r_has,
        satisfied=satisfied,
        certified=certified,
        y_limit=tuple(sorted(y_limit)),
    )


def report_to_json(report: RequirementReport) -> dict:
    return {
        "e": report.e,
        "k": report.k,
        "kind": report.kind,
        "witness_class_size": report.witness_class_size,
        "r_e_has_size_k": report.r_e_has_size_k,
        "satisfied": report.satisfied,
        "certified": report.certified,
        "y_limit": list(report.y_limit),
    }


def trace_to_json(trace: CoceerTrace) -> dict:
    """Format 2: the focused records only; every other stage is a skip."""
    records = [
        {
            "stage": r.stage,
            "e": r.e,
            "case": r.case,
            "Y": list(r.witnesses),
            "flag": "on" if r.flag else "off",
            "exiled": [[e, x] for e, x in r.exiled],
        }
        for r in trace.records
    ]
    return {"format": 2, "columns": trace.columns, "stages": trace.stages, "records": records}


def trace_from_json(obj: object) -> CoceerTrace:
    """Load a format-2 trace whose records are exactly the focused stages."""
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-2 object")
    check_format(obj, version=2)
    columns, stages = obj.get("columns"), obj.get("stages")
    if not is_nat(columns) or not is_nat(stages) or columns < 1:
        raise InputError("trace 'columns' must be a positive natural and 'stages' a natural")
    schedule = focus_schedule(columns, stages)
    try:
        records = tuple(_record_from_json(r, next(schedule, None)) for r in obj["records"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    missing = next(schedule, None)
    if missing is not None:
        raise InputError(f"trace has no record for focused stage {missing[0]}")
    return CoceerTrace(columns=columns, stages=stages, records=records)


_FLAGS = {"on": True, "off": False}


def _record_from_json(r: dict, focus: Optional[tuple[int, int]]) -> StageRecord:
    """One record, which must be the focused stage ``focus`` = (stage, e)."""
    stage, e, case, flag = r["stage"], r["e"], r["case"], r["flag"]
    witnesses = tuple(r["Y"])
    exiled = tuple((a, b) for a, b in r["exiled"])
    if not (
        is_nat(stage) and is_nat(e) and is_nat(case) and 1 <= case <= 4 and flag in _FLAGS
        and all(map(is_nat, witnesses)) and all(is_nat(a) and is_nat(b) for a, b in exiled)
    ):
        raise InputError(
            f"trace record {stage!r}: stage, e, case (1..4), Y and exiled must hold "
            "naturals, flag must be 'on' or 'off'"
        )
    if (stage, e) != focus:
        raise InputError(f"trace record (stage, column) = {(stage, e)} is not the next "
                         f"focused stage, {focus or 'of which there are no more'}")
    return StageRecord(stage, e, case, witnesses, _FLAGS[flag], exiled)

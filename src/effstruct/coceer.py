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
stage schedule focuses on that column.

Column e has the target size k_e = 2e+2 and the initial witnesses
{1, ..., k_e - 1}, so its witness class sizes are {k_e, k_e + 1}, unique
across columns and disjoint from the size-1 exile classes.

:class:`CoceerRun` steps the construction one stage at a time;
:func:`run_coceer` drives it for a stage budget and traces every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ceersim import CeerFamily, CeerRunner, CeerScript, limit_spectrum
from .core import cantor_unpair, check_format, is_nat
from .eqrel import Partition
from .errors import ConstructionBugError, InputError


@dataclass
class ColumnState:
    """Per-column bookkeeping for one requirement."""

    k: int                      # target class size
    witnesses: set[int]
    flag: bool = False
    seen_minima: set[int] = field(default_factory=set)
    exiled: set[int] = field(default_factory=set)
    y_log: list[tuple[int, frozenset[int]]] = field(default_factory=list)
    case3_stages: list[int] = field(default_factory=list)
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
    stage: int
    columns: list[ColumnState]

    @property
    def width(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class StageRecord:
    stage: int
    e: int
    case: int                   # 1..4, or 0 for a skipped stage (e >= E)
    witnesses: Optional[tuple[int, ...]]
    flag: Optional[bool]
    exiled: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CoceerTrace:
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
    columns = []
    for e in range(E):
        k = 2 * e + 2
        col = ColumnState(k=k, witnesses=set(range(1, k)))
        col.y_log.append((0, frozenset(col.witnesses)))
        columns.append(col)
    return CoceerState(stage=0, columns=columns)


def compute_uv(state: CoceerState, e: int) -> tuple[Optional[int], int]:
    """Replaceable witness and next recruit for column e.

    ``u`` is the least witness above the initial segment (absent when the
    witness set is exactly the initial segment); ``v`` is the least
    element beyond all current witnesses whose column entry has not been
    exiled, i.e. is still in the class of <e,0>.
    """
    if not 0 <= e < state.width:
        raise InputError(f"column {e} out of range")
    col = state.columns[e]
    above = [x for x in col.witnesses if x > col.base]
    u = min(above) if above else None
    v = max(col.witnesses) + 1
    while v in col.exiled:
        v += 1
    return u, v


def _exile(col: ColumnState, x: int) -> list[int]:
    """Mark <e,x> as a permanent singleton; returns the newly exiled x."""
    if x == 0 or x in col.initial_witnesses:
        raise ConstructionBugError(f"attempt to exile protected element {x}")
    if x in col.exiled:
        return []
    col.exiled.add(x)
    return [x]


def _check_column(col: ColumnState, e: int) -> None:
    n = len(col.witnesses)
    if n not in (col.base, col.base + 1):
        raise ConstructionBugError(f"column {e}: witness count {n} not in {{base, base+1}}")
    if col.witnesses & col.exiled:
        raise ConstructionBugError(f"column {e}: witness exiled")
    if not col.initial_witnesses <= col.witnesses:
        raise ConstructionBugError(f"column {e}: initial witness removed")
    # settled-region identity: below the witness high-water mark, the
    # surviving class members are exactly {0} plus the witnesses
    top = max(col.witnesses)
    for x in range(top + 1):
        surviving = x not in col.exiled
        expected = x == 0 or x in col.witnesses
        if surviving != expected:
            raise ConstructionBugError(f"column {e}: settled-region identity fails at {x}")


def _update_flag(col: ColumnState, current_min: Optional[int]) -> None:
    """Latch the flag if the oldest target-size class is new to history."""
    if current_min is None:
        return
    if current_min not in col.seen_minima:
        col.flag = True
        col.seen_minima.add(current_min)


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
        col.case3_stages.append(stage)
        col.y_log.append((stage, frozenset(col.witnesses)))
    elif baseline and has_k:
        case = 1
        col.witnesses.add(v)
        newly += _exile(col, v + 1)
        col.y_log.append((stage, frozenset(col.witnesses)))
    elif not baseline and not has_k:
        case = 2
        if u is None:
            raise ConstructionBugError(f"column {e}: grown witness set without extra witness")
        col.witnesses.discard(u)
        newly += _exile(col, u)
        col.y_log.append((stage, frozenset(col.witnesses)))
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
    """The construction over columns 0..E-1 of ``fam``, one stage per :meth:`step`.

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

    def step(self) -> StageRecord:
        """Run the next stage; a stage whose focus lies beyond E is a skip."""
        state = self.state
        stage = state.stage + 1
        e_focus, _ = cantor_unpair(stage)
        for col, runner in zip(state.columns, self.runners):
            runner.advance_to(stage)
            _update_flag(col, runner.oldest_class_min(col.k))
        if e_focus < state.width:
            has_k = self.runners[e_focus].has_class_of_size(state.columns[e_focus].k)
            record = _dispatch(state, e_focus, stage, has_k)
        else:
            record = StageRecord(stage, e_focus, 0, None, None, ())
        state.stage = stage
        return record


def run_coceer(fam: CeerFamily, E: int, stage_budget: int) -> tuple[CoceerState, CoceerTrace]:
    """Run the construction for ``stage_budget`` stages and trace it.

    The trace holds one record per stage; stages whose focus column lies
    beyond E are recorded as skips.  Construction invariants (witness
    count, protected elements, settled-region identity) are checked on
    every focused stage and raise :class:`ConstructionBugError`.
    """
    if stage_budget < 1:
        raise InputError("stage budget must be at least 1")
    run = CoceerRun(fam, E)
    records = tuple(run.step() for _ in range(stage_budget))
    return run.state, CoceerTrace(columns=E, stages=stage_budget, records=records)


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


def _witness_versions_over(col: ColumnState, start: int, end: int) -> list[frozenset[int]]:
    versions = []
    for i, (st, y) in enumerate(col.y_log):
        nxt = col.y_log[i + 1][0] if i + 1 < len(col.y_log) else None
        if st <= end and (nxt is None or nxt > start):
            versions.append(y)
    return versions


def verify_requirement(state: CoceerState, fam: CeerFamily, e: int) -> RequirementReport:
    """Check one requirement against the family's exact limit behavior.

    For a script the limit relation is known exactly and the witness set
    is final once, after the last event, a focused stage fell through to
    the padding case with the flag off.  For a churn generator the
    witness set keeps cycling by design; its limit is the set of
    witnesses that persist, certified once the initial witnesses are the
    only survivors across three consecutive completed churn cycles.
    """
    if not 0 <= e < state.width:
        raise InputError(f"column {e} out of range")
    col = state.columns[e]
    member = fam.member(e)
    _, has_size = limit_spectrum(fam, e, window=0)
    r_has = has_size(col.k)
    if isinstance(member, CeerScript):
        kind = "script"
        last_event = member.last_event_stage
        certified = (
            col.last_case4_stage is not None
            and col.last_case4_stage > last_event
            and col.y_log[-1][0] <= col.last_case4_stage
            and not col.flag
        )
        y_limit = frozenset(col.witnesses)
    else:
        kind = "churn"
        certified = False
        y_limit = frozenset(col.witnesses)
        if len(col.case3_stages) >= 4:
            span_start, span_end = col.case3_stages[-4], col.case3_stages[-1]
            stable = frozenset.intersection(*_witness_versions_over(col, span_start, span_end))
            if stable == col.initial_witnesses:
                certified = True
                y_limit = stable
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
    records = []
    for r in trace.records:
        records.append(
            {
                "stage": r.stage,
                "e": r.e,
                "case": r.case,
                "Y": None if r.witnesses is None else list(r.witnesses),
                "flag": None if r.flag is None else ("on" if r.flag else "off"),
                "exiled": [[e, x] for e, x in r.exiled],
            }
        )
    return {
        "format": 1,
        "mode": "spaced",       # the 2e+2 sizing, the only one there is
        "columns": trace.columns,
        "stages": trace.stages,
        "records": records,
    }


def trace_from_json(obj: object) -> CoceerTrace:
    if not isinstance(obj, dict) or obj.get("mode") != "spaced":
        raise InputError("trace must be a format-1 object with mode 'spaced'")
    check_format(obj)
    columns, stages = obj.get("columns"), obj.get("stages")
    if not is_nat(columns) or not is_nat(stages):
        raise InputError("trace 'columns' and 'stages' must be naturals")
    try:
        records = tuple(_record_from_json(r) for r in obj["records"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    return CoceerTrace(columns=columns, stages=stages, records=records)


_FLAGS = {"on": True, "off": False, None: None}


def _record_from_json(r: dict) -> StageRecord:
    stage, e, case, flag = r["stage"], r["e"], r["case"], r["flag"]
    witnesses = None if r["Y"] is None else tuple(r["Y"])
    exiled = tuple((a, b) for a, b in r["exiled"])
    if not (
        is_nat(stage) and is_nat(e) and is_nat(case) and case <= 4 and flag in _FLAGS
        and (witnesses is None or all(map(is_nat, witnesses)))
        and all(is_nat(a) and is_nat(b) for a, b in exiled)
    ):
        raise InputError(
            f"trace record {stage!r}: stage, e, case (0..4), Y and exiled must hold "
            "naturals, flag must be 'on', 'off' or null"
        )
    return StageRecord(stage, e, case, witnesses, _FLAGS[flag], exiled)

"""Stage construction of a co-ceer diagonalizing against ceer approximations.

The relation S starts as the partition of omega into columns (pair-coded:
<e,x> ~ <e',x'> iff e = e') and only ever separates elements by exiling
them into permanent singletons, so S is given by negative information
alone.  Column e is two integers (:class:`ColumnState`): an optional extra
witness and a pointer ``next_free``.  Its witness set Y_e is the initial
segment plus the extra, and its exiles are the x strictly between the
segment and ``next_free`` other than the extra.  So the class of <e,0>
restricted to [0, max Y_e] is {<e,0>} union {<e,x> : x in Y_e}, its limit
size is |Y_e| + 1, and that size is steered against the class sizes
realized by the e-th member of a ceer family.

When the family member exhibits a never-before-seen oldest class of the
target size, the witness set is churned the next time the stage schedule
focuses on that column.  Stage s focuses column e for
``(e, n) = cantor_unpair(s)``: column e on each diagonal w >= max(e, 1), at
stage w(w+1)/2 + e.  A focus reads and writes its own column and its own
member only, so the construction is E independent column runs
(:func:`_run_column`).  Each focus latches (:func:`_latch`) from the
member's events since the column's previous focus, and its dispatch reads
the latch, so no latch outlives the focus that takes it.

Column e has the target size k_e = 2e+2 and the initial witnesses
{1, ..., k_e - 1}, so its witness class sizes are {k_e, k_e + 1}, unique
across columns and disjoint from the size-1 exile classes.

A run records only the focuses it steps.  :func:`run_coceer` runs each
column for a stage budget and merges their records by stage.  A stage
whose focus lies beyond the last column changes nothing, so it is never
visited.  A column is stepped by :func:`_dispatch`, one record per focus,
until it has *settled*, when every later focus of it is known to take one
case; its focused stages up to the budget are then applied in closed form
(:func:`_advance_settled`), and the trace keeps one tail for the column in
place of their records.  A settled column costs O(1), so a run and its
trace cost O(focused stages before settling + E) whatever the budget.
A settle rule proves that the column's witness set has reached its
limit, so a column is certified exactly when it has settled
(:func:`verify_requirement`).  There are two settle rules:

- **Case 4 after quiescence.**  A focus at a stage s > T that takes case
  4, for T the member's quiescence stage (:func:`_quiescence_stage`), is
  followed by case 4 at every later focus (proved in
  :func:`verify_requirement`).  Each exiles the next_free and moves only
  ``next_free``.
- **Case-3 steadiness.**  Let column e follow a churn generator of target
  k and spacing d.  After a focus on diagonal w (the stage w(w+1)/2 + e)
  with w + 1 >= 2d, every later focus takes case 3.  Proof: the next focus
  is w + 1 stages later, on diagonal w + 1, so the interval between the
  two holds w + 1 >= 2d consecutive positive stages, and one of them is a
  formation stage 1 + 2d*r.  The next focus latches over that interval,
  so by :func:`_churn_latches` it takes case 3.  It lies on diagonal
  w + 1, which meets the condition again, so by induction every later
  focus takes case 3.  Each exiles the extra that the focus before it
  left, so every extra is exiled, and the limit witness set is the
  initial segment.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator, limit_has_class_of_size
from .core import Record, cantor_unpair, check_format, is_nat
from .errors import InputError


class ColumnState(Record):
    """Per-column bookkeeping for one requirement.

    The witnesses are the initial segment {1, ..., base} plus ``extra``
    when it is set; the exiles are every x with base < x < next_free other
    than ``extra``.  Initially there is no extra and next_free = base + 1.
    With v = next_free, :func:`_dispatch` sets (extra, next_free) to
    (v, v + 2) in case 1, (None, next_free) in case 2, (v, v + 1) in case 3
    and (extra, v + 1) in case 4.  The column invariants hold by this
    representation:

    - extra is None or base < extra < next_free: true initially, and a case
      that sets extra to v raises next_free above v.  So the witness count
      is base or base + 1, and no witness is exiled, as the segment lies
      below the exile range and the extra is cut out of it.
    - The initial witnesses are kept: no case touches the segment.
    - The exiles are (base, next_free) - {extra} by definition, and they
      are permanent: next_free never falls, the range gains no exile but
      those listed (v + 1 in case 1, v in case 4; a new extra v is cut
      out), and a dropped or replaced extra stays in the range, so it
      becomes an exile (cases 2 and 3).  The record lists exactly these.
    - Settled-region identity: for 0 <= x <= max(Y), x is unexiled iff x = 0
      or x is a witness, since an x with base < x <= max(Y) lies in the
      exile range below the extra or is the extra.  Every x with
      max(Y) < x < next_free is exiled, so next_free is the least unexiled
      element above the witnesses: the next recruit.
    """

    __slots__ = ("k", "next_free", "extra", "tail")
    __hash__ = None

    def __init__(self, k: int, next_free: int, extra: Optional[int] = None,
                 tail: Optional[tuple[int, int]] = None):
        self.k = k                  # target class size
        self.next_free, self.extra = next_free, extra
        self.tail = tail            # (w, case) once settled after diagonal w: certified

    @property
    def base(self) -> int:
        """The initial witness segment is {1, ..., base}."""
        return self.k - 1

    @property
    def witnesses(self) -> tuple[int, ...]:
        """The witness set, sorted: the initial segment, then the extra."""
        initial = tuple(range(1, self.k))
        return initial if self.extra is None else initial + (self.extra,)


class StageRecord(Record):
    """One stepped focus: its case, the column's extra after it and its exile."""

    __slots__ = ("stage", "e", "case", "extra", "exiled")

    def __init__(self, stage: int, e: int, case: int, extra: Optional[int],
                 exiled: tuple[tuple[int, int], ...]):
        self.stage, self.e, self.case = stage, e, case   # case 1..4
        self.extra, self.exiled = extra, exiled


class CoceerTrace(Record):
    """One record per stepped focus in 1..stages, in stage order, and one
    tail (e, w, case) per settled column: its focuses after diagonal w take
    ``case`` (3 or 4) in closed form.  A record's extra and exile follow
    from the cases of its column's records up to it, so a trace file keeps
    only the cases (:func:`trace_from_json`)."""

    __slots__ = ("columns", "stages", "records", "tails")

    def __init__(self, columns: int, stages: int, records: tuple[StageRecord, ...],
                 tails: tuple[tuple[int, int, int], ...]):
        self.columns, self.stages, self.records, self.tails = columns, stages, records, tails


class RequirementReport(Record):
    __slots__ = ("e", "k", "kind", "witness_class_size", "r_e_has_size_k", "satisfied",
                 "certified", "y_limit")

    def __init__(self, e: int, k: int, kind: str, witness_class_size: int, r_e_has_size_k: bool,
                 satisfied: bool, certified: bool, y_limit: tuple[int, ...]):
        self.e, self.k, self.kind = e, k, kind      # kind "script" or "churn"
        self.witness_class_size, self.r_e_has_size_k = witness_class_size, r_e_has_size_k
        self.satisfied, self.certified, self.y_limit = satisfied, certified, y_limit


def _dispatch(col: ColumnState, has_k: bool, latched: bool) -> tuple[int, Optional[int]]:
    """Run a focused stage on column ``col`` (cases as in :class:`ColumnState`);
    case 3 is taken exactly when the focus ``latched``.

    Returns the case and the element x of the one exile <e, x> it made,
    or None when it made none (case 3 without an extra).
    """
    u, v = col.extra, col.next_free
    if latched:
        case, exiled = 3, u
        col.extra, col.next_free = v, v + 1
    elif u is None and has_k:
        case, exiled = 1, v + 1
        col.extra, col.next_free = v, v + 2
    elif u is not None and not has_k:
        case, exiled = 2, u
        col.extra = None
    else:
        case, exiled = 4, v
        col.next_free = v + 1
    return case, exiled


def _run_column(col: ColumnState, e: int, member: CeerScript | ChurnGenerator,
                budget: int) -> list[StageRecord]:
    """Run column e through stage ``budget``; returns the records of the
    focuses it stepped.  ``col.tail`` is set if the column settled.

    Stage 0 is seeded first: the stage-0 approximations enter the
    oldest-class history but latch nothing, since a class present from the
    start is not a mind change.  Column e is focused on every diagonal
    w >= max(e, 1), at stage w(w+1)/2 + e.  Each focus latches over the
    stages since the previous one, then dispatches.  The column stops being
    stepped once a settle rule (module docstring) applies after the focus
    on diagonal w, and its remaining focuses are applied in closed form
    (:func:`_advance_settled`).
    """
    runner = CeerRunner(member)
    runner.advance_to(0)
    first = runner.oldest_class_min(col.k)
    seen = set() if first is None else {first}   # oldest size-k minima (scripts)
    quiet = _quiescence_stage(member, col.k)

    kept: list[StageRecord] = []
    last, w = 0, max(e, 1)
    while (s := w * (w + 1) // 2 + e) <= budget:
        latched = _latch(col.k, runner, seen, last, s)
        runner.advance_to(s)
        case, exiled = _dispatch(col, runner.has_class_of_size(col.k), latched)
        last = s
        kept.append(StageRecord(s, e, case, col.extra, () if exiled is None else ((e, exiled),)))
        if quiet is None and w + 1 >= 2 * member.block_spacing:
            settled = 3   # a churn of target k
        elif quiet is not None and case == 4 and s > quiet:
            settled = 4
        else:
            w += 1
            continue
        _advance_settled(col, e, w, settled, budget)
        break
    return kept


def _latch(k: int, runner: CeerRunner, seen: set[int], last: int, stage: int) -> bool:
    """Whether a never-seen oldest size-k class of the runner's member
    appeared in (last, stage].

    A script's oldest size-k class changes only at its event stages, so
    those are replayed one at a time, and each minimum not in ``seen`` is
    latched and added to it.  A churn member is answered by
    :func:`_churn_latches` without replay.
    """
    member = runner.member
    if isinstance(member, ChurnGenerator):
        return _churn_latches(member, k, last, stage)
    latched = False
    while (t := runner.next_event_stage) is not None and t <= stage:
        runner.advance_to(t)
        m = runner.oldest_class_min(k)
        if m is not None and m not in seen:
            latched = True
            seen.add(m)
    return latched


def _advance_settled(col: ColumnState, e: int, w: int, case: int, budget: int) -> None:
    """Apply column e's focuses after diagonal w through ``budget`` in closed
    form, each taking ``case``, and set the column's tail to (w, case),
    which certifies it.

    The last focus by ``budget`` lies on the largest diagonal W with
    W(W+1)/2 + e <= budget, which is the diagonal of stage budget - e (the
    sum of its Cantor pair), so m = W - w focuses remain.  Each adds one to
    ``next_free``.  A case-4 focus exiles the next_free and keeps the
    extra; a case-3 focus recruits the next_free and exiles the old extra,
    so after m of them the extra is one below ``next_free``.
    """
    m = sum(cantor_unpair(budget - e)) - w
    col.next_free += m
    col.tail = (w, case)
    if case == 3 and m:
        col.extra = col.next_free - 1


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


def run_coceer(fam: CeerFamily, E: int,
               stage_budget: int) -> tuple[list[ColumnState], CoceerTrace]:
    """Run columns 0..E-1 through stage ``stage_budget``; returns the
    columns and the trace.

    Each column runs on its own (:func:`_run_column`), and the trace holds
    the records of the focuses stepped and one tail per settled column.
    The column invariants (witness count, protected elements,
    settled-region identity) hold by the representation of
    :class:`ColumnState`, so no stage checks them.
    """
    if stage_budget < 1:
        raise InputError("stage budget must be at least 1")
    if E > len(fam.members):
        raise InputError("family has fewer members than requested columns")
    if E < 1:
        raise InputError("need at least one column")
    columns = [ColumnState(k=2 * e + 2, next_free=2 * e + 2) for e in range(E)]
    # the focused stages are distinct
    kept = sorted((r for e, col in enumerate(columns)
                   for r in _run_column(col, e, fam.member(e), stage_budget)),
                  key=attrgetter("stage"))
    tails = tuple((e, *col.tail) for e, col in enumerate(columns) if col.tail is not None)
    return columns, CoceerTrace(E, stage_budget, tuple(kept), tails)


def _quiescence_stage(member: CeerScript | ChurnGenerator, k: int) -> Optional[int]:
    """A stage T after which, for target size k, ``has_k`` is constant and no
    focus latches; None for a churn generator of target k, which has none.

    A script's classes are fixed after its last event.  For a churn
    generator of target k' != k, only the class of 0 can have size k, of
    size A*k' + 1, so only while A = r = (k-1)/k' (see
    :func:`_churn_latches`); A never falls, and by :meth:`ChurnGenerator.rounds`
    with spacing d the last stage with A = r is d*(2r + 1).  When k' does
    not divide k - 1 no stage has a size-k class, and T = 0.
    """
    if isinstance(member, CeerScript):
        return member.last_event_stage
    if member.target_size == k:
        return None
    r, rest = divmod(k - 1, member.target_size)
    return member.block_spacing * (2 * r + 1) if rest == 0 else 0


def verify_requirement(columns: list[ColumnState], fam: CeerFamily, e: int) -> RequirementReport:
    """Check one requirement against the family's exact limit behavior.

    A column is certified exactly when it has settled, that is, has a tail,
    and its settle rule (module docstring) gives the limit witness set:

    - **Case-4 tail.**  The member has a quiescence stage T
      (:func:`_quiescence_stage`: every script, and a churn generator whose
      target is not k), and the column settled at the first focused stage
      L > T that fell through to the padding case 4.  No stage after L
      changes the witnesses, so the limit is the run's final witness set:

      - After T no size-k oldest class appears that was not seen before, so
        no focus after L latches, and none takes case 3.
      - Case 4 at L means (baseline and not has_k) or (not baseline and
        has_k), where baseline says there is no extra witness.  After T,
        has_k is the same at every stage; case 4 changes no witness, so
        baseline is the same too.  With no latch, every later focused
        stage of the column is case 4 again.

    - **Case-3 tail.**  A churn generator of target k keeps the witness set
      cycling by design; by the case-3 steadiness lemma its limit is the
      initial segment {1, ..., k - 1}.

    ``r_e_has_size_k`` comes from a fresh replay of the member
    (:func:`limit_has_class_of_size`, one union-find pass with no runner),
    not from the run's runner.  After the quiescence stage the run's own
    ``has_k`` decided case 4 against the extra, so reading the limit from
    the run would make ``satisfied`` true by construction for every
    certified column, and the check would test nothing.  The replay is the
    price of an independent check (about a sixth of an in-process
    ``coceer --verify`` call on the 26-column suite).
    """
    if not 0 <= e < len(columns):
        raise InputError(f"column {e} out of range")
    col = columns[e]
    member = fam.member(e)
    r_has = limit_has_class_of_size(member, col.k)
    certified = col.tail is not None
    y_limit = col.witnesses[:col.base] if certified and col.tail[1] == 3 else col.witnesses
    witness_class_size = len(y_limit) + 1
    satisfied = (witness_class_size == col.k) == (not r_has)
    return RequirementReport(
        e=e,
        k=col.k,
        kind="script" if isinstance(member, CeerScript) else "churn",
        witness_class_size=witness_class_size,
        r_e_has_size_k=r_has,
        satisfied=satisfied,
        certified=certified,
        y_limit=y_limit,
    )


def report_to_json(report: RequirementReport) -> dict:
    return {**{f: getattr(report, f) for f in report._fields}, "y_limit": list(report.y_limit)}


def trace_to_json(trace: CoceerTrace) -> dict:
    """Format 5: each column's stepped cases and its tail case; every other
    stage is a skip, and :func:`trace_from_json` replays the rest."""
    cases, tails = [[] for _ in range(trace.columns)], [None] * trace.columns
    for r in trace.records:
        cases[r.e].append(r.case)
    for e, _, case in trace.tails:
        tails[e] = case
    return {"format": 5, "stages": trace.stages, "cases": cases, "tails": tails}


def trace_from_json(obj: object) -> CoceerTrace:
    """Load a format-5 trace: one case list and one tail (null, 3 or 4) per
    column.  Column e's list holds the cases of its stepped focuses on the
    diagonals max(e, 1), max(e, 1) + 1, ..., so a tail stands for the
    focuses after the last of them.  Each column is replayed through
    :func:`_dispatch` with latched = (case 3) and has_k = (case 1, or case 4
    with an extra), which rebuilds its records; each case must be the one
    :func:`_dispatch` takes and lie within ``stages``, an untailed column
    must list every focused stage up to ``stages``, and a tail must follow
    at least one case."""
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-5 object")
    check_format(obj, versions=(5,))
    stages, cases, tails = obj.get("stages"), obj.get("cases"), obj.get("tails")
    if not (is_nat(stages) and isinstance(cases, list) and isinstance(tails, list)
            and len(cases) == len(tails) >= 1):
        raise InputError("trace 'stages' must be a natural, and 'cases' and 'tails' arrays "
                         "with one entry for each of at least one column")
    records, settled = [], []
    for e, (mine, tail) in enumerate(zip(cases, tails)):
        if not (isinstance(mine, list) and (tail is None or is_nat(tail) and tail in (3, 4))):
            raise InputError(f"trace column {e}: its cases must be an array and its tail "
                             "null, 3 or 4")
        col, w = ColumnState(2 * e + 2, 2 * e + 2), max(e, 1)
        for case in mine:
            s = w * (w + 1) // 2 + e
            took, x = _dispatch(col, case == 1 or case == 4 and col.extra is not None, case == 3)
            if not (is_nat(case) and took == case and s <= stages):
                raise InputError(f"trace column {e}: case {case!r} at stage {s} is not the "
                                 "case its earlier cases leave, or lies past 'stages'")
            records.append(StageRecord(s, e, case, col.extra, () if x is None else ((e, x),)))
            w += 1
        if tail is not None and mine:
            settled.append((e, w - 1, tail))
        elif tail is not None or w * (w + 1) // 2 + e <= stages:
            raise InputError(f"trace column {e}: a tail must follow a case, and an untailed "
                             f"column list a case for each focused stage up to {stages}")
    records.sort(key=attrgetter("stage"))
    return CoceerTrace(len(cases), stages, tuple(records), tuple(settled))

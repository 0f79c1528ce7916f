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
(:func:`_run_column`).  Each focus latches from the member's events
since the column's previous focus, and its dispatch reads the latch, so
no latch outlives the focus that takes it.  A script column reads both
from its size-k timeline (:func:`_script_timeline`), built in one pass,
or empty when the script mentions fewer than k elements.

Column e has the target size k_e = 2e+2 and the initial witnesses
{1, ..., k_e - 1}, so its witness class sizes are {k_e, k_e + 1}, unique
across columns and disjoint from the size-1 exile classes.

A run keeps the case of each focus it steps.  :func:`run_coceer` runs
each column for a stage budget; a stage whose focus lies beyond the last
column changes nothing, so it is never visited.  A column is stepped by
:func:`_dispatch` until it has *settled*, when every later focus of it is
known to take one case; its focused stages up to the budget are then
applied in closed form (:func:`_advance_settled`), and the trace keeps
that case as the column's tail.  A settled column costs O(1), so a run
and its trace cost O(focused stages before settling + E) whatever the
budget.
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
from typing import Optional, Sequence

from .ceersim import CeerFamily, CeerScript, ChurnGenerator, limit_has_class_of_size
from .core import Record, cantor_unpair, check_format, is_nat
from .eqrel import Partition
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
                 tail: Optional[int] = None):
        self.k = k                  # target class size
        self.next_free, self.extra = next_free, extra
        self.tail = tail            # the case (3 or 4) of every focus once settled: certified

    @property
    def base(self) -> int:
        """The initial witness segment is {1, ..., base}."""
        return self.k - 1


class StageRecord(Record):
    """One stepped focus: its case, the column's extra after it and its exile."""

    __slots__ = ("stage", "e", "case", "extra", "exiled")

    def __init__(self, stage: int, e: int, case: int, extra: Optional[int],
                 exiled: tuple[tuple[int, int], ...]):
        self.stage, self.e, self.case = stage, e, case   # case 1..4
        self.extra, self.exiled = extra, exiled


class CoceerTrace(Record):
    """A run through ``stages`` as its trace file holds it: ``cases[e]``
    holds the cases of column e's stepped focuses, on the diagonals
    max(e, 1), max(e, 1) + 1, ..., and ``tails[e]`` is None or the case
    (3 or 4) of every later focus.  ``records`` replays them on first read
    (:func:`_replay`), one :class:`StageRecord` per focus in stage order."""

    __slots__ = ("stages", "cases", "tails", "_records")
    _fields = __slots__[:-1]

    def __init__(self, stages: int, cases: tuple[tuple[int, ...], ...],
                 tails: tuple[Optional[int], ...]):
        self.stages, self.cases, self.tails = stages, cases, tails
        self._records: Optional[tuple[StageRecord, ...]] = None

    @property
    def records(self) -> tuple[StageRecord, ...]:
        if self._records is None:
            self._records = tuple(sorted(
                (r for e, mine in enumerate(self.cases) for r in _replay(e, mine)),
                key=attrgetter("stage")))
        return self._records


class RequirementReport(Record):
    """One requirement's verdict.  The limit witness set Y_limit is the
    initial segment {1, ..., k - 1} plus ``extra`` when it is not None."""

    __slots__ = ("e", "k", "kind", "witness_class_size", "r_e_has_size_k", "satisfied",
                 "certified", "extra")

    def __init__(self, e: int, k: int, kind: str, witness_class_size: int, r_e_has_size_k: bool,
                 satisfied: bool, certified: bool, extra: Optional[int]):
        self.e, self.k, self.kind = e, k, kind      # kind "script" or "churn"
        self.witness_class_size, self.r_e_has_size_k = witness_class_size, r_e_has_size_k
        self.satisfied, self.certified, self.extra = satisfied, certified, extra


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
                budget: int) -> tuple[int, ...]:
    """Run column e through stage ``budget``; returns the cases of the
    focuses it stepped.  ``col.tail`` is set if the column settled.

    Column e is focused on every diagonal w >= max(e, 1), at stage
    w(w+1)/2 + e.  A focus at s latches when an event stage in (last, s] of
    the script's timeline (:func:`_script_timeline`, merged from the slot
    pairs the script was read with and walked by one cursor) latched, or by
    :func:`_churn_latches`, and dispatches on ``has_k`` at s.
    The column stops being stepped once a settle rule (module docstring)
    applies after the focus on diagonal w, and its remaining focuses are
    applied in closed form (:func:`_advance_settled`).

    A script that mentions fewer than k elements reads an empty timeline,
    with no pass.  Proof: an element no event mentions is never merged, so
    it stays a singleton, and a class of two or more elements holds only
    mentioned ones; with k >= 2 no stage has a class of size k.  So the
    full timeline latches nowhere and has ``has_k`` false at every event
    stage, and a focus reads the same from an empty one.  The quiescence
    stage is kept, so such a column settles where the full timeline would
    settle it.
    """
    k = col.k
    timeline = None
    if isinstance(member, CeerScript):
        timeline = _script_timeline(member, k) if len(member.elements) >= k else []
    quiet = _quiescence_stage(member, k)

    cases: list[int] = []
    i, has_k, last, w = 0, False, 0, max(e, 1)
    while (s := w * (w + 1) // 2 + e) <= budget:
        if timeline is None:
            latched = _churn_latches(member, k, last, s)
            has_k = any(len(c) == k for c in member.classes_after(s))
        else:
            latched = False
            while i < len(timeline) and timeline[i][0] <= s:
                _, fresh, has_k = timeline[i]
                latched = latched or fresh
                i += 1
        cases.append(case := _dispatch(col, has_k, latched)[0])
        last = s
        if quiet is None and w + 1 >= 2 * member.block_spacing:
            settled = 3   # a churn of target k
        elif quiet is not None and case == 4 and s > quiet:
            settled = 4
        else:
            w += 1
            continue
        _advance_settled(col, e, w, settled, budget)
        break
    return tuple(cases)


def _script_timeline(script: CeerScript, k: int) -> list[tuple[int, bool, bool]]:
    """(t, latched, has_k) at each event stage t of a script, in order, for
    target size k >= 2: whether t latches, and whether a size-k class
    exists after it.

    One pass merges the script's slot pairs (:attr:`CeerScript.pairs`,
    numbered by first mention when the script was read) into a
    :class:`Partition`, keeping each root's least element and the size-k
    class minima.  t latches when its oldest size-k minimum was not seen
    at an earlier event stage; stage 0 only seeds that history, as a
    class present from the start is not a mind change.
    """
    pairs = script.pairs
    least = list(script.elements)   # root slot -> least element of its class
    uf = Partition(len(least))
    merge, size = uf.merge, uf.size
    minima, seen, timeline = set(), {None}, []   # size-k minima; oldest ones (None: no class)
    for i, (t, x, y) in enumerate(pairs, 1):
        if (joined := merge(x, y)) is not None:
            r, b = joined   # a class's minimum is no other class's
            minima.discard(least[r])
            minima.discard(least[b])
            least[r] = a = min(least[r], least[b])
            if size[r] == k:
                minima.add(a)
        if i < len(pairs) and pairs[i][0] == t:
            continue   # the stage's later events
        m = min(minima) if minima else None
        timeline.append((t, t > 0 and m not in seen, m is not None))
        seen.add(m)
    return timeline


def _advance_settled(col: ColumnState, e: int, w: int, case: int, budget: int) -> None:
    """Apply column e's focuses after diagonal w through ``budget`` in closed
    form, each taking ``case``, and set the column's tail to ``case``, which
    certifies it; w is the diagonal of the column's last stepped focus.

    The last focus by ``budget`` lies on the largest diagonal W with
    W(W+1)/2 + e <= budget, which is the diagonal of stage budget - e (the
    sum of its Cantor pair), so m = W - w focuses remain.  Each adds one to
    ``next_free``.  A case-4 focus exiles the next_free and keeps the
    extra; a case-3 focus recruits the next_free and exiles the old extra,
    so after m of them the extra is one below ``next_free``.
    """
    m = sum(cantor_unpair(budget - e)) - w
    col.next_free += m
    col.tail = case
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
    the cases of the focuses each stepped and its tail.
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
    cases = tuple(_run_column(col, e, fam.member(e), stage_budget)
                  for e, col in enumerate(columns))
    return columns, CoceerTrace(stage_budget, cases, tuple(col.tail for col in columns))


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

    The report gives the limit witness set by its extra (the run's final
    extra, or None after a case-3 tail), so it costs O(1) whatever k.

    ``r_e_has_size_k`` comes from a fresh replay of the member
    (:func:`limit_has_class_of_size`), not from the run: after the
    quiescence stage the run's own ``has_k`` decided case 4 against the
    extra, so reading the limit from the run would make ``satisfied`` true
    by construction for every certified column, and the check would test
    nothing.
    """
    if not 0 <= e < len(columns):
        raise InputError(f"column {e} out of range")
    col = columns[e]
    member = fam.member(e)
    r_has = limit_has_class_of_size(member, col.k)
    certified = col.tail is not None
    extra = None if col.tail == 3 else col.extra
    witness_class_size = col.k if extra is None else col.k + 1   # |Y_limit| + 1
    satisfied = (witness_class_size == col.k) == (not r_has)
    return RequirementReport(
        e=e,
        k=col.k,
        kind="script" if isinstance(member, CeerScript) else "churn",
        witness_class_size=witness_class_size,
        r_e_has_size_k=r_has,
        satisfied=satisfied,
        certified=certified,
        extra=extra,
    )


def report_to_json(report: RequirementReport) -> dict:
    return {f: getattr(report, f) for f in report._fields}


def _replay(e: int, cases: Sequence[int]) -> list[StageRecord]:
    """Column e's records, rebuilt by running each case through
    :func:`_dispatch` with latched = (case 3) and has_k = (case 1, or case
    4 with an extra); :class:`InputError` if it takes another case."""
    col, records = ColumnState(2 * e + 2, 2 * e + 2), []
    for w, case in enumerate(cases, max(e, 1)):
        took, x = _dispatch(col, case == 1 or case == 4 and col.extra is not None, case == 3)
        s = w * (w + 1) // 2 + e
        if not (is_nat(case) and took == case):
            raise InputError(f"trace column {e}: case {case!r} at stage {s} is not {took}")
        records.append(StageRecord(s, e, case, col.extra, () if x is None else ((e, x),)))
    return records


def trace_to_json(trace: CoceerTrace) -> dict:
    """Format 5: the trace's own fields; every other stage is a skip."""
    return {"format": 5, **{f: getattr(trace, f) for f in trace._fields}}


def trace_from_json(obj: object) -> CoceerTrace:
    """Load a format-5 trace, the fields of :class:`CoceerTrace`.  Each
    column's cases must replay (:func:`_replay`) and lie within ``stages``,
    a tail (null, 3 or 4) must follow a case, and an untailed column must
    list every focused stage up to ``stages``."""
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-5 object")
    check_format(obj, versions=(5,))
    stages, cases, tails = obj.get("stages"), obj.get("cases"), obj.get("tails")
    if not (is_nat(stages) and isinstance(cases, (list, tuple))
            and isinstance(tails, (list, tuple)) and len(cases) == len(tails) >= 1):
        raise InputError("trace 'stages' must be a natural, and 'cases' and 'tails' arrays "
                         "with one entry for each of at least one column")
    for e, (mine, tail) in enumerate(zip(cases, tails)):
        if not (isinstance(mine, (list, tuple))
                and (tail is None or is_nat(tail) and tail in (3, 4))):
            raise InputError(f"trace column {e}: its cases must be an array and its tail "
                             "null, 3 or 4")
        _replay(e, mine)
        w = max(e, 1) + len(mine)   # the first diagonal not listed
        if mine and (w - 1) * w // 2 + e > stages or (
                not mine if tail is not None else w * (w + 1) // 2 + e <= stages):
            raise InputError(f"trace column {e}: its cases must lie within stage {stages}, a "
                             "tail follow a case, and an untailed column list every focus")
    return CoceerTrace(stages, tuple(map(tuple, cases)), tuple(tails))

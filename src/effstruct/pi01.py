"""Co-enumerable equivalence relation realizing prescribed liminf class sizes.

Driven by a table g with g(k, s) >= 1, the construction maintains a
finite active set of elements and a labeling onto {0, ..., s-1}: at stage
s+1 a founder opens label s, then every older label k is topped up with
fresh elements or stripped of its greatest members so that exactly
g(k, s+1) elements carry label k.  Elements with distinct labels are
permanently separated (negative information only), removed elements are
parked and recycled as future founders, and the number of elements whose
label eventually settles on k is exactly liminf_s g(k, s).

A run keeps each element's history of labels and removals, and each
label's members as a stack; the stage at which a member took its label is
its last history entry, and the verifier reads only those label stages.

A run steps only to its settle stage and takes each label's stages at the
budget S from the shift rule, so its histories cover the stepped stages
only.  Label k's stack changes only by top-ups (pushes of stage t, at stage
t) and strips (pops), and from stage k+2 on it holds g(k, t) entries after
stage t.  Let (plen, perlen) be column k's shape, m = liminf_k,
A = max(plen, k + 2) and base = A + perlen.

* Shift rule.  For S >= base and S' = base + (S - base) mod perlen,
  label k's stages ``since_S[k]`` at S are ``since_S'[k][:m]`` followed
  by every entry of ``since_S'[k][m:]`` plus S - S'.  Proof: from stage
  A on every stage is stepped and g(k, .) is periodic, so each period of
  stages from A on holds a dip to m and no goal below it.  The bottom m
  entries are therefore fixed from the first dip at or after A, before
  base.  Let d be the last dip at or before S; d > S - perlen >= A, so
  the stack holds just the bottom m after stage d, and the entries above
  them are a function of the goals at the stages in (d, S] that shifts
  with them.  S' >= base has the same residue, so its last dip is
  d - (S - S') and its goals in (d - (S - S'), S'] are those of (d, S].
* Labels at or past the width hold only the founder, taken at stage
  k + 1 (see :func:`pi01_step`), so a run stores the stages of the labels
  below min(width, S) only.

The run steps to min(S, settle), where :func:`settle_stage` is the
greatest base + perlen - 1 over the labels below the width: it bounds
every S' and does not depend on S.  Past it the two guarantees of
:func:`pi01_step` hold by their proofs, which no stepped check adds to.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Optional, Sequence

from .core import (
    Record, UPSeq, check_format, is_nat, upseq_eval, upseq_from_json, upseq_to_json,
)
from .errors import ConstructionBugError, HorizonError, InputError


class GTable(Record):
    """Class-size approximation table; all values >= 1.

    Column k is consulted from stage k+2 onward.  Columns beyond the
    declared width default to the constant sequence 1, so the
    construction is total for any stage budget.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[UPSeq]):
        self.columns = tuple(columns)
        for k, col in enumerate(self.columns):
            if not isinstance(col, UPSeq):
                raise InputError("table columns must be UPSeq values")
            if any(v < 1 for v in col.prefix + col.period):
                raise InputError(f"column {k} takes a value below 1")

    @property
    def width(self) -> int:
        return len(self.columns)

    def g(self, k: int, s: int) -> int:
        if k < 0:
            raise InputError("label index must be nonnegative")
        if k >= self.width:
            return 1
        return upseq_eval(self.columns[k], s)

    def liminf(self, k: int) -> int:
        if k < 0:
            raise InputError("label index must be nonnegative")
        if k >= self.width:
            return 1
        return min(self.columns[k].period)

    def column_shape(self, k: int) -> tuple[int, int]:
        """(prefix length, period length), with defaults past the width."""
        if k >= self.width:
            return 0, 1
        col = self.columns[k]
        return len(col.prefix), len(col.period)


class LabelState(Record):
    """The live labeling and the history of every element.

    ``history[x]`` is element x's tuple of ``(stage, label or None)``
    entries, one to three: the label it took, then None when it was
    stripped, then the label it founded when recycled.  Elements are
    0, 1, 2, ... in the order they are created, so ``len(history)`` is the
    next fresh element.  Tuples rebuilt on each transition take less memory
    than lists, and a run hands them to its trace as they are.

    ``members[k]`` is label k's stack: the elements holding k in the order
    they took it.  A label opens with its founder, a recycled or fresh
    element, and every later member is fresh, so each stack is strictly
    increasing with the founder at index 0, and a strip removes the top of
    the stack.  A member's last history entry is the label it holds and
    the stage it took it (:func:`label_stages`).

    ``removed_pending`` is a ``heapq`` min-heap of the parked elements.  A
    parked element's history is exactly ``(t, k), (r, None)``, so a
    recycled founder reads the label it left from its first entry.
    """

    __slots__ = ("members", "removed_pending", "stage", "history")
    __hash__ = None

    def __init__(self):
        self.members: list[list[int]] = []
        self.removed_pending: list[int] = []
        self.stage = 0
        self.history: list[tuple[tuple[int, Optional[int]], ...]] = []


def label_stages(st: LabelState, k: int) -> list[int]:
    """The stages at which label k's members took it, in stack order; they
    do not decrease."""
    return [st.history[x][-1][0] for x in st.members[k]]


def pi01_step(st: LabelState, g: GTable) -> LabelState:
    """Advance the construction by one stage (in place).

    Only labels k < min(s, g.width) are stepped.  A label k >= g.width is
    a no-op at every stage: g(k, .) is the constant 1 there.  Stage k+1
    opens label k with its founder alone, and only the loop body for k
    ever adds to or strips label k.  By induction, at each later stage
    the count 1 equals the goal 1, so that body would add no element,
    strip none and pass its count check.

    Two guarantees on element histories are checked at every stepped
    stage, and hold at every stage by these proofs:

    * No element is removed twice.  A strip of label k keeps the bottom
      g(k, s+1) >= 1 entries of its stack, so it never reaches the founder
      at index 0.  A parked element comes back only as a founder, so once
      recycled it is never removed again.  The raise guards g >= 1.
    * A recycled founder of label s had a label below s.  It was parked at
      some stage t <= s (founders are taken before this stage's strips) by
      a strip of a label k < t - 1 <= s - 1, the labels stepped at stage t.
    """
    s = st.stage
    stage = s + 1
    history = st.history
    # founder: recycle the least parked element, else the least fresh one
    if st.removed_pending:
        w = heapq.heappop(st.removed_pending)
        old = history[w][0][1]
        if old >= s:
            raise ConstructionBugError(f"element {w} left label {old} to found label {s}")
        history[w] += ((stage, s),)
    else:
        w = len(history)
        history.append(((stage, s),))
    st.members.append([w])
    for k in range(min(s, g.width)):
        members = st.members[k]
        delta = len(members)
        goal = g.g(k, stage)
        if goal > delta:
            members.extend(range(len(history), len(history) + goal - delta))
            history.extend([((stage, k),)] * (goal - delta))
        elif goal < delta:
            if goal < 1:
                raise ConstructionBugError(f"label {k}: a strip to {goal} removes its founder")
            for z in members[goal:]:
                heapq.heappush(st.removed_pending, z)
                history[z] += ((stage, None),)
            del members[goal:]
        if len(members) != goal:
            raise ConstructionBugError(f"label {k}: count {len(members)} != g = {goal}")
    st.stage = stage
    return st


class PiTrace(Record):
    """The end of a run: the stages at which each label's members took it
    (:func:`label_stages`) at ``stages``, for the labels below
    min(width, stages) only, since every later label holds just its
    founder, taken at stage k + 1; and each element's history through
    T = min(stages, settle stage).  Stage s gives label s - 1's founder the
    entry (s, s - 1), so T is the greatest stage in the histories, and the
    window after stage s is the number of histories that start by s."""

    __slots__ = ("stages", "since", "transitions")

    def __init__(self, stages: int, since: tuple[tuple[int, ...], ...],
                 transitions: dict[int, tuple[tuple[int, Optional[int]], ...]]):
        self.stages, self.since, self.transitions = stages, since, transitions


def settle_stage(g: GTable) -> int:
    """The last stage a run steps, whatever its budget: the greatest
    max(plen, k + 2) + 2 * perlen - 1 over the labels k below the width,
    0 with none (module docstring)."""
    worst = 0
    for k in range(g.width):
        plen, perlen = g.column_shape(k)
        worst = max(worst, max(plen, k + 2) + 2 * perlen - 1)
    return worst


def _repeat_stage(g: GTable, k: int, stages: int) -> int:
    """The stage S' whose stack label k repeats at ``stages`` by the shift rule."""
    plen, perlen = g.column_shape(k)
    base = max(plen, k + 2) + perlen
    return stages if stages < base else base + (stages - base) % perlen


def run_pi01(g: GTable, stages: int) -> PiTrace:
    """Run ``stages`` stages: step to T = min(stages, settle_stage(g)),
    keeping the histories of the stepped stages, and read each
    label below the width at its repeat stage, shifted by the shift rule of
    the module docstring."""
    if stages < 1:
        raise InputError("stage count must be at least 1")
    st = LabelState()
    labels = range(min(g.width, stages))
    reads: dict[int, list[int]] = {}
    for k in labels:
        reads.setdefault(_repeat_stage(g, k, stages), []).append(k)
    since: list[tuple[int, ...]] = [()] * len(labels)
    for _ in range(min(stages, settle_stage(g))):
        pi01_step(st, g)
        shift = stages - st.stage
        for k in reads.get(st.stage, ()):
            m, stack = g.liminf(k), label_stages(st, k)
            since[k] = (*stack[:m], *(t + shift for t in stack[m:]))
    return PiTrace(stages, tuple(since), dict(enumerate(st.history)))


class LabelCount(Record):
    __slots__ = ("label", "expected", "observed")

    def __init__(self, label: int, expected: int, observed: int):
        self.label, self.expected, self.observed = label, expected, observed

    @property
    def match(self) -> bool:
        return self.expected == self.observed


def required_stages_for(g: GTable, K: int) -> int:
    """Horizon past which every label up to K is certified stable.

    Every label k >= g.width has the shape (0, 1), worth 3, so only the
    labels below the width are read.
    """
    worst = 3 if K >= g.width else 0
    for k in range(min(K + 1, g.width)):
        plen, perlen = g.column_shape(k)
        worst = max(worst, plen + 3 * perlen)
    return K + 1 + worst


def verify_liminf_counts(trace: PiTrace, g: GTable, K: int) -> tuple[LabelCount, ...]:
    """Compare certified-stable label counts against the exact liminfs,
    one :class:`LabelCount` per label 0..K.

    An element counts for label k if it holds that label throughout the
    final window [start, stages], start = stages - 2 * perlen, of two full
    column periods; by then the column has cycled past its prefix, so the
    window contains a dip to the liminf and survivors can never be removed
    again.

    The count is read off label k's stages at ``stages`` (``trace.since``,
    from :func:`label_stages`): it is the number of members whose label
    stage is at most start, a prefix of the stack since the label stages are
    nondecreasing.  A label the trace stores no stages for holds only its
    founder, taken at stage k + 1.  These are exactly the elements holding k
    throughout the window.  One that holds k at start and has no transition
    in (start, stages] still holds k at the end, so it is in the stack, and
    it took k at or before start.  Conversely, a member of the stack that
    took k at a stage at or before start has had no transition since: its
    next one would be a removal from k, after which it can only come back as
    the founder of a label above k, never as a member of k.
    """
    if K < 0:
        raise InputError("label bound must be nonnegative")
    required = required_stages_for(g, K)
    if trace.stages < required:
        raise HorizonError(
            f"trace has {trace.stages} stages; verifying labels up to {K} "
            f"requires at least {required}",
            required_stages=required,
        )
    entries = []
    for k in range(K + 1):
        _, perlen = g.column_shape(k)
        since = trace.since[k] if k < len(trace.since) else (k + 1,)
        observed = bisect_right(since, trace.stages - 2 * perlen)
        entries.append(LabelCount(label=k, expected=g.liminf(k), observed=observed))
    return tuple(entries)


def gtable_to_json(g: GTable) -> dict:
    return {"format": 1, "columns": [upseq_to_json(c) for c in g.columns]}


def gtable_from_json(obj: object) -> GTable:
    if not isinstance(obj, dict) or not isinstance(obj.get("columns"), list):
        raise InputError("g table must be an object with a 'columns' array")
    check_format(obj, default=1)
    return GTable(tuple(upseq_from_json(c) for c in obj["columns"]))


def trace_to_json(trace: PiTrace) -> dict:
    # the C encoder writes tuples as arrays, so the histories go out as they are
    return {"format": 3, "stages": trace.stages, "transitions": list(trace.transitions.values()),
            "since": trace.since}


def trace_from_json(obj: object) -> PiTrace:
    """Decode a trace; the i-th history is element i's, and its histories
    cover the T <= stages stepped stages, T the greatest stage in them.

    No history starts before the one before it (elements are numbered in
    creation order).  Every history is one to three entries, at strictly
    increasing stages in [1, stages], each label below its stage (stage s
    opens label s - 1); an element whose last entry is a label is a member
    of that label, and the members rebuilt for each label took it in
    increasing order, a founder at stage k + 1 first, so no stage up to T
    is missing.  ``since`` holds at most T stacks of stages: stack k starts
    at k + 1 and does not decrease up to ``stages``.  Every rebuilt label
    past them holds its founder alone, and when T == stages the stacks are
    the rebuilt ones.
    """
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-3 object")
    check_format(obj, versions=(3,))
    stages = obj.get("stages")
    if not is_nat(stages):
        raise InputError("trace 'stages' must be a natural")
    transitions = {}
    try:
        for x, hist in enumerate(obj["transitions"]):
            if not 1 <= len(hist) <= 3:
                raise InputError(f"trace element {x}: each has 1 to 3 history entries")
            entries, at = [], 0
            for s, v in hist:
                if not (is_nat(s) and at < s <= stages and (v is None or is_nat(v) and v < s)):
                    raise InputError(
                        f"trace element {x}: history stages must increase within "
                        f"[1, {stages}], and each label be a natural below its stage"
                    )
                entries.append((s, v))
                at = s
            transitions[x] = tuple(entries)
        since = tuple(map(tuple, obj["since"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    stepped = max((hist[-1][0] for hist in transitions.values()), default=0)
    stacks: list[list[tuple[int, int]]] = [[] for _ in range(stepped)]
    for x, hist in transitions.items():
        s, v = hist[-1]
        if v is not None:
            stacks[v].append((x, s))
    starts = [hist[0][0] for hist in transitions.values()]
    if starts != sorted(starts):
        raise InputError("trace elements must be numbered in creation order")
    if len(since) > stepped:
        raise InputError(f"trace has {len(since)} label stacks for {stepped} stepped stages")
    for k, stack in enumerate(since):
        if not (all(map(is_nat, stack)) and stack[:1] == (k + 1,)
                and all(a <= b for a, b in zip(stack, stack[1:])) and stack[-1] <= stages):
            raise InputError(f"trace label {k}: its stages must start at {k + 1} and not "
                             f"decrease up to {stages}")
    for k, stack in enumerate(stacks):
        if any(a[1] > b[1] for a, b in zip(stack, stack[1:])):
            raise InputError(f"trace label {k}: a greater member took the label earlier")
        rebuilt = tuple(s for _, s in stack)
        if rebuilt[:1] != (k + 1,):
            raise InputError(f"trace label {k}: no founder took it at stage {k + 1}")
        want = (k + 1,) if k >= len(since) else since[k] if stepped == stages else rebuilt
        if rebuilt != want:
            raise InputError(f"trace label {k}: the histories give its stages as {rebuilt}, "
                             f"not {want}")
    return PiTrace(stages, since, transitions)

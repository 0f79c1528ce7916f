"""Co-enumerable equivalence relation realizing prescribed liminf class sizes.

Driven by a table g with g(k, s) >= 1, the construction maintains a
finite active set of elements and a labeling onto {0, ..., s-1}: at stage
s+1 a founder opens label s, then every older label k is topped up with
fresh elements or stripped of its greatest members so that exactly
g(k, s+1) elements carry label k.  Elements with distinct labels are
permanently separated (negative information only), removed elements are
parked and recycled as future founders, and the number of elements whose
label eventually settles on k is exactly liminf_s g(k, s).

A run keeps each element's history of labels and removals up to its
settle stage.  The verifier reads only label stages, the stage at which
each member of a label took it, which it rebuilds from the histories at
the budget S by the shift rule (:func:`verify_liminf_counts`).  Label k's
stack of stages changes only by top-ups (pushes of stage t, at stage t)
and strips (pops), and from stage k+2 on it holds g(k, t) entries after
stage t.  Let (plen, perlen) be column k's shape, m = liminf_k,
A = max(plen, k + 2) and base = A + perlen.

* Shift rule.  For S >= base and S' = base + (S - base) mod perlen,
  label k's stages at S are its first m stages at S' followed by every
  later stage at S' plus S - S'.  Proof: from stage A on every stage is
  stepped and g(k, .) is periodic, so each period of stages from A on
  holds a dip to m and no goal below it.  The bottom m entries are
  therefore fixed from the first dip at or after A, before base.  Let d
  be the last dip at or before S; d > S - perlen >= A, so the stack holds
  just the bottom m after stage d, and the entries above them are a
  function of the goals at the stages in (d, S] that shifts with them.
  S' >= base has the same residue, so its last dip is d - (S - S') and
  its goals in (d - (S - S'), S'] are those of (d, S].
* Labels at or past the width hold only the founder, taken at stage
  k + 1 (see :func:`pi01_step`), so only the labels below min(width, S)
  are read from the histories.

The run steps to min(S, settle), where :func:`settle_stage` is the
greatest base + perlen - 1 over the labels below the width: it bounds
every S' and does not depend on S.  Past it the two guarantees of
:func:`pi01_step` hold by their proofs, which no stepped check adds to.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Optional

from .core import Record, UPTable, check_format, is_nat, table_to_json
from .core import upseq_eval  # noqa: F401  (perfbench patches this name here)
from .errors import ConstructionBugError, HorizonError, InputError


class GTable(UPTable):
    """Class-size approximation table; all values >= 1.

    Column k is consulted from stage k+2 onward.  Columns beyond the
    declared width default to the constant sequence 1, so the
    construction is total for any stage budget.
    """

    __slots__ = ()
    default, noun = 1, "g table"

    def _check(self) -> None:
        for k, col in enumerate(self.columns):
            if any(v < 1 for v in col.prefix + col.period):
                raise InputError(f"column {k} takes a value below 1")


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
    the stage it took it.

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
    """A run of ``stages`` stages, as its trace file holds it: each
    element's history through T = min(stages, settle stage), by element.
    Stage s gives label s - 1's founder the entry (s, s - 1), so T is the
    greatest stage in the histories, and the window after stage s is the
    number of histories that start by s.  The label stacks at ``stages``
    follow by the shift rule (:func:`verify_liminf_counts`)."""

    __slots__ = ("stages", "transitions")

    def __init__(self, stages: int, transitions: dict[int, tuple[tuple[int, Optional[int]], ...]]):
        self.stages, self.transitions = stages, transitions


def settle_stage(g: GTable) -> int:
    """The last stage a run steps, whatever its budget: the greatest
    max(plen, k + 2) + 2 * perlen - 1 over the labels k below the width,
    0 with none (module docstring)."""
    worst = 0
    for k in range(g.width):
        plen, perlen = g.column_shape(k)
        worst = max(worst, max(plen, k + 2) + 2 * perlen - 1)
    return worst


def run_pi01(g: GTable, stages: int) -> PiTrace:
    """Run ``stages`` stages: step to T = min(stages, settle_stage(g)),
    keeping the histories of the stepped stages."""
    if stages < 1:
        raise InputError("stage count must be at least 1")
    st = LabelState()
    for _ in range(min(stages, settle_stage(g))):
        pi01_step(st, g)
    return PiTrace(stages, dict(enumerate(st.history)))


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


def _label_stages(trace: PiTrace, g: GTable, labels: int) -> list[list[int]]:
    """Each label k < ``labels`` <= min(width, S)'s stages at S =
    ``trace.stages``: its stack at the stage S' <= T it repeats by the
    shift rule (module docstring), shifted to S.  Element x holds k after
    S' when its last entry by S' is (t, k): its first entry, if x was not
    stripped by S', or the label it founded when recycled.  Elements are
    numbered in creation order, which is stack order, so one pass builds
    every stack, up to the first history that starts after the greatest S'.
    """
    S, repeat = trace.stages, []
    for k in range(labels):
        plen, perlen = g.column_shape(k)
        base = max(plen, k + 2) + perlen
        repeat.append(S if S < base else base + (S - base) % perlen)
    last = max(repeat, default=0)
    at, stacks = repeat + [0] * last, [[] for _ in repeat]   # S' by label, 0 if not read
    for hist in trace.transitions.values():
        t, k = hist[0]
        if t > last:
            break   # so k < t <= last, and the same for a founded label below
        if t <= at[k] and (len(hist) == 1 or at[k] < hist[1][0]):
            stacks[k].append(t)
        if len(hist) == 3:
            t, k = hist[2]
            if t <= last and t <= at[k]:
                stacks[k].append(t)
    for k, stack in enumerate(stacks):
        stack[g.liminf(k):] = [t + S - repeat[k] for t in stack[g.liminf(k):]]
    return stacks


def verify_liminf_counts(trace: PiTrace, g: GTable, K: int) -> tuple[LabelCount, ...]:
    """Compare certified-stable label counts against the exact liminfs,
    one :class:`LabelCount` per label 0..K.

    An element counts for label k if it holds that label throughout the
    final window [start, stages], start = stages - 2 * perlen, of two full
    column periods; by then the column has cycled past its prefix, so the
    window contains a dip to the liminf and survivors can never be removed
    again.

    The count is the number of label k's stages at ``stages`` that are at
    most start, a prefix of the stack as label stages do not decrease.  A
    run stops stepping at T, so the shift rule is applied here: the stages
    are the stack at a stage S' <= T, shifted (:func:`_label_stages`); a
    label at or past the width holds only its founder, taken at stage
    k + 1.  These are exactly the elements holding k throughout the window.
    One that holds k at start and has no transition in (start, stages]
    still holds k at the end, so it is in the stack, and it took k at or
    before start.  Conversely, a member of the stack that took k at a stage
    at or before start has had no transition since: its next one would be
    a removal from k, after which it can only come back as the founder of a
    label above k, never as a member of k.
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
    S, stacks = trace.stages, _label_stages(trace, g, min(K + 1, g.width))
    stacks += ([k + 1] for k in range(len(stacks), K + 1))   # a founder alone
    return tuple(LabelCount(k, g.liminf(k), bisect_right(stack, S - 2 * g.column_shape(k)[1]))
                 for k, stack in enumerate(stacks))


gtable_to_json = table_to_json   # the name perfbench's workloads call


def trace_to_json(trace: PiTrace) -> dict:
    # the C encoder writes tuples as arrays, so the histories go out as they are
    return {"format": 4, "stages": trace.stages, "transitions": list(trace.transitions.values())}


def trace_from_json(obj: object) -> PiTrace:
    """Decode a format-4 trace; the i-th history is element i's, and its
    histories cover the T <= stages stepped stages, T the greatest stage in
    them.

    No history starts before the one before it (elements are numbered in
    creation order).  Every history is a label, then a removal (None), then
    a label, or a prefix of that, at strictly increasing stages in
    [1, stages], each label below its stage (stage s opens label s - 1); an
    element whose last entry is a label is a member of that label, and the
    members rebuilt for each label took it in increasing order, a founder
    at stage k + 1 first, so no stage up to T is missing.
    """
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-4 object")
    check_format(obj, versions=(4,))
    stages = obj.get("stages")
    if not is_nat(stages):
        raise InputError("trace 'stages' must be a natural")
    transitions, stacks, start = {}, {}, 0
    try:
        for x, hist in enumerate(obj["transitions"]):
            if not 1 <= len(hist) <= 3:
                raise InputError(f"trace element {x}: each has 1 to 3 history entries")
            entries, at = [], 0
            for i, (s, v) in enumerate(hist):
                if not (is_nat(s) and at < s <= stages
                        and (v is None if i == 1 else is_nat(v) and v < s)):
                    raise InputError(f"trace element {x}: history stages must increase within "
                                     f"[1, {stages}], and its entries be a label below its "
                                     "stage, a removal (null) and a label")
                entries.append((s, v))
                at = s
            if entries[0][0] < start:
                raise InputError("trace elements must be numbered in creation order")
            start, transitions[x] = entries[0][0], tuple(entries)
            if v is not None:   # x is a member of label v, which it took at stage s
                stacks.setdefault(v, []).append(s)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    for k in range(max((hist[-1][0] for hist in transitions.values()), default=0)):
        stack = stacks.get(k, [])
        if stack[:1] != [k + 1] or stack != sorted(stack):
            raise InputError(f"trace label {k}: its members must take it in increasing order, "
                             f"a founder at stage {k + 1} first")
    return PiTrace(stages, transitions)

"""Co-enumerable equivalence relation realizing prescribed liminf class sizes.

Driven by a table g with g(k, s) >= 1, the construction maintains a
finite active set of elements and a labeling onto {0, ..., s-1}: at stage
s+1 a founder opens label s, then every older label k is topped up with
fresh elements or stripped of its greatest members so that exactly
g(k, s+1) elements carry label k.  Elements with distinct labels are
permanently separated (negative information only), removed elements are
parked and recycled as future founders, and the number of elements whose
label eventually settles on k is exactly liminf_s g(k, s).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    UPSeq, check_format, is_nat, upseq_eval, upseq_from_json, upseq_limits, upseq_to_json,
)
from .errors import ConstructionBugError, HorizonError, InputError


@dataclass(frozen=True)
class GTable:
    """Class-size approximation table; all values >= 1.

    Column k is consulted from stage k+2 onward.  Columns beyond the
    declared width default to the constant sequence 1, so the
    construction is total for any stage budget.
    """

    columns: tuple[UPSeq, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
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
        return upseq_limits(self.columns[k]).liminf

    def column_shape(self, k: int) -> tuple[int, int]:
        """(prefix length, period length), with defaults past the width."""
        if k >= self.width:
            return 0, 1
        col = self.columns[k]
        return len(col.prefix), len(col.period)


@dataclass
class LabelState:
    """Active elements, their labels, and the full transition history.

    ``removed_pending`` is a ``heapq`` min-heap of the parked elements.
    """

    ell: dict[int, int] = field(default_factory=dict)
    members: dict[int, set[int]] = field(default_factory=dict)
    removed_pending: list[int] = field(default_factory=list)
    next_fresh: int = 0
    stage: int = 0
    transitions: dict[int, list[tuple[int, Optional[int]]]] = field(default_factory=dict)
    windows: list[int] = field(default_factory=lambda: [0])


def _set_label(st: LabelState, x: int, label: int, stage: int) -> None:
    st.ell[x] = label
    st.members.setdefault(label, set()).add(x)
    st.transitions.setdefault(x, []).append((stage, label))


def _remove_element(st: LabelState, z: int, stage: int) -> None:
    history = st.transitions[z]
    if len(history) >= 3:
        raise ConstructionBugError(f"element {z} removed twice")
    label = st.ell.pop(z)
    st.members[label].discard(z)
    heapq.heappush(st.removed_pending, z)
    history.append((stage, None))


def pi01_step(st: LabelState, g: GTable) -> LabelState:
    """Advance the construction by one stage (in place).

    Only labels k < min(s, g.width) are stepped.  A label k >= g.width is
    a no-op at every stage: g(k, .) is the constant 1 there.  Stage k+1
    opens label k with its founder alone, and only the loop body for k
    ever adds to or strips label k.  By induction, at each later stage
    the count 1 equals the goal 1, so that body would add no element,
    strip none and pass its count check.
    """
    s = st.stage
    stage = s + 1
    # founder: recycle the least parked element, else the least fresh one
    if st.removed_pending:
        w = heapq.heappop(st.removed_pending)
    else:
        w = st.next_fresh
        st.next_fresh += 1
    _set_label(st, w, s, stage)
    for k in range(min(s, g.width)):
        members = st.members.setdefault(k, set())
        delta = len(members)
        goal = g.g(k, stage)
        if goal > delta:
            for _ in range(goal - delta):
                y = st.next_fresh
                st.next_fresh += 1
                _set_label(st, y, k, stage)
        elif goal < delta:
            keeper = min(members)
            for z in sorted(members, reverse=True)[: delta - goal]:
                if z == keeper:
                    raise ConstructionBugError(f"label {k}: class minimum removed")
                _remove_element(st, z, stage)
        if len(st.members[k]) != goal:
            raise ConstructionBugError(f"label {k}: count {len(st.members[k])} != g = {goal}")
    st.stage = stage
    st.windows.append(st.next_fresh)
    return st


@dataclass(frozen=True)
class PiTrace:
    """Deterministic history of a run, sufficient to replay any snapshot."""

    stages: int
    transitions: dict[int, tuple[tuple[int, Optional[int]], ...]]
    windows: tuple[int, ...]

    def label_at(self, x: int, s: int) -> Optional[int]:
        label: Optional[int] = None
        for st, value in self.transitions.get(x, ()):
            if st > s:
                break
            label = value
        return label

    def elements(self) -> list[int]:
        return sorted(self.transitions)

    def stable_window_label(self, x: int, start: int, end: int) -> Optional[int]:
        """The label x holds throughout [start, end], or None."""
        label = self.label_at(x, start)
        if label is None:
            return None
        for st, _ in self.transitions.get(x, ()):
            if start < st <= end:
                return None
        return label


def run_pi01(g: GTable, stages: int) -> PiTrace:
    if stages < 1:
        raise InputError("stage count must be at least 1")
    st = LabelState()
    for _ in range(stages):
        pi01_step(st, g)
    return PiTrace(
        stages=stages,
        transitions={x: tuple(h) for x, h in st.transitions.items()},
        windows=tuple(st.windows),
    )


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


@dataclass(frozen=True)
class LabelCount:
    label: int
    expected: int
    observed: int

    @property
    def match(self) -> bool:
        return self.expected == self.observed


@dataclass(frozen=True)
class LiminfReport:
    entries: tuple[LabelCount, ...]
    required_stages: int

    @property
    def all_match(self) -> bool:
        return all(entry.match for entry in self.entries)


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


def verify_liminf_counts(trace: PiTrace, g: GTable, K: int) -> LiminfReport:
    """Compare certified-stable label counts against the exact liminfs.

    An element counts for label k if it holds that label throughout the
    final window of two full column periods; by then the column has
    cycled past its prefix, so the window contains a dip to the liminf
    and survivors can never be removed again.
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
    ever_labeled: dict[int, list[int]] = {}  # an element holds each label at most once
    for x, hist in trace.transitions.items():
        for _, label in hist:
            if label is not None and label <= K:
                ever_labeled.setdefault(label, []).append(x)
    entries = []
    for k in range(K + 1):
        _, perlen = g.column_shape(k)
        start = trace.stages - 2 * perlen
        observed = sum(
            1
            for x in ever_labeled.get(k, ())
            if trace.stable_window_label(x, start, trace.stages) == k
        )
        entries.append(LabelCount(label=k, expected=g.liminf(k), observed=observed))
    return LiminfReport(entries=tuple(entries), required_stages=required)


def gtable_to_json(g: GTable) -> dict:
    return {"format": 1, "columns": [upseq_to_json(c) for c in g.columns]}


def gtable_from_json(obj: object) -> GTable:
    if not isinstance(obj, dict) or not isinstance(obj.get("columns"), list):
        raise InputError("g table must be an object with a 'columns' array")
    check_format(obj, default=1)
    return GTable(tuple(upseq_from_json(c) for c in obj["columns"]))


def trace_to_json(trace: PiTrace) -> dict:
    return {
        "format": 1,
        "stages": trace.stages,
        "windows": list(trace.windows),
        "transitions": [
            [x, [[s, v] for s, v in hist]] for x, hist in sorted(trace.transitions.items())
        ],
    }


def trace_from_json(obj: object) -> PiTrace:
    if not isinstance(obj, dict):
        raise InputError("trace must be a format-1 object")
    check_format(obj)
    stages, windows = obj.get("stages"), obj.get("windows")
    if not is_nat(stages) or not isinstance(windows, list) or not all(map(is_nat, windows)):
        raise InputError("trace 'stages' and 'windows' entries must be naturals")
    transitions = {}
    try:
        for x, hist in obj["transitions"]:
            entries = tuple((s, v) for s, v in hist)
            if not is_nat(x) or not all(
                is_nat(s) and (v is None or is_nat(v)) for s, v in entries
            ):
                raise InputError(
                    f"trace element {x!r}: elements and stages must be naturals, "
                    "labels naturals or null"
                )
            transitions[x] = entries
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    return PiTrace(stages=stages, transitions=transitions, windows=tuple(windows))

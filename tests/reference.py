"""Slow reference paths that the library's fast paths are compared against.

:class:`ReferenceRunner` replays a family member stage by stage, taking
its merges from ``ChurnGenerator.events_at`` or by scanning
``CeerScript.events``, into a union-find of its own; it shares no code
with ``ceersim.CeerRunner``.  :func:`reference_run_coceer` is the plain
loop of the co-ceer construction over every stage, driven by that runner.
"""

from __future__ import annotations

from typing import Optional

from effstruct.ceersim import CeerFamily, CeerScript
from effstruct.coceer import (
    CoceerState,
    CoceerTrace,
    StageRecord,
    _dispatch,
    _update_flag,
    init_coceer,
)
from effstruct.core import cantor_unpair


class NaiveUnionFind:
    """Quick-find: every touched element maps to the member list of its class."""

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
                self._shape = [(min(c), len(c)) for c in self.uf.lists.values()]

    def has_class_of_size(self, k: int) -> bool:
        # omega has cofinitely many untouched singletons
        return k == 1 or any(size == k for _, size in self._shape)

    def oldest_class_min(self, k: int) -> Optional[int]:
        if k == 1:
            x = 0
            while x in self.uf.class_of:
                x += 1
            return x
        minima = [m for m, size in self._shape if size == k]
        return min(minima) if minima else None

    def partition_classes(self, window: int) -> list[list[int]]:
        """Classes of the current relation restricted to [0, window)."""
        inside = [sorted(x for x in c if x < window) for c in self.uf.lists.values()]
        touched = {x for c in inside for x in c}
        singles = [[x] for x in range(window) if x not in touched]
        return sorted([c for c in inside if c] + singles, key=lambda c: c[0])


def reference_run_coceer(
    fam: CeerFamily, E: int, stage_budget: int
) -> tuple[CoceerState, CoceerTrace]:
    """The co-ceer construction visiting every stage, over reference runners."""
    state = init_coceer(E)
    runners = [ReferenceRunner(fam.member(e)) for e in range(E)]
    for col, runner in zip(state.columns, runners):
        runner.advance_to(0)
        m = runner.oldest_class_min(col.k)
        if m is not None:
            col.seen_minima.add(m)
    records = []
    for stage in range(1, stage_budget + 1):
        e_focus, _ = cantor_unpair(stage)
        for col, runner in zip(state.columns, runners):
            runner.advance_to(stage)
            _update_flag(col, runner.oldest_class_min(col.k))
        if e_focus < E:
            has_k = runners[e_focus].has_class_of_size(state.columns[e_focus].k)
            records.append(_dispatch(state, e_focus, stage, has_k))
        else:
            records.append(StageRecord(stage, e_focus, 0, None, None, ()))
        state.stage = stage
    return state, CoceerTrace(columns=E, stages=stage_budget, records=tuple(records))

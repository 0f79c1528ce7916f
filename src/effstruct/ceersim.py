"""Finitely presented families of ceer approximations.

A ceer approximation only ever merges classes (positive information).
Two member kinds are supported:

* :class:`CeerScript` -- a finite list of timed merge events; after the
  last event the relation is constant, so its limit is fully known.
* :class:`ChurnGenerator` -- an infinite adversary for one target class
  size k >= 2.  Each round forms a fresh block of k elements (a new
  oldest class of size k, with strictly increasing minimum) and then
  absorbs it into the class of 0, so the limit relation has no class of
  size k at all even though size-k classes appear at infinitely many
  stages.

:class:`CeerRunner` follows one member stage by stage.  It replays a
script once, applying each event at its stage and nothing after the last
one, and answers every query about a churn generator in closed form from
the stage number, without simulating its merges.

Snapshots are taken over the conceptually infinite domain omega: elements
untouched by any event are singletons.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import is_nat
from .eqrel import Character, Partition, character_of
from .errors import InputError, UnsupportedQueryError


@dataclass(frozen=True)
class CeerScript:
    """Finite merge schedule: ((stage, (x, y)), ...) sorted by stage."""

    events: tuple[tuple[int, tuple[int, int]], ...]

    def __post_init__(self):
        norm = []
        last_stage = 0
        for ev in self.events:
            try:
                stage, (x, y) = ev
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad script event {ev!r}") from exc
            if not (is_nat(stage) and is_nat(x) and is_nat(y)):
                raise InputError(f"bad script event {ev!r}: stage, x and y must be naturals")
            if stage < last_stage:
                raise InputError("script events must be sorted by stage")
            last_stage = stage
            norm.append((stage, (x, y)))
        object.__setattr__(self, "events", tuple(norm))

    @property
    def last_event_stage(self) -> int:
        return self.events[-1][0] if self.events else 0

    def events_at(self, stage: int) -> list[tuple[int, int]]:
        lo = bisect_left(self.events, (stage,))
        hi = bisect_left(self.events, (stage + 1,), lo)
        return [m for _, m in self.events[lo:hi]]


@dataclass(frozen=True)
class ChurnGenerator:
    """Infinite generator churning the oldest class of one target size.

    Round r forms the block {1 + r*k, ..., (r+1)*k} at stage
    2*spacing*r + 1 and merges it into the class of 0 ``spacing`` stages
    later.  Blocks tile omega minus {0}, so in the limit everything
    collapses into the class of 0.  The relation at any stage is known in
    closed form (:meth:`classes_after`), so it is never simulated;
    :meth:`events_at` lists the merges only for independent replays.
    """

    target_size: int
    block_spacing: int

    def __post_init__(self):
        if not is_nat(self.target_size) or self.target_size < 2:
            raise InputError("churn target size must be an integer of at least 2")
        if not is_nat(self.block_spacing) or self.block_spacing < 1:
            raise InputError("block spacing must be an integer of at least 1")

    def round_base(self, r: int) -> int:
        return 1 + r * self.target_size

    def classes_after(self, stage: int) -> tuple[range, ...]:
        """The classes of two or more elements once stages 0..stage have run.

        With d the spacing, F = floor((s-1)/2d) + 1 rounds are formed and
        A = floor((s-1-d)/2d) + 1 absorbed (both 0 before their first
        stage), and F - A is 0 or 1.  The class of 0 is {0} plus blocks
        0..A-1; a formed block not yet absorbed is a class of its own;
        every other element is a singleton.  Classes come by minimum.
        """
        d = self.block_spacing
        s = max(stage, 0)
        formed = (s - 1) // (2 * d) + 1
        absorbed = (s - 1 - d) // (2 * d) + 1
        out = []
        if absorbed:
            out.append(range(0, self.round_base(absorbed)))
        if formed > absorbed:
            out.append(range(self.round_base(formed - 1), self.round_base(formed)))
        return tuple(out)

    def events_at(self, stage: int) -> list[tuple[int, int]]:
        k, d = self.target_size, self.block_spacing
        out: list[tuple[int, int]] = []
        if stage >= 1 and (stage - 1) % (2 * d) == 0:
            base = self.round_base((stage - 1) // (2 * d))
            out.extend((base, base + i) for i in range(1, k))
        if stage >= 1 + d and (stage - 1 - d) % (2 * d) == 0:
            out.append((0, self.round_base((stage - 1 - d) // (2 * d))))
        return out


FamilyMember = Union[CeerScript, ChurnGenerator]


@dataclass(frozen=True)
class CeerFamily:
    """Finite indexed family; index e addresses members[e]."""

    members: tuple[FamilyMember, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for m in self.members:
            if not isinstance(m, (CeerScript, ChurnGenerator)):
                raise InputError(f"bad family member {m!r}")

    def member(self, e: int) -> FamilyMember:
        if not 0 <= e < len(self.members):
            raise InputError(f"family index {e} out of range [0, {len(self.members)})")
        return self.members[e]


class _GrowingUnionFind:
    """Union-find over a sparse, growing subset of omega.

    Tracks per-root class minimum and a pool of roots per exact class
    size, so "oldest class of size k" queries are cheap.  Elements never
    inserted are implicit singletons.
    """

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.min: dict[int, int] = {}
        self.by_size: dict[int, set[int]] = {}

    def _insert(self, x: int) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            self.min[x] = x
            self.by_size.setdefault(1, set()).add(x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self._insert(x)
        self._insert(y)
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.by_size[self.size[rx]].discard(rx)
        self.by_size[self.size[ry]].discard(ry)
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        self.min[rx] = min(self.min[rx], self.min[ry])
        self.by_size.setdefault(self.size[rx], set()).add(rx)

    def has_size(self, k: int) -> bool:
        if k == 1:
            return True  # cofinitely many untouched singletons in omega
        return bool(self.by_size.get(k))

    def oldest_min(self, k: int) -> Optional[int]:
        if k == 1:
            x = 0
            while x in self.parent and self.size[self.find(x)] > 1:
                x += 1
            return x
        pool = self.by_size.get(k)
        return min(self.min[r] for r in pool) if pool else None

    def related(self, x: int, y: int) -> bool:
        if x == y:
            return True
        if x not in self.parent or y not in self.parent:
            return False
        return self.find(x) == self.find(y)


class CeerRunner:
    """Incremental stage simulator for one family member.

    A script is replayed into ``uf`` through a cursor over its sorted
    events: each event is applied once, and advancing past the last one
    costs O(1).  A churn generator is answered from
    :meth:`ChurnGenerator.classes_after` and leaves ``uf`` empty.
    """

    def __init__(self, member: FamilyMember):
        self.member = member
        self.uf = _GrowingUnionFind()
        self.stage = -1
        self._applied = 0   # script events already merged into uf
        self._churn_classes: tuple[range, ...] = ()

    def advance_to(self, stage: int) -> None:
        if stage <= self.stage:
            return
        self.stage = stage
        member = self.member
        if isinstance(member, ChurnGenerator):
            self._churn_classes = member.classes_after(stage)
            return
        events = member.events
        while self._applied < len(events) and events[self._applied][0] <= stage:
            batch = member.events_at(events[self._applied][0])
            for x, y in batch:
                self.uf.union(x, y)
            self._applied += len(batch)

    def has_class_of_size(self, k: int) -> bool:
        if isinstance(self.member, ChurnGenerator):
            return k == 1 or any(len(c) == k for c in self._churn_classes)
        return self.uf.has_size(k)

    def oldest_class_min(self, k: int) -> Optional[int]:
        if isinstance(self.member, ChurnGenerator):
            # the classes come by minimum, so the first match is the oldest
            if k == 1:
                x = 0
                for c in self._churn_classes:
                    if c.start == x:
                        x = c.stop
                return x
            for c in self._churn_classes:
                if len(c) == k:
                    return c.start
            return None
        return self.uf.oldest_min(k)

    def partition(self, window: int) -> Partition:
        """Current relation restricted to [0, window).

        Restriction happens after the closure on omega: two in-window
        elements joined through an out-of-window element are related.
        """
        p = Partition(window)
        if isinstance(self.member, ChurnGenerator):
            groups = [range(c.start, min(c.stop, window)) for c in self._churn_classes]
        else:
            byroot: dict[int, list[int]] = {}
            for x in range(window):
                if x in self.uf.parent:
                    byroot.setdefault(self.uf.find(x), []).append(x)
            groups = list(byroot.values())
        for group in groups:
            for other in group[1:]:
                p.merge(group[0], other)
        return p


def ceer_snapshot(fam: CeerFamily, e: int, s: int, window: int) -> Partition:
    """R_e[s] restricted to [0, window)."""
    runner = CeerRunner(fam.member(e))
    runner.advance_to(s)
    return runner.partition(window)


def limit_spectrum(
    fam: CeerFamily, e: int, window: int
) -> tuple[Character, Callable[[int], bool]]:
    """Limit character on a window plus a has-class-of-size predicate.

    For a script the limit is the relation after the last event, known
    exactly.  For a churn generator every element is eventually absorbed
    into the class of 0, so the predicate answers False for the target
    size and for size 1; other sizes are not tracked and raise.
    """
    member = fam.member(e)
    if isinstance(member, CeerScript):
        runner = CeerRunner(member)
        runner.advance_to(member.last_event_stage)

        def has_size(k: int, _uf=runner.uf) -> bool:
            if k < 1:
                raise InputError("class size must be at least 1")
            return _uf.has_size(k)

        return character_of(runner.partition(window)), has_size

    def churn_has_size(k: int, _m=member) -> bool:
        if k == _m.target_size or k == 1:
            return False
        raise UnsupportedQueryError(
            f"churn generator tracks sizes 1 and {_m.target_size} only, not {k}"
        )

    # in the limit the window collapses into the (infinite) class of 0
    limit_char = Character({window: 1}) if window > 0 else Character()
    return limit_char, churn_has_size


def family_to_json(fam: CeerFamily) -> dict:
    members = []
    for m in fam.members:
        if isinstance(m, CeerScript):
            members.append(
                {"type": "script", "events": [[s, [x, y]] for s, (x, y) in m.events]}
            )
        else:
            members.append({"type": "churn", "k": m.target_size, "spacing": m.block_spacing})
    return {"format": 1, "members": members}


def family_from_json(obj: object) -> CeerFamily:
    if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
        raise InputError("family must be an object with a 'members' array")
    if obj.get("format", 1) != 1:
        raise InputError("unsupported format version")
    members: list[FamilyMember] = []
    for m in obj["members"]:
        if not isinstance(m, dict):
            raise InputError("family members must be objects")
        kind = m.get("type")
        if kind == "script":
            events = m.get("events")
            if not isinstance(events, list):
                raise InputError("script member needs an 'events' array")
            try:
                parsed = tuple((s, (x, y)) for s, (x, y) in events)
            except (TypeError, ValueError) as exc:
                raise InputError("script events must be [stage, [x, y]] entries") from exc
            members.append(CeerScript(parsed))
        elif kind == "churn":
            if "k" not in m or "spacing" not in m:
                raise InputError("churn member needs 'k' and 'spacing'")
            members.append(ChurnGenerator(m["k"], m["spacing"]))
        else:
            raise InputError(f"unknown member type {kind!r}")
    return CeerFamily(tuple(members))

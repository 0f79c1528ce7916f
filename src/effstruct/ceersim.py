"""Finitely presented families of ceer approximations.

A ceer approximation only ever merges classes (positive information).
Two member kinds are supported:

* :class:`CeerScript` -- a finite list of timed merge events; after the
  last event the relation is constant, so its limit is fully known.
* :class:`ChurnGenerator` -- an infinite adversary for one target class
  size k >= 2.  Each round forms a fresh block of k elements (a new
  oldest class of size k, with strictly increasing minimum) and then
  absorbs it into the class of 0, so the limit relation is one infinite
  class: it has no class of size k at all even though size-k classes
  appear at infinitely many stages.

:class:`CeerRunner` follows one member stage by stage and answers, for
either kind, whether a class of size k exists and which is the oldest.
A script is replayed once into one :class:`~effstruct.eqrel.Partition`
sized by the elements it mentions: each event is merged once, from the
cursor over the sorted events, at its stage and nothing after the last
one.  Each merge updates an index from class size to class minima, so a
query never scans the partition.  :func:`limit_has_class_of_size` reads
a script's limit in one union-find pass of its own, with no runner.  A churn
generator's classes come in closed form from the stage number, without
simulating its merges.

Snapshots are taken over the conceptually infinite domain omega: elements
untouched by any event are singletons.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Optional, Sequence, Union

from .core import Record, check_format, is_nat
from .eqrel import Partition
from .errors import InputError


class CeerScript(Record):
    """Finite merge schedule: ((stage, (x, y)), ...) sorted by stage."""

    __slots__ = ("events",)

    def __init__(self, events: Sequence[tuple[int, tuple[int, int]]]):
        norm = []
        last_stage = 0
        for ev in events:
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
        self.events = tuple(norm)

    @property
    def last_event_stage(self) -> int:
        return self.events[-1][0] if self.events else 0

    def events_at(self, stage: int) -> list[tuple[int, int]]:
        """The merges of one stage, in script order.

        :class:`CeerRunner` reads the events from its own cursor instead;
        this is kept for independent replays and the benchmark's hook.
        """
        lo = bisect_left(self.events, (stage,))
        hi = bisect_left(self.events, (stage + 1,), lo)
        return [m for _, m in self.events[lo:hi]]


class ChurnGenerator(Record):
    """Infinite generator churning the oldest class of one target size.

    Round r forms the block {1 + r*k, ..., (r+1)*k} at stage
    2*spacing*r + 1 and merges it into the class of 0 ``spacing`` stages
    later.  Blocks tile omega minus {0}, so in the limit everything
    collapses into the class of 0.  The relation at any stage is known in
    closed form (:meth:`classes_after`), so it is never simulated;
    :meth:`events_at` lists the merges only for independent replays.
    """

    __slots__ = ("target_size", "block_spacing")

    def __init__(self, target_size: int, block_spacing: int):
        if not is_nat(target_size) or target_size < 2:
            raise InputError("churn target size must be an integer of at least 2")
        if not is_nat(block_spacing) or block_spacing < 1:
            raise InputError("block spacing must be an integer of at least 1")
        self.target_size, self.block_spacing = target_size, block_spacing

    def round_base(self, r: int) -> int:
        return 1 + r * self.target_size

    def rounds(self, stage: int) -> tuple[int, int]:
        """(F, A): the rounds formed and absorbed once stages 0..stage have run.

        With d the spacing, F = floor((s-1)/2d) + 1 and A = floor((s-1-d)/2d)
        + 1 (both 0 before their first stage), and F - A is 0 or 1.
        """
        d = self.block_spacing
        s = max(stage, 0)
        return (s - 1) // (2 * d) + 1, (s - 1 - d) // (2 * d) + 1

    def classes_after(self, stage: int) -> tuple[range, ...]:
        """The classes of two or more elements once stages 0..stage have run.

        With (F, A) = :meth:`rounds`, the class of 0 is {0} plus blocks
        0..A-1; a formed block not yet absorbed is a class of its own;
        every other element is a singleton.  Classes come by minimum.
        """
        formed, absorbed = self.rounds(stage)
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


class CeerFamily(Record):
    """Finite indexed family; index e addresses members[e]."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[FamilyMember]):
        self.members = tuple(members)
        for m in self.members:
            if not isinstance(m, (CeerScript, ChurnGenerator)):
                raise InputError(f"bad family member {m!r}")

    def member(self, e: int) -> FamilyMember:
        if not 0 <= e < len(self.members):
            raise InputError(f"family index {e} out of range [0, {len(self.members)})")
        return self.members[e]


class CeerRunner:
    """Incremental stage simulator for one family member.

    After :meth:`advance_to` both member kinds hold the same index: for
    each size k >= 2, the minima of the classes of size k.  The queries
    read only that index; :attr:`classes` is built on demand.

    A churn generator indexes the classes of
    :meth:`ChurnGenerator.classes_after` and leaves ``uf`` empty.  A script
    is replayed into ``uf``, a :class:`Partition` with one slot per element
    the script mentions, slots in increasing element order.  Each event is
    merged once, from the cursor: :meth:`advance_to` reads
    ``member.events`` from the first event not merged yet through the
    stage, in script order.  A merge that joins two classes moves their
    minima out of the index under their old sizes and the joined class's
    minimum in under its new one.  The least element of each class is kept
    at its root slot.
    """

    def __init__(self, member: FamilyMember):
        self.member = member
        self.stage = -1
        # class size >= 2 -> minima of the classes of that size (possibly none)
        self._minima: dict[int, set[int]] = defaultdict(set)
        self._applied = 0  # script events already merged into uf
        events = member.events if isinstance(member, CeerScript) else ()
        self._elements = sorted({z for _, pair in events for z in pair})
        self._slot = {x: i for i, x in enumerate(self._elements)}
        self._least = list(self._elements)  # root slot -> least element of its class
        self.uf = Partition(len(self._elements))

    def advance_to(self, stage: int) -> None:
        if stage <= self.stage:
            return
        self.stage = stage
        member = self.member
        if isinstance(member, ChurnGenerator):
            self._minima = {len(c): {c[0]} for c in member.classes_after(stage)}
            return
        events, applied = member.events, self._applied
        slot, least, minima = self._slot, self._least, self._minima
        merge, size = self.uf.merge, self.uf.size
        while applied < len(events):
            at, (x, y) = events[applied]
            if at > stage:
                break
            applied += 1
            joined = merge(slot[x], slot[y])
            if joined is None:
                continue
            survivor, absorbed = joined
            total, size_b = size[survivor], size[absorbed]
            a, b = least[survivor], least[absorbed]
            if total - size_b > 1:  # singletons are not indexed
                minima[total - size_b].remove(a)
            if size_b > 1:
                minima[size_b].remove(b)
            if b < a:
                least[survivor] = a = b
            minima[total].add(a)
        self._applied = applied

    @property
    def classes(self) -> tuple[Sequence[int], ...]:
        """The classes of two or more elements, by minimum, members ascending."""
        if isinstance(self.member, ChurnGenerator):
            return self.member.classes_after(self.stage)
        elements = self._elements
        return tuple([elements[i] for i in c] for c in self.uf.classes() if len(c) > 1)

    @property
    def next_event_stage(self) -> Optional[int]:
        """Stage of the first script event not merged yet; None past the last (scripts only)."""
        if self._applied == len(self.member.events):
            return None
        return self.member.events[self._applied][0]

    def has_class_of_size(self, k: int) -> bool:
        return k == 1 or bool(self._minima.get(k))  # cofinitely many singletons in omega

    def oldest_class_min(self, k: int) -> Optional[int]:
        """The least minimum of a class of size k >= 2; None when there is none."""
        if k < 2:
            raise InputError(f"oldest class queries need size at least 2, not {k}")
        minima = self._minima.get(k)
        return min(minima) if minima else None


def limit_has_class_of_size(member: FamilyMember, k: int) -> bool:
    """Whether the member's limit relation has a class of exactly k elements.

    A script's limit is its relation after the last event, read in one
    pass: every event's pair is merged into a :class:`Partition` over slots
    numbered by first mention, and a class of size k is a root of that
    size.  No :class:`CeerRunner` is built, so a verifier shares only the
    union-find with the run.  A churn generator's limit is a single
    infinite class, so no size k >= 1 occurs.
    """
    if k < 1:
        raise InputError("class size must be at least 1")
    if isinstance(member, ChurnGenerator):
        return False
    if k == 1:  # cofinitely many singletons in omega
        return True
    mentioned = dict.fromkeys(z for _, pair in member.events for z in pair)
    slot = {z: i for i, z in enumerate(mentioned)}
    uf = Partition(len(slot))
    for _, (x, y) in member.events:
        uf.merge(slot[x], slot[y])
    size = uf.size
    return any(size[r] == k for r, p in enumerate(uf.parent) if r == p)


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
    check_format(obj, default=1)
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

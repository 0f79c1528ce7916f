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

:class:`CeerRunner` follows one member stage by stage and publishes, for
either kind, the classes of two or more elements.  A script is replayed
once into one :class:`~effstruct.eqrel.Partition` sized by the elements
it mentions, each event merged at its stage and nothing after the last
one; a churn generator's classes come in closed form from the stage
number, without simulating its merges.

Snapshots are taken over the conceptually infinite domain omega: elements
untouched by any event are singletons.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import check_format, is_nat
from .eqrel import Partition
from .errors import InputError


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


class CeerRunner:
    """Incremental stage simulator for one family member.

    After :meth:`advance_to` both member kinds publish the same state:
    ``classes``, the classes of two or more elements ordered by minimum
    (members ascending), and for each class size the least minimum of
    that size.  Every query reads only that state.

    A churn generator takes its classes from
    :meth:`ChurnGenerator.classes_after` and leaves ``uf`` empty.  A script
    is replayed through a cursor over its sorted events into ``uf``, a
    :class:`Partition` with one slot per element the script mentions,
    slots in increasing element order so class minima map straight back.
    Each event is merged once, and the classes are rebuilt only at stages
    where the cursor merged something.
    """

    def __init__(self, member: FamilyMember):
        self.member = member
        self.stage = -1
        self.classes: tuple[Sequence[int], ...] = ()
        self._oldest: dict[int, int] = {}  # class size -> least minimum of that size
        self._applied = 0  # script events already merged into uf
        events = member.events if isinstance(member, CeerScript) else ()
        self._elements = sorted({z for _, pair in events for z in pair})
        self._slot = {x: i for i, x in enumerate(self._elements)}
        self.uf = Partition(len(self._elements))

    def advance_to(self, stage: int) -> None:
        if stage <= self.stage:
            return
        self.stage = stage
        member = self.member
        if isinstance(member, ChurnGenerator):
            self._publish(member.classes_after(stage))
            return
        events, applied = member.events, self._applied
        while applied < len(events) and events[applied][0] <= stage:
            for x, y in member.events_at(events[applied][0]):
                self.uf.merge(self._slot[x], self._slot[y])
                applied += 1
        if applied > self._applied:
            self._applied = applied
            elements = self._elements
            self._publish(tuple(
                [elements[i] for i in c] for c in self.uf.classes() if len(c) > 1
            ))

    @property
    def next_event_stage(self) -> Optional[int]:
        """Stage of the first script event not merged yet; None past the last (scripts only)."""
        if self._applied == len(self.member.events):
            return None
        return self.member.events[self._applied][0]

    def _publish(self, classes: tuple[Sequence[int], ...]) -> None:
        self.classes = classes
        self._oldest = {}
        for c in classes:  # by minimum, so the first class of a size is its oldest
            self._oldest.setdefault(len(c), c[0])

    def has_class_of_size(self, k: int) -> bool:
        return k == 1 or k in self._oldest  # cofinitely many singletons in omega

    def oldest_class_min(self, k: int) -> Optional[int]:
        """The least minimum of a class of size k >= 2; None when there is none."""
        if k < 2:
            raise InputError(f"oldest class queries need size at least 2, not {k}")
        return self._oldest.get(k)


def limit_has_class_of_size(member: FamilyMember, k: int) -> bool:
    """Whether the member's limit relation has a class of exactly k elements.

    A script's limit is its relation after the last event.  A churn
    generator's limit is a single infinite class, so no size k >= 1 occurs.
    """
    if k < 1:
        raise InputError("class size must be at least 1")
    if isinstance(member, ChurnGenerator):
        return False
    runner = CeerRunner(member)
    runner.advance_to(member.last_event_stage)
    return runner.has_class_of_size(k)


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

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
It serves :mod:`effstruct.generators` and the tests; the co-ceer run
builds none.  A script numbers its elements by first mention once, in
the pass that checks its events (:attr:`CeerScript.pairs`); the runner
merges those slot pairs in a union-find pass of its own, with no
numbering of its own, and so do the co-ceer run's timeline and
:func:`limit_has_class_of_size` for a target size k up to the number of
elements the script mentions.  Above it no class of size k ever exists
(an unmentioned element stays a singleton), and both answer without a
pass.  A churn generator's classes come in closed form from the stage
number, without simulating its merges.

Snapshots are taken over the conceptually infinite domain omega: elements
untouched by any event are singletons.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Union

from .core import Record, check_format, is_nat
from .eqrel import Partition
from .errors import InputError


class CeerScript(Record):
    """Finite merge schedule: ((stage, (x, y)), ...) sorted by stage.

    The pass that checks the events also numbers the elements: ``elements``
    lists them by first mention, and ``pairs`` holds each event as (stage,
    slot of x, slot of y), a slot being an index into ``elements``.  Both
    are derived from ``events``, so equality, hashing and repr read
    ``events`` alone.
    """

    __slots__ = ("events", "elements", "pairs")
    _fields = ("events",)

    def __init__(self, events: Sequence[tuple[int, tuple[int, int]]]):
        norm, pairs, slot = [], [], {}
        number = slot.setdefault
        last_stage = 0
        problem = None   # a bad value or order, reported once every event has its shape
        for ev in events:
            try:
                stage, (x, y) = ev
            except (TypeError, ValueError) as exc:
                raise InputError("script events must be [stage, [x, y]] entries") from exc
            if problem is None:
                # an exact int passes at once; anything else (a bool, a float, an
                # int subclass) takes the general test
                if not (type(stage) is int and stage >= 0 and type(x) is int and x >= 0
                        and type(y) is int and y >= 0
                        or is_nat(stage) and is_nat(x) and is_nat(y)):
                    problem = (f"bad script event {(stage, (x, y))!r}: "
                               "stage, x and y must be naturals")
                elif stage < last_stage:
                    problem = "script events must be sorted by stage"
                else:   # numbered only once its values are naturals
                    pairs.append((stage, number(x, len(slot)), number(y, len(slot))))
            last_stage = stage
            norm.append((stage, (x, y)))
        if problem is not None:
            raise InputError(problem)
        self.events, self.elements, self.pairs = tuple(norm), tuple(slot), tuple(pairs)

    @property
    def last_event_stage(self) -> int:
        return self.events[-1][0] if self.events else 0

    def events_at(self, stage: int) -> list[tuple[int, int]]:
        """The merges of one stage, in script order.

        No library path calls this (:class:`CeerRunner` merges :attr:`pairs`);
        it is kept for independent replays and the benchmark's hook.
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
    """Stage-by-stage replay of one family member.

    A script is replayed into ``uf``, a :class:`Partition` over the slots
    the script numbered when it was read (:attr:`CeerScript.elements`):
    :meth:`advance_to` merges :attr:`CeerScript.pairs` from the first pair
    not merged yet through the stage.  A churn generator's classes come
    from :meth:`ChurnGenerator.classes_after`, and its ``uf`` stays empty.
    Every query reads :attr:`classes`, which a script lists once per
    advance that merged.
    """

    def __init__(self, member: FamilyMember):
        self.member = member
        self.stage = -1
        self._merged = 0   # script pairs already merged into uf
        self._classes: Optional[tuple[tuple[int, ...], ...]] = ()
        self.uf = Partition(len(member.elements) if isinstance(member, CeerScript) else 0)

    def advance_to(self, stage: int) -> None:
        if stage <= self.stage:
            return
        self.stage = stage
        if isinstance(self.member, ChurnGenerator):
            return
        pairs, merged, merge = self.member.pairs, self._merged, self.uf.merge
        while merged < len(pairs) and pairs[merged][0] <= stage:
            _, x, y = pairs[merged]
            merge(x, y)
            merged += 1
        if merged > self._merged:
            self._merged, self._classes = merged, None

    @property
    def classes(self) -> tuple[Sequence[int], ...]:
        """The classes of two or more elements, by minimum, members ascending."""
        member = self.member
        if isinstance(member, ChurnGenerator):
            return member.classes_after(self.stage)
        if self._classes is None:
            elements = member.elements
            self._classes = tuple(sorted(tuple(sorted(elements[i] for i in c))
                                         for c in self.uf.classes() if len(c) > 1))
        return self._classes

    def has_class_of_size(self, k: int) -> bool:
        return k == 1 or any(len(c) == k for c in self.classes)  # cofinitely many singletons

    def oldest_class_min(self, k: int) -> Optional[int]:
        """The least minimum of a class of size k >= 2; None when there is none."""
        if k < 2:
            raise InputError(f"oldest class queries need size at least 2, not {k}")
        return next((c[0] for c in self.classes if len(c) == k), None)


def limit_has_class_of_size(member: FamilyMember, k: int) -> bool:
    """Whether the member's limit relation has a class of exactly k elements.

    A script's limit is its relation after the last event, read in one
    pass: every event's slot pair (:attr:`CeerScript.pairs`, numbered when
    the script was read) is merged into a :class:`Partition` of its own,
    and a class of size k is a root of that size.  No :class:`CeerRunner`
    is built and the run's timeline is not read, so a verifier shares only
    the input's numbering and the union-find with the run.  A churn
    generator's limit is a single infinite class, so no size k >= 1 occurs.

    A script that mentions fewer than k >= 2 elements is answered without
    a pass: an element no event mentions is never merged, so a class of two
    or more elements holds only mentioned ones, and none has size k.  The
    bound is read from the member itself, not from the run.
    """
    if k < 1:
        raise InputError("class size must be at least 1")
    if isinstance(member, ChurnGenerator):
        return False
    if k == 1:  # cofinitely many singletons in omega
        return True
    if k > len(member.elements):
        return False
    uf = Partition(len(member.elements))
    merge = uf.merge
    for _, x, y in member.pairs:
        merge(x, y)
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
            members.append(CeerScript(events))
        elif kind == "churn":
            if "k" not in m or "spacing" not in m:
                raise InputError("churn member needs 'k' and 'spacing'")
            members.append(ChurnGenerator(m["k"], m["spacing"]))
        else:
            raise InputError(f"unknown member type {kind!r}")
    return CeerFamily(tuple(members))

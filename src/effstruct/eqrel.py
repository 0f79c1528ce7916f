"""Equivalence relations on finite windows: partitions and characters.

A :class:`Partition` is a union-find over ``[0, window)`` where elements
never mentioned by a merge stay singletons.  A :class:`Character` records
which class sizes occur with which (exact, finite) multiplicities; at this
scale "infinitely many" is never asserted, callers restrict counting to a
certified-stable set of classes instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .core import is_nat
from .errors import InputError


class Partition:
    """Equivalence relation on [0, window) with merge and size queries."""

    def __init__(self, window: int):
        if window < 0:
            raise InputError("window must be nonnegative")
        self.window = window
        self.parent = list(range(window))
        self._size = [1] * window
        self._min = list(range(window))

    @classmethod
    def from_classes(cls, window: int, classes: Iterable[Sequence[int]]) -> "Partition":
        """The partition of [0, window) into ``classes`` and singletons.

        Each class is rooted at its minimum, with every member pointing at
        that root, so no merge runs.  The classes must be nonempty, pairwise
        disjoint and inside the window; that is not checked here.
        """
        p = cls(window)
        parent = p.parent
        for members in classes:
            root = min(members)
            for x in members:
                parent[x] = root
            p._size[root] = len(members)   # and p._min[root] is root already
        return p

    def _check(self, x: int) -> None:
        if not 0 <= x < self.window:
            raise InputError(f"element {x} outside window [0, {self.window})")

    def _root(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def find(self, x: int) -> int:
        self._check(x)
        root = self._root(x)
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def merge(self, x: int, y: int) -> None:
        self._check(x)
        self._check(y)
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self._size[rx] += self._size[ry]
        self._min[rx] = min(self._min[rx], self._min[ry])

    def roots(self) -> list[int]:
        return [x for x in range(self.window) if self.find(x) == x]

    def classes(self) -> list[list[int]]:
        """All classes, sorted by minimum, members ascending.

        The scan meets each class first at its minimum, so the classes
        come out in order of their minima.  Roots are found without path
        compression: union by size keeps every tree O(log window) deep.
        """
        byroot: dict[int, list[int]] = {}
        for x in range(self.window):
            byroot.setdefault(self._root(x), []).append(x)
        return list(byroot.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.window == other.window and self.classes() == other.classes()

    def __repr__(self) -> str:
        return f"Partition({self.window}, classes={self.classes()})"


class Character:
    """Exact finite map from class size to number of classes of that size."""

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(entries)
        for size, count in items.items():
            if not is_nat(size) or not is_nat(count):
                raise InputError(f"character entries must be naturals, got ({size!r}, {count!r})")
            if size < 1:
                raise InputError(f"bad character entry ({size}, {count})")
        self.entries: dict[int, int] = {s: c for s, c in sorted(items.items()) if c > 0}

    def count(self, size: int) -> int:
        return self.entries.get(size, 0)

    def sizes(self) -> list[int]:
        return list(self.entries)

    def to_pairs(self) -> list[list[int]]:
        return [[s, c] for s, c in self.entries.items()]

    @classmethod
    def from_pairs(cls, pairs: object) -> "Character":
        """Character from its JSON form ``[[size, count], ...]``."""
        if not isinstance(pairs, list):
            raise InputError("a character must be an array of [size, count] pairs")
        out: dict[int, int] = {}
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2 or not is_nat(pair[0]):
                raise InputError(f"character entries must be [size, count] pairs, got {pair!r}")
            size, count = pair
            if size in out:
                raise InputError(f"duplicate character size {size}")
            out[size] = count
        return cls(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"Character({self.entries})"


def character_of(p: Partition, stable_only: Optional[Iterable[int]] = None) -> Character:
    """Size/count character of ``p``.

    Only classes whose minimum lies in ``stable_only`` are counted
    (all classes when it is None).  Construction snapshots contain
    classes still subject to change; restricting to certified-stable
    minima makes character comparison exact.
    """
    stable = None if stable_only is None else set(stable_only)
    if stable is not None:
        for x in stable:
            if not 0 <= x < p.window:
                raise InputError(f"stable element {x} outside window")
    tally: dict[int, int] = {}
    for r in p.roots():
        if stable is not None and p._min[r] not in stable:
            continue
        tally[p._size[r]] = tally.get(p._size[r], 0) + 1
    return Character(tally)


def partition_to_json(p: Partition) -> dict:
    return {"window": p.window, "classes": p.classes()}


def partition_from_json(obj: object) -> Partition:
    if not isinstance(obj, dict) or "window" not in obj or "classes" not in obj:
        raise InputError("partition object must have 'window' and 'classes' keys")
    window = obj["window"]
    classes = obj["classes"]
    if not is_nat(window) or not isinstance(classes, list):
        raise InputError("bad partition field types")
    seen: set[int] = set()
    for cls in classes:
        if not isinstance(cls, list) or not cls:
            raise InputError("classes must be nonempty arrays")
        for m in cls:
            if not is_nat(m) or m >= window:
                raise InputError(f"class member {m!r} outside window")
            if m in seen:
                raise InputError(f"element {m} appears in two classes")
            seen.add(m)
    if len(seen) != window:
        raise InputError("classes must cover the whole window")
    return Partition.from_classes(window, classes)

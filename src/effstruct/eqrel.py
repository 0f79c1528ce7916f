"""Equivalence relations on finite windows: partitions and characters.

A :class:`Partition` is a union-find over ``[0, window)`` where elements
never mentioned by a merge stay singletons.  A :class:`Character` records
which class sizes occur with which (exact, finite) multiplicities; at this
scale "infinitely many" is never asserted.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .core import is_nat
from .errors import InputError


class Partition:
    """Equivalence relation on [0, window) with merge and size queries.

    ``size[r]`` is the size of the class rooted at r; at an element that
    is no longer a root it keeps the size its class had when absorbed.
    """

    def __init__(self, window: int):
        if window < 0:
            raise InputError("window must be nonnegative")
        self.window = window
        self.parent = list(range(window))
        self.size = [1] * window

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
            p.size[root] = len(members)
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

    def merge(self, x: int, y: int) -> Optional[tuple[int, int]]:
        """Join the classes of x and y; None when they already share one.

        Otherwise returns ``(survivor, absorbed)``: the root of the joined
        class and the root hung under it, that of the smaller class (of
        y's on a tie).  The classes had sizes ``size[survivor] -
        size[absorbed]`` and ``size[absorbed]``.

        Both roots are found here, as :meth:`find` would find them (x's
        path compressed first), without a call per root.
        """
        window = self.window
        if not (0 <= x < window and 0 <= y < window):
            self._check(x)
            self._check(y)
        parent = self.parent
        rx = x
        while parent[rx] != rx:
            rx = parent[rx]
        while parent[x] != rx:
            parent[x], x = rx, parent[x]
        ry = y
        while parent[ry] != ry:
            ry = parent[ry]
        while parent[y] != ry:
            parent[y], y = ry, parent[y]
        if rx == ry:
            return None
        size = self.size
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        return rx, ry

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


def character_of(p: Partition) -> Character:
    """Size/count character of ``p``: how many classes have each size."""
    tally: dict[int, int] = {}
    for c in p.classes():
        tally[len(c)] = tally.get(len(c), 0) + 1
    return Character(tally)


def partition_to_json(window: int, runs: Iterable[Iterable[tuple[int, int]]]) -> dict:
    """JSON form of a partition of [0, window) given by its classes' runs.

    Each class is a list of its maximal half-open ``(start, stop)`` runs,
    classes ordered by minimum: a class {0, 3} is ``[[0, 1], [3, 4]]``.
    """
    return {"window": window, "runs": [[[start, stop] for start, stop in cls] for cls in runs]}


def partition_from_json(obj: object) -> Partition:
    """Partition from ``{"window": W, "runs": [[[start, stop], ...], ...]}``.

    Every class must be a nonempty array of runs ``start < stop <= W``
    over naturals, and the runs of all classes together must tile
    [0, W): one sort of the R runs checks for gaps and overlaps in
    O(R log R), whatever the window.  The member-list ``classes`` form
    of format 1 is not read.
    """
    if not isinstance(obj, dict) or "window" not in obj or "runs" not in obj:
        raise InputError("partition object must have 'window' and 'runs' keys")
    window = obj["window"]
    runs = obj["runs"]
    if not is_nat(window) or not isinstance(runs, list):
        raise InputError("bad partition field types")
    spans = []
    for cls in runs:
        if not isinstance(cls, list) or not cls:
            raise InputError("classes must be nonempty arrays of runs")
        for run in cls:
            if not (isinstance(run, list) and len(run) == 2 and is_nat(run[0])
                    and is_nat(run[1]) and run[0] < run[1] <= window):
                raise InputError(f"run {run!r} is not [start, stop] with "
                                 f"start < stop <= {window}")
            spans.append(run)
    spans.sort()
    covered = 0
    for start, stop in spans:
        if start < covered:
            raise InputError(f"element {start} appears in two runs")
        if start > covered:
            raise InputError(f"element {covered} is in no run")
        covered = stop
    if covered != window:
        raise InputError(f"element {covered} is in no run")
    return Partition.from_classes(
        window, ([x for start, stop in cls for x in range(start, stop)] for cls in runs))

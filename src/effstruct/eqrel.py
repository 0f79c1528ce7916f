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
    def from_runs(cls, runs: Sequence[int]) -> "Partition":
        """The partition of [0, sum(runs)) into consecutive intervals, the
        i-th of ``runs[i]`` elements.

        Each interval is rooted at its first element, with every member
        pointing at that root, so no merge runs.  The lengths must be
        positive; that is not checked here.
        """
        p = cls(sum(runs))
        start = 0
        for length in runs:
            p.parent[start:start + length] = [start] * length
            p.size[start] = length
            start += length
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
    """Exact finite map from class size to number of classes of that size.

    Each pair is checked once; a bad count or size 0 is reported after
    every pair's shape, and the entries are sorted only when out of order.
    """

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        out: dict[int, int] = {}
        bad = None
        for pair in entries.items() if isinstance(entries, Mapping) else entries:
            try:
                size, count = pair
            except (TypeError, ValueError):
                size = None
            # an exact int passes at once; anything else takes the general test
            if not (type(size) is int and size >= 0 or is_nat(size)):
                raise InputError(f"character entries must be [size, count] pairs, got {pair!r}")
            if size in out:
                raise InputError(f"duplicate character size {size}")
            out[size] = count
            if bad is None and not (
                    (type(count) is int and count >= 0 or is_nat(count)) and size >= 1):
                bad = InputError(f"bad character entry ({size}, {count})" if is_nat(count) else
                                 f"character entries must be naturals, got ({size!r}, {count!r})")
        if bad is not None:
            raise bad
        in_order = list(out) == sorted(out) and 0 not in out.values()
        self.entries = out if in_order else {s: c for s, c in sorted(out.items()) if c}

    def to_pairs(self) -> list[list[int]]:
        return [[s, c] for s, c in self.entries.items()]

    @classmethod
    def from_pairs(cls, pairs: object) -> "Character":
        """Character from its JSON form ``[[size, count], ...]``."""
        if not isinstance(pairs, list):
            raise InputError("a character must be an array of [size, count] pairs")
        return cls(pairs)

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


def partition_to_json(window: int, runs: list[int]) -> dict:
    """JSON form of a partition of [0, window) into consecutive intervals.

    ``runs`` lists the intervals' lengths in window order: bits ``10110``
    code as ``[4, 5, 1, 8, 10, 11, 1]``.  It is written as given, not copied.
    """
    return {"window": window, "runs": runs}


def partition_from_json(obj: object) -> Partition:
    """Partition from ``{"window": W, "runs": [L0, L1, ...]}``.

    Every length must be an ``int`` of at least 1, and the lengths must
    sum to W, so the intervals tile [0, W): one pass over the R lengths,
    with no sort.  The member-list ``classes`` of format 1 and the
    ``[start, stop]`` runs per class of format 2 are not read.
    """
    if not isinstance(obj, dict) or "window" not in obj or "runs" not in obj:
        raise InputError("partition object must have 'window' and 'runs' keys")
    window = obj["window"]
    runs = obj["runs"]
    if not is_nat(window) or not isinstance(runs, list):
        raise InputError("bad partition field types")
    for length in runs:
        if not (type(length) is int and length >= 1):
            raise InputError(f"run length {length!r} is not an integer >= 1")
    if sum(runs) != window:
        raise InputError(f"run lengths sum to {sum(runs)}, not the window {window}")
    return Partition.from_runs(runs)

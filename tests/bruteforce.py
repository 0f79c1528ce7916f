"""Independent brute-force oracles.

Everything here recomputes results from first principles (naive closure
loops, full enumeration) without touching the library's internal data
structures, so agreement is meaningful.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def bf_cantor_pair(e: int, n: int) -> int:
    """Cantor pairing omega x omega -> omega, (e, n) |-> (e+n)(e+n+1)/2 + e."""
    return (e + n) * (e + n + 1) // 2 + e


def bf_equivalence_closure(n: int, pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Reflexive-symmetric-transitive closure of pairs on range(n)."""
    rel = {(i, i) for i in range(n)}
    for a, b in pairs:
        rel.add((a, b))
        rel.add((b, a))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def bf_classes(n: int, rel: frozenset[tuple[int, int]]) -> list[list[int]]:
    """Classes of an equivalence relation given as a pair set."""
    out = []
    seen: set[int] = set()
    for x in range(n):
        if x in seen:
            continue
        cls = sorted(y for y in range(n) if (x, y) in rel)
        seen.update(cls)
        out.append(cls)
    return sorted(out, key=min)


def bf_relation_of_partition(classes: Sequence[Sequence[int]]) -> frozenset[tuple[int, int]]:
    rel = set()
    for cls in classes:
        for a in cls:
            for b in cls:
                rel.add((a, b))
    return frozenset(rel)


def bf_is_equivalence(n: int, rel: frozenset[tuple[int, int]]) -> bool:
    for x in range(n):
        if (x, x) not in rel:
            return False
    for a, b in rel:
        if (b, a) not in rel:
            return False
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def bf_character(classes: Sequence[Sequence[int]]) -> dict[int, int]:
    tally: dict[int, int] = {}
    for cls in classes:
        tally[len(cls)] = tally.get(len(cls), 0) + 1
    return tally


def bf_oldest_class_min(classes: Sequence[Sequence[int]], k: int) -> Optional[int]:
    minima = [min(cls) for cls in classes if len(cls) == k]
    return min(minima) if minima else None


def bf_generated_classes(pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of the elements ``pairs`` mention under the equivalence they
    generate: each class grows from its least element by adding every
    element paired with a member until nothing is added.  Only mentioned
    elements are visited, so elements may be any naturals."""
    neighbours: dict[int, set[int]] = {}
    for a, b in pairs:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    out: list[list[int]] = []
    seen: set[int] = set()
    for x in sorted(neighbours):
        if x in seen:
            continue
        cls, frontier = {x}, [x]
        while frontier:
            new = neighbours[frontier.pop()] - cls
            cls |= new
            frontier.extend(new)
        seen |= cls
        out.append(sorted(cls))
    return out


def bf_preorder_closure(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of ordered pairs."""
    rel = {(z, z) for z in elements}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def bf_is_preorder(elements: Sequence[str], rel: frozenset[tuple[str, str]]) -> bool:
    for z in elements:
        if (z, z) not in rel:
            return False
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def bf_subset(small: frozenset, large: frozenset) -> bool:
    return small <= large

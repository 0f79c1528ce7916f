"""Positive-information preorder encoding a binary limit set.

The domain splits into two incomparable anchors c and d, an antichain
a_0, a_1, ... above c, and a descending chain b_0 > b_1 > ... below d.
A staged construction assigns each a_i a threshold v(i): the facts
"b_j <= a_i for all j >= v(i)" are enumerated, so exactly v(i) many b's
stay incomparable with a_i.  Odd stages burn a fresh a_i with threshold 0;
even stages read the current approximation of the encoded set B and keep,
for every x in B, exactly one a_i with threshold x, resetting thresholds
whose x has left the approximation.  Once defined, a threshold changes at
most once and only to 0, which keeps the enumerated facts consistent, and
in the limit the set of positive thresholds equals B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import Delta02SetApprox, check_format, is_nat
from .errors import ConstructionBugError, HorizonError, InputError

ELEM_C = "c"
ELEM_D = "d"


def elem_a(i: int) -> str:
    return f"a{i}"


def elem_b(j: int) -> str:
    return f"b{j}"


@dataclass
class VTable:
    """Threshold assignments v(i) with their change discipline.

    ``holders`` indexes ``v`` by value and is built from ``v`` at
    construction.  After that, ``v`` changes only through
    ``_assign_fresh`` and ``_reset_to_zero``, which keep the index up
    to date; ``holders_of`` reads the index, so a direct write to ``v``
    would go unseen by it.
    """

    v: dict[int, int] = field(default_factory=dict)
    defined_at: dict[int, int] = field(default_factory=dict)
    change_count: dict[int, int] = field(default_factory=dict)
    next_fresh: int = 0
    stage: int = 0
    events: list[tuple[int, int, Optional[int], int]] = field(default_factory=list)
    holders: dict[int, set[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.holders = {}
        for i, val in self.v.items():
            self.holders.setdefault(val, set()).add(i)

    def holders_of(self, x: int) -> list[int]:
        return sorted(self.holders.get(x, ()))


def _assign_fresh(t: VTable, value: int, stage: int) -> None:
    i = t.next_fresh
    t.next_fresh += 1
    t.v[i] = value
    t.holders.setdefault(value, set()).add(i)
    t.defined_at[i] = stage
    t.change_count[i] = 0
    t.events.append((stage, i, None, value))


def _reset_to_zero(t: VTable, i: int, stage: int) -> None:
    old = t.v[i]
    if t.change_count[i] >= 1:
        raise ConstructionBugError(f"threshold v({i}) changed a second time")
    if old == 0:
        raise ConstructionBugError(f"threshold v({i}) reset while already 0")
    t.v[i] = 0
    t.holders[old].discard(i)
    t.holders.setdefault(0, set()).add(i)
    t.change_count[i] += 1
    t.events.append((stage, i, old, 0))


def preorder_step(t: VTable, gB: Delta02SetApprox) -> VTable:
    """Advance the threshold construction by one stage (in place).

    Only 1 <= x < min(s+1, gB.width) are read.  An x >= gB.width is a
    no-op at every stage: gB.g(x, .) is the constant 0 there.  A
    positive threshold x is only ever assigned when gB.g(x, s) = 1, so x
    never has a holder, and with g = 0 and no holders the loop body
    would reset nothing and assign nothing.
    """
    s = t.stage
    stage = s + 1
    if stage % 2 == 1:
        _assign_fresh(t, 0, stage)
    else:
        for x in range(1, min(s + 1, gB.width)):
            gval = gB.g(x, s)
            holders = t.holders_of(x)
            if gval == 0 and holders:
                for i in holders:
                    _reset_to_zero(t, i, stage)
            elif gval == 1 and not holders:
                _assign_fresh(t, x, stage)
    t.stage = stage
    return t


def run_preorder(gB: Delta02SetApprox, stages: int) -> VTable:
    if stages < 1:
        raise InputError("stage count must be at least 1")
    t = VTable()
    for _ in range(stages):
        preorder_step(t, gB)
    return t


@dataclass(frozen=True)
class PreorderSnapshot:
    """Materialized order on {c, d} union {a_i : i < na} union {b_j : j < nb}."""

    na: int
    nb: int
    leq: frozenset[tuple[str, str]]

    def elements(self) -> list[str]:
        return [ELEM_C, ELEM_D] + [elem_a(i) for i in range(self.na)] + [
            elem_b(j) for j in range(self.nb)
        ]

    def le(self, x: str, y: str) -> bool:
        return (x, y) in self.leq

    def incomparable(self, x: str, y: str) -> bool:
        return not self.le(x, y) and not self.le(y, x)


def materialize(t: VTable, n_a: Optional[int] = None, n_b: Optional[int] = None) -> PreorderSnapshot:
    """Relation snapshot from the fixed skeleton plus the threshold facts.

    Defaults make every assigned threshold visible: one a per stage and
    one b per stage are more than enough.
    """
    na = t.stage if n_a is None else n_a
    nb = t.stage if n_b is None else n_b
    if na < 0 or nb < 0:
        raise InputError("snapshot bounds must be nonnegative")
    leq: set[tuple[str, str]] = set()
    for z in [ELEM_C, ELEM_D] + [elem_a(i) for i in range(na)] + [elem_b(j) for j in range(nb)]:
        leq.add((z, z))
    for i in range(na):
        leq.add((ELEM_C, elem_a(i)))
    for j in range(nb):
        leq.add((elem_b(j), ELEM_D))
        for jj in range(j + 1):  # deeper b's lie below shallower ones
            leq.add((elem_b(j), elem_b(jj)))
    for i in range(na):
        threshold = t.v.get(i)
        if threshold is not None:
            for j in range(threshold, nb):
                leq.add((elem_b(j), elem_a(i)))
    return PreorderSnapshot(na=na, nb=nb, leq=frozenset(leq))


def incomparable_b_count(snap: PreorderSnapshot, i: int) -> int:
    """How many materialized b's are incomparable with a_i.

    Equals the threshold v(i) whenever it is defined and within bounds;
    a fully fresh a_i is incomparable with every b.
    """
    if not 0 <= i < snap.na:
        raise InputError(f"index {i} outside the snapshot")
    return sum(1 for j in range(snap.nb) if snap.incomparable(elem_a(i), elem_b(j)))


def fingerprint(t: VTable) -> set[int]:
    """The positive thresholds: in the limit, exactly the encoded set."""
    return {val for val in t.v.values() if val >= 1}


@dataclass(frozen=True)
class ClaimEntry:
    x: int
    in_b: bool
    holders: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return len(self.holders) == (1 if self.in_b else 0)


@dataclass(frozen=True)
class ClaimReport:
    entries: tuple[ClaimEntry, ...]
    zero_count: int
    zero_count_ok: bool
    fingerprint_values: tuple[int, ...]
    expected_members: tuple[int, ...]
    required_stages: int

    @property
    def fingerprint_match(self) -> bool:
        return self.fingerprint_values == self.expected_members

    @property
    def all_ok(self) -> bool:
        return (
            all(entry.ok for entry in self.entries)
            and self.zero_count_ok
            and self.fingerprint_match
        )


def required_stages_for(gB: Delta02SetApprox, horizon_x: int) -> int:
    """Stages needed before membership up to horizon_x is certified."""
    return gB.stabilization_stage(horizon_x) + 1 + 2 * (horizon_x + 1)


def verify_claim(t: VTable, gB: Delta02SetApprox, horizon_x: int) -> ClaimReport:
    """Check the limit identity between thresholds and the encoded set.

    For every 1 <= x <= horizon_x: x in B iff exactly one i holds
    v(i) = x, and no i holds it otherwise.  The zero threshold must be
    held by at least horizon_x many indices (the finite stand-in for
    "infinitely many"), and the positive thresholds up to the horizon
    must reproduce B exactly.
    """
    if horizon_x < 0:
        raise InputError("horizon must be nonnegative")
    required = required_stages_for(gB, horizon_x)
    if t.stage < required:
        raise HorizonError(
            f"construction ran {t.stage} stages; horizon {horizon_x} "
            f"requires at least {required}",
            required_stages=required,
        )
    entries = tuple(
        ClaimEntry(x=x, in_b=gB.limit(x) == 1, holders=tuple(t.holders_of(x)))
        for x in range(1, horizon_x + 1)
    )
    zero_count = len(t.holders_of(0))
    expected = tuple(sorted(gB.members(horizon_x) - {0}))
    fp = tuple(sorted(v for v in fingerprint(t) if v <= horizon_x))
    return ClaimReport(
        entries=entries,
        zero_count=zero_count,
        zero_count_ok=zero_count >= horizon_x,
        fingerprint_values=fp,
        expected_members=expected,
        required_stages=required,
    )


def snapshot_to_json(snap: PreorderSnapshot) -> dict:
    return {
        "format": 1,
        "na": snap.na,
        "nb": snap.nb,
        "leq": sorted([x, y] for x, y in snap.leq),
    }


def snapshot_from_json(obj: object) -> PreorderSnapshot:
    if not isinstance(obj, dict):
        raise InputError("snapshot must be a format-1 object")
    check_format(obj)
    na, nb, leq = obj.get("na"), obj.get("nb"), obj.get("leq")
    if not is_nat(na) or not is_nat(nb):
        raise InputError("snapshot 'na' and 'nb' must be naturals")
    if not isinstance(leq, list) or not all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
        for p in leq
    ):
        raise InputError("snapshot 'leq' must be an array of [string, string] pairs")
    return PreorderSnapshot(na=na, nb=nb, leq=frozenset((x, y) for x, y in leq))

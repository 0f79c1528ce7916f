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
from functools import cached_property
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
    """The order on {c, d} union {a_i : i < na} union {b_j : j < nb}.

    The skeleton is fixed: c <= a_i, b_j <= d, and b_j <= b_jj for
    j >= jj.  The only other facts are b_j <= a_i for j >= thresholds[i],
    where thresholds[i] is v(i) when it is defined and below nb, and nb
    otherwise.  No a lies below a b, so exactly thresholds[i] of the b's
    are incomparable with a_i.  In this normal form two snapshots are
    equal exactly when their ``leq`` sets are.
    """

    na: int
    nb: int
    thresholds: tuple[int, ...]

    def elements(self) -> list[str]:
        return [ELEM_C, ELEM_D] + [elem_a(i) for i in range(self.na)] + [
            elem_b(j) for j in range(self.nb)
        ]

    @cached_property
    def leq(self) -> frozenset[tuple[str, str]]:
        """Every pair x <= y, O(na*nb + nb^2) of them."""
        a = [elem_a(i) for i in range(self.na)]
        b = [elem_b(j) for j in range(self.nb)]
        pairs = {(z, z) for z in self.elements()}
        pairs.update((ELEM_C, x) for x in a)
        pairs.update((y, ELEM_D) for y in b)
        pairs.update((b[j], b[jj]) for j in range(self.nb) for jj in range(j))
        pairs.update((b[j], a[i]) for i, v in enumerate(self.thresholds)
                     for j in range(v, self.nb))
        return frozenset(pairs)


def materialize(t: VTable, n_a: Optional[int] = None, n_b: Optional[int] = None) -> PreorderSnapshot:
    """Snapshot of the first n_a a's and n_b b's, in O(n_a).

    Defaults make every assigned threshold visible: one a per stage and
    one b per stage are more than enough.
    """
    na = t.stage if n_a is None else n_a
    nb = t.stage if n_b is None else n_b
    if na < 0 or nb < 0:
        raise InputError("snapshot bounds must be nonnegative")
    thresholds = tuple(min(t.v.get(i, nb), nb) for i in range(na))
    return PreorderSnapshot(na=na, nb=nb, thresholds=thresholds)


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
    return {"format": 2, "na": snap.na, "nb": snap.nb, "thresholds": list(snap.thresholds)}


def snapshot_from_json(obj: object) -> PreorderSnapshot:
    if not isinstance(obj, dict):
        raise InputError("snapshot must be a format-2 object")
    check_format(obj, version=2)
    na, nb, thresholds = obj.get("na"), obj.get("nb"), obj.get("thresholds")
    if not is_nat(na) or not is_nat(nb):
        raise InputError("snapshot 'na' and 'nb' must be naturals")
    if not isinstance(thresholds, list) or len(thresholds) != na or not all(
        is_nat(v) and v <= nb for v in thresholds
    ):
        raise InputError(f"snapshot 'thresholds' must be an array of {na} naturals <= nb")
    return PreorderSnapshot(na=na, nb=nb, thresholds=tuple(thresholds))

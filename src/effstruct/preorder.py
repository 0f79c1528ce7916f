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

A run steps only to the settle stage P = max(T, W) + 2, where W is the
width and T = stabilization_stage(W - 1), and keeps the rest as a count.
Claim: past P a step only gives a fresh a_i the threshold 0 at each odd
stage.  Proof: an even stage s+1 reads g(x, s) for 1 <= x < min(s+1, W);
no x >= W is read or ever held.  Let e be the first even stage with
e - 1 >= T and e >= W, so e <= max(T + 1, W) + 1 <= P.  At e every x < W
is read at its limit B(x): an x in B with no holder gets one, and the
holders of an x not in B are reset to 0.  After e an x in B has exactly
one holder, since a positive x is assigned only when it has none, and an
x not in B has none.  Every later even stage reads the same limits, so it
finds each x in B held and each x not in B free, and resets and assigns
nothing.  Odd stages always assign a fresh 0.  The once-only change rule,
checked online by the steps, needs no check past P: no threshold changes
there.
"""

from __future__ import annotations

from typing import Optional

from .core import Delta02SetApprox, Record, check_format, is_nat
from .errors import ConstructionBugError, HorizonError, InputError

ELEM_C = "c"
ELEM_D = "d"


def elem_a(i: int) -> str:
    return f"a{i}"


def elem_b(j: int) -> str:
    return f"b{j}"


class VTable(Record):
    """Threshold assignments v(i) with their change discipline.

    A threshold changes only by a reset, and a reset sets it to 0, so a
    second change would be a reset of a 0: the "reset while already 0"
    guard of :func:`_reset_to_zero` is the once-only rule, and no change
    count is kept.

    ``holders`` indexes ``v`` by value and is built from ``v`` at
    construction.  After that, ``v`` changes only through
    ``_assign_fresh`` and ``_reset_to_zero``, which keep the index up
    to date; ``holders_of`` reads the index, so a direct write to ``v``
    would go unseen by it.

    ``tail`` counts the a's that :func:`run_preorder` assigned past its
    settle stage without stepping: a_i for len(v) <= i < len(v) + tail,
    each given the threshold 0 at one of the last ``tail`` odd stages up to
    ``stage`` and never changed.  They are in none of ``v``, ``events`` and
    ``holders``, and a table with a tail is not stepped further.
    """

    __slots__ = ("v", "stage", "events", "tail", "holders")
    _fields = __slots__[:-1]
    __hash__ = None

    def __init__(self, v: Optional[dict[int, int]] = None, stage: int = 0):
        self.v = {} if v is None else v
        self.stage = stage
        self.events: list[tuple[int, int, Optional[int], int]] = []
        self.tail = 0
        self.holders: dict[int, set[int]] = {}
        for i, val in self.v.items():
            self.holders.setdefault(val, set()).add(i)

    def holders_of(self, x: int) -> list[int]:
        return sorted(self.holders.get(x, ()))


def _assign_fresh(t: VTable, value: int, stage: int) -> None:
    i = len(t.v)   # a_0, a_1, ... are assigned in index order
    t.v[i] = value
    t.holders.setdefault(value, set()).add(i)
    t.events.append((stage, i, None, value))


def _reset_to_zero(t: VTable, i: int, stage: int) -> None:
    old = t.v[i]
    if old == 0:
        raise ConstructionBugError(f"threshold v({i}) reset while already 0")
    t.v[i] = 0
    t.holders[old].discard(i)
    t.holders.setdefault(0, set()).add(i)
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


def settle_stage(gB: Delta02SetApprox) -> int:
    """P = max(stabilization_stage(width - 1), width) + 2: past it a step
    only gives a fresh a_i the threshold 0 at each odd stage (module
    docstring)."""
    return max(gB.stabilization_stage(gB.width - 1), gB.width) + 2


def run_preorder(gB: Delta02SetApprox, stages: int) -> VTable:
    """Step to min(stages, P), then count the odd stages left as the tail."""
    if stages < 1:
        raise InputError("stage count must be at least 1")
    t = VTable()
    for _ in range(min(stages, settle_stage(gB))):
        preorder_step(t, gB)
    t.tail = (stages + 1) // 2 - (t.stage + 1) // 2
    t.stage = stages
    return t


class PreorderSnapshot(Record):
    """The order on {c, d} union {a_i : i < na} union {b_j : j < nb}.

    The skeleton is fixed: c <= a_i, b_j <= d, and b_j <= b_jj for
    j >= jj.  The only other facts are b_j <= a_i for j >= t_i, where t_i
    is v(i) when it is defined and below nb, and nb otherwise.  No a lies
    below a b, so exactly t_i of the b's are incomparable with a_i.

    The vector (t_0, ..., t_{na-1}) is kept in a canonical form: strip
    its trailing run of nb, then its trailing run of 0.  ``thresholds``
    is what is left, ``zeros`` the length of the stripped 0 run, and every
    later a has threshold nb.  So ``thresholds`` ends in neither 0 nor,
    when ``zeros`` is 0, nb, and with nb = 0 both are empty.  In this form
    two snapshots are equal exactly when their ``leq`` sets are.
    """

    __slots__ = ("na", "nb", "thresholds", "zeros", "_leq")
    _fields = __slots__[:-1]

    def __init__(self, na: int, nb: int, thresholds: tuple[int, ...], zeros: int):
        self.na, self.nb, self.thresholds, self.zeros = na, nb, thresholds, zeros
        self._leq: Optional[frozenset[tuple[str, str]]] = None

    def elements(self) -> list[str]:
        return [ELEM_C, ELEM_D] + [elem_a(i) for i in range(self.na)] + [
            elem_b(j) for j in range(self.nb)
        ]

    @property
    def leq(self) -> frozenset[tuple[str, str]]:
        """Every pair x <= y, O(na*nb + nb^2) of them, built on first read."""
        if self._leq is None:
            self._leq = self._order()
        return self._leq

    def _order(self) -> frozenset[tuple[str, str]]:
        a = [elem_a(i) for i in range(self.na)]
        b = [elem_b(j) for j in range(self.nb)]
        pairs = {(z, z) for z in self.elements()}
        pairs.update((ELEM_C, x) for x in a)
        pairs.update((y, ELEM_D) for y in b)
        pairs.update((b[j], b[jj]) for j in range(self.nb) for jj in range(j))
        # the a's with threshold nb lie above no b
        stated = self.thresholds + (0,) * self.zeros
        pairs.update((b[j], a[i]) for i, v in enumerate(stated) for j in range(v, self.nb))
        return frozenset(pairs)


def materialize(t: VTable) -> PreorderSnapshot:
    """Snapshot of the first n a's and n b's for n stages, in O(len(t.v)).

    A threshold is below the stage that set it, so n b's show each one.
    An even stage can assign several a's, so a run stopped early may have
    assigned a's past a_{n-1}, and those are left out.  The tail's a's
    follow the stepped ones, with threshold 0, and every a no stage
    assigned has threshold n; neither is spelled out.
    """
    n = t.stage
    end = min(max(t.v, default=-1) + 1, n)   # a's past the last assigned one have threshold n
    head = [min(t.v.get(i, n), n) for i in range(end)]
    zeros = min(t.tail, n - end)
    if not zeros:
        while head and head[-1] == n:
            head.pop()
    while head and head[-1] == 0:
        head.pop()
        zeros += 1
    return PreorderSnapshot(na=n, nb=n, thresholds=tuple(head), zeros=zeros)


def fingerprint(t: VTable) -> set[int]:
    """The positive thresholds: in the limit, exactly the encoded set."""
    return {val for val in t.v.values() if val >= 1}


class ClaimEntry(Record):
    __slots__ = ("x", "in_b", "holders")

    def __init__(self, x: int, in_b: bool, holders: tuple[int, ...]):
        self.x, self.in_b, self.holders = x, in_b, holders

    @property
    def ok(self) -> bool:
        return len(self.holders) == (1 if self.in_b else 0)


class ClaimReport(Record):
    __slots__ = ("entries", "zero_count", "zero_count_ok", "fingerprint_values",
                 "expected_members")

    def __init__(self, entries: tuple[ClaimEntry, ...], zero_count: int, zero_count_ok: bool,
                 fingerprint_values: tuple[int, ...], expected_members: tuple[int, ...]):
        self.entries, self.zero_count, self.zero_count_ok = entries, zero_count, zero_count_ok
        self.fingerprint_values, self.expected_members = fingerprint_values, expected_members

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
        ClaimEntry(x=x, in_b=gB.liminf(x) == 1, holders=tuple(t.holders_of(x)))
        for x in range(1, horizon_x + 1)
    )
    zero_count = len(t.holders.get(0, ())) + t.tail
    fp = tuple(sorted(v for v in fingerprint(t) if v <= horizon_x))
    return ClaimReport(
        entries=entries,
        zero_count=zero_count,
        zero_count_ok=zero_count >= horizon_x,
        fingerprint_values=fp,
        expected_members=tuple(e.x for e in entries if e.in_b),
    )


def snapshot_to_json(snap: PreorderSnapshot) -> dict:
    """Format 3: the snapshot's own fields."""
    return {"format": 3, "na": snap.na, "nb": snap.nb, "thresholds": list(snap.thresholds),
            "zeros": snap.zeros}


def snapshot_from_json(obj: object) -> PreorderSnapshot:
    """Load a format-3 snapshot in the canonical form of
    :class:`PreorderSnapshot`; every other form is refused."""
    if not isinstance(obj, dict):
        raise InputError("snapshot must be a format-3 object")
    check_format(obj, versions=(3,))
    na, nb, zeros = obj.get("na"), obj.get("nb"), obj.get("zeros")
    thresholds = obj.get("thresholds")
    if not (is_nat(na) and is_nat(nb) and is_nat(zeros)):
        raise InputError("snapshot 'na', 'nb' and 'zeros' must be naturals")
    if not (isinstance(thresholds, list) and len(thresholds) + zeros <= na
            and all(is_nat(v) and v <= nb for v in thresholds)):
        raise InputError(f"snapshot 'thresholds' must be an array of at most {na} - 'zeros' "
                         "naturals <= nb")
    last = thresholds[-1] if thresholds else None
    if last == 0 or last == nb and not zeros or zeros and not nb:
        raise InputError("snapshot 'thresholds' must not end in 0, nor in nb when 'zeros' is "
                         "0, and 'zeros' must be 0 when nb is")
    return PreorderSnapshot(na=na, nb=nb, thresholds=tuple(thresholds), zeros=zeros)

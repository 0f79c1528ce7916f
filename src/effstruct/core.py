"""Arithmetic substrate: stage pairing and ultimately periodic sequences.

Stage schedules are driven by the Cantor pairing function.  Every limit
taken anywhere in this package is a limit of an ultimately periodic
sequence, which makes it exactly computable: once the prefix is consumed
the values repeat, so liminf and limsup are the min and max of the period
and a limit exists precisely when the period is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import InputError


def cantor_pair(e: int, n: int) -> int:
    """Bijection omega x omega -> omega, (e, n) |-> (e+n)(e+n+1)/2 + e."""
    if e < 0 or n < 0:
        raise InputError("cantor_pair arguments must be nonnegative")
    return (e + n) * (e + n + 1) // 2 + e


def cantor_unpair(s: int) -> tuple[int, int]:
    """Inverse of :func:`cantor_pair`: the pair ``(e, n)`` with ``cantor_pair(e, n) == s``."""
    if s < 0:
        raise InputError("stage index must be nonnegative")
    w = (math.isqrt(8 * s + 1) - 1) // 2
    e = s - w * (w + 1) // 2
    return e, w - e


def is_nat(v: object) -> bool:
    """True for a nonnegative ``int``; bools, floats and strings are not naturals."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_format(obj: dict, default: object = None, version: int = 1) -> None:
    """Accept only ``"format": version``; an absent key reads as ``default``.

    ``true`` and ``1.0`` compare equal to 1 in Python but are not versions.
    """
    found = obj.get("format", default)
    if not (is_nat(found) and found == version):
        raise InputError(f"unsupported format version {found!r} (expected {version})")


def _as_nat_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(values)
    for v in out:
        if not is_nat(v):
            raise InputError(f"{what} must contain nonnegative integers, got {v!r}")
    return out


@dataclass(frozen=True)
class UPSeq:
    """Ultimately periodic sequence of naturals.

    ``value(s)`` is ``prefix[s]`` for ``s < len(prefix)`` and cycles
    through ``period`` afterwards.  The period must be nonempty.
    """

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", _as_nat_tuple(self.prefix, "prefix"))
        object.__setattr__(self, "period", _as_nat_tuple(self.period, "period"))
        if not self.period:
            raise InputError("period must be nonempty")


class SeqLimits(NamedTuple):
    liminf: int
    limsup: int
    limit: Optional[int]


def upseq_eval(q: UPSeq, s: int) -> int:
    """Value of the sequence at index ``s``."""
    if s < 0:
        raise InputError("sequence index must be nonnegative")
    if s < len(q.prefix):
        return q.prefix[s]
    return q.period[(s - len(q.prefix)) % len(q.period)]


def upseq_limits(q: UPSeq) -> SeqLimits:
    """Exact liminf / limsup / limit of the sequence.

    The prefix is irrelevant: liminf is the minimum of the period,
    limsup the maximum, and a limit exists iff the period is constant.
    """
    lo = min(q.period)
    hi = max(q.period)
    return SeqLimits(lo, hi, lo if lo == hi else None)


def upseq_to_json(q: UPSeq) -> dict:
    return {"prefix": list(q.prefix), "period": list(q.period)}


def upseq_from_json(obj: object) -> UPSeq:
    if not isinstance(obj, dict) or "prefix" not in obj or "period" not in obj:
        raise InputError("sequence object must have 'prefix' and 'period' keys")
    prefix, period = obj["prefix"], obj["period"]
    if not isinstance(prefix, list) or not isinstance(period, list):
        raise InputError("'prefix' and 'period' must be JSON arrays")
    return UPSeq(tuple(prefix), tuple(period))


@dataclass(frozen=True)
class Delta02SetApprox:
    """Binary limit approximation of a set B with 0 not in B.

    Each column is {0,1}-valued with a constant period, so the limit
    B(x) = lim_s g(x, s) exists for every x.  Columns beyond the table
    default to the constant 0 sequence, i.e. B is contained in the
    declared column range.
    """

    columns: tuple[UPSeq, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise InputError("a set approximation needs at least column 0")
        for x, col in enumerate(self.columns):
            if not isinstance(col, UPSeq):
                raise InputError("table columns must be UPSeq values")
            if any(v not in (0, 1) for v in col.prefix + col.period):
                raise InputError(f"column {x} is not {{0,1}}-valued")
            if len(set(col.period)) != 1:
                raise InputError(f"column {x} has a non-constant period; no limit")
        if upseq_limits(self.columns[0]).limit != 0:
            raise InputError("column 0 must have limit 0 (the set never contains 0)")

    @property
    def width(self) -> int:
        return len(self.columns)

    def g(self, x: int, s: int) -> int:
        if x < 0:
            raise InputError("set element must be nonnegative")
        if x >= self.width:
            return 0
        return upseq_eval(self.columns[x], s)

    def limit(self, x: int) -> int:
        if x < 0:
            raise InputError("set element must be nonnegative")
        if x >= self.width:
            return 0
        lim = upseq_limits(self.columns[x]).limit
        assert lim is not None  # guaranteed by validation
        return lim

    def members(self, bound: int) -> frozenset[int]:
        """B restricted to [0, bound]."""
        return frozenset(x for x in range(bound + 1) if self.limit(x) == 1)

    def stabilization_stage(self, bound: int) -> int:
        """Least stage from which g(x, .) is constant for all x <= bound."""
        return max((len(self.columns[x].prefix) for x in range(min(bound, self.width - 1) + 1)), default=0)


def delta02_to_json(b: Delta02SetApprox) -> dict:
    return {"format": 1, "columns": [upseq_to_json(c) for c in b.columns]}


def delta02_from_json(obj: object) -> Delta02SetApprox:
    if not isinstance(obj, dict) or not isinstance(obj.get("columns"), list):
        raise InputError("set approximation must be an object with a 'columns' array")
    check_format(obj, default=1)
    return Delta02SetApprox(tuple(upseq_from_json(c) for c in obj["columns"]))

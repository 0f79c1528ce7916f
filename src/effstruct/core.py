"""Arithmetic substrate: stage pairing, ultimately periodic sequences and tables.

Stage schedules are driven by the Cantor pairing function.  Every limit
taken anywhere in this package is a limit of an ultimately periodic
sequence, which makes it exactly computable: once the prefix is consumed
the values repeat, so liminf and limsup are the min and max of the period
and a limit exists precisely when the period is constant.  The one table
of such sequences is :class:`UPTable`, with one codec: ``pi01.GTable`` is
read through its liminf and :class:`Delta02SetApprox` through its limit.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

from .errors import InputError


def cantor_unpair(s: int) -> tuple[int, int]:
    """The pair ``(e, n)`` with ``(e+n)(e+n+1)/2 + e == s``: the inverse of
    the Cantor pairing, a bijection omega x omega -> omega."""
    if s < 0:
        raise InputError("stage index must be nonnegative")
    w = (math.isqrt(8 * s + 1) - 1) // 2
    e = s - w * (w + 1) // 2
    return e, w - e


def is_nat(v: object) -> bool:
    """True for a nonnegative ``int``; bools, floats and strings are not naturals."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_format(obj: dict, default: object = None, versions: tuple[int, ...] = (1,)) -> None:
    """Accept only ``"format"`` in ``versions``; an absent key reads as ``default``.

    ``true`` and ``1.0`` compare equal to 1 in Python but are not versions.
    """
    found = obj.get("format", default)
    if not (is_nat(found) and found in versions):
        expected = " or ".join(map(str, versions))
        raise InputError(f"unsupported format version {found!r} (expected {expected})")


def _as_nat_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(values)
    for v in out:
        if not is_nat(v):
            raise InputError(f"{what} must contain nonnegative integers, got {v!r}")
    return out


class Record:
    """Value semantics over ``__slots__``, as a dataclass would give them.

    Records of the same type are equal when their fields are, hash by
    them and print as ``Name(field=value, ...)``.  The fields are the
    slots, unless the class declares ``_fields`` to leave out a cache or
    an index, or adds no slots and keeps its base's; a mutable record sets
    ``__hash__ = None``.  A dataclass would compile these methods with
    ``exec`` at every import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields", cls.__slots__ or cls._fields)
        # an attrgetter, not a method: _key(record) is its field value(s)
        cls._fields, cls._key = fields, attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class UPSeq(Record):
    """Ultimately periodic sequence of naturals.

    ``value(s)`` is ``prefix[s]`` for ``s < len(prefix)`` and cycles
    through ``period`` afterwards.  The period must be nonempty.
    """

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: Sequence[int], period: Sequence[int]):
        self.prefix = _as_nat_tuple(prefix, "prefix")
        self.period = _as_nat_tuple(period, "period")
        if not self.period:
            raise InputError("period must be nonempty")


def upseq_eval(q: UPSeq, s: int) -> int:
    """Value of the sequence at index ``s``."""
    if s < 0:
        raise InputError("sequence index must be nonnegative")
    if s < len(q.prefix):
        return q.prefix[s]
    return q.period[(s - len(q.prefix)) % len(q.period)]


def upseq_to_json(q: UPSeq) -> dict:
    return {"prefix": list(q.prefix), "period": list(q.period)}


def upseq_from_json(obj: object) -> UPSeq:
    if not isinstance(obj, dict) or "prefix" not in obj or "period" not in obj:
        raise InputError("sequence object must have 'prefix' and 'period' keys")
    prefix, period = obj["prefix"], obj["period"]
    if not isinstance(prefix, list) or not isinstance(period, list):
        raise InputError("'prefix' and 'period' must be JSON arrays")
    return UPSeq(tuple(prefix), tuple(period))


class UPTable(Record):
    """An eventually periodic table g(x, s): column x is an ultimately
    periodic sequence, and every column at or past the width is the
    constant ``default``.  A kind of table sets ``default``, the ``noun``
    its loader's errors name, and ``_check``, which rejects its bad values.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[UPSeq]):
        self.columns = tuple(columns)
        if not all(isinstance(col, UPSeq) for col in self.columns):
            raise InputError("table columns must be UPSeq values")
        self._check()

    @property
    def width(self) -> int:
        return len(self.columns)

    def g(self, x: int, s: int) -> int:
        if x < 0:
            raise InputError("column index must be nonnegative")
        if x >= self.width:
            return self.default
        return upseq_eval(self.columns[x], s)

    def liminf(self, x: int) -> int:
        """The minimum of column x's period: its limit when the period is constant."""
        if x < 0:
            raise InputError("column index must be nonnegative")
        if x >= self.width:
            return self.default
        return min(self.columns[x].period)

    def column_shape(self, x: int) -> tuple[int, int]:
        """(prefix length, period length), with defaults past the width."""
        if x >= self.width:
            return 0, 1
        col = self.columns[x]
        return len(col.prefix), len(col.period)

    def stabilization_stage(self) -> int:
        """The greatest prefix length of the columns: from it on every
        g(x, .) runs through its period."""
        return max((len(col.prefix) for col in self.columns), default=0)


def table_to_json(t: UPTable) -> dict:
    return {"format": 1, "columns": [upseq_to_json(c) for c in t.columns]}


def table_from_json(cls: type[UPTable], obj: object) -> UPTable:
    """Decode a format-1 table of the kind ``cls``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("columns"), list):
        raise InputError(f"{cls.noun} must be an object with a 'columns' array")
    check_format(obj, default=1)
    return cls(tuple(upseq_from_json(c) for c in obj["columns"]))


class Delta02SetApprox(UPTable):
    """Binary limit approximation of a set B with 0 not in B.

    Each column is {0,1}-valued with a constant period, so the limit
    B(x) = lim_s g(x, s) = liminf(x) exists for every x.  Columns beyond
    the table are the constant 0, so B lies within the declared columns.
    """

    __slots__ = ()
    default, noun = 0, "set approximation"

    def _check(self) -> None:
        if not self.columns:
            raise InputError("a set approximation needs at least column 0")
        for x, col in enumerate(self.columns):
            if any(v not in (0, 1) for v in col.prefix + col.period):
                raise InputError(f"column {x} is not {{0,1}}-valued")
            if len(set(col.period)) != 1:
                raise InputError(f"column {x} has a non-constant period; no limit")
        if self.liminf(0) != 0:
            raise InputError("column 0 must have limit 0 (the set never contains 0)")


delta02_to_json = table_to_json   # the name perfbench's workloads call

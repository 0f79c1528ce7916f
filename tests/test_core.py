"""Pairing and ultimately periodic sequence behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effstruct.core import (
    Delta02SetApprox,
    UPSeq,
    UPTable,
    cantor_unpair,
    table_from_json,
    table_to_json,
    upseq_eval,
    upseq_from_json,
    upseq_to_json,
)
from effstruct.errors import InputError
from effstruct.pi01 import GTable

from bruteforce import bf_cantor_pair


def test_pair_base_cases():
    assert bf_cantor_pair(0, 0) == 0
    # frozen from the closed form (e+n)(e+n+1)/2 + e
    assert bf_cantor_pair(0, 1) == 1
    assert bf_cantor_pair(1, 0) == 2
    assert cantor_unpair(0) == (0, 0)
    assert cantor_unpair(1) == (0, 1)
    assert cantor_unpair(2) == (1, 0)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 1000), st.integers(0, 1000))
def test_pair_bijection(e, n):
    assert cantor_unpair(bf_cantor_pair(e, n)) == (e, n)


def test_pair_surjective_prefix():
    # every stage index decodes, and re-encodes to itself
    for s in range(2000):
        e, n = cantor_unpair(s)
        assert bf_cantor_pair(e, n) == s


def test_pair_rejects_negative():
    with pytest.raises(InputError):
        cantor_unpair(-5)


def test_upseq_eval_examples():
    q = UPSeq((3, 1), (2,))
    assert upseq_eval(q, 0) == 3
    assert upseq_eval(q, 5) == 2
    assert upseq_eval(UPSeq((), (4, 7)), 3) == 7  # (3 mod 2) = 1


def test_upseq_validation():
    with pytest.raises(InputError):
        UPSeq((1,), ())
    with pytest.raises(InputError):
        UPSeq((-1,), (0,))
    with pytest.raises(InputError):
        upseq_eval(UPSeq((), (1,)), -1)


def test_liminf_and_limit_examples():
    g = GTable((UPSeq((), (2,)), UPSeq((), (1, 5)), UPSeq((9,), (3, 3))))
    # the prefix is ignored in the liminf; past the width columns are constant 1
    assert [g.liminf(k) for k in range(4)] == [2, 1, 3, 1]
    with pytest.raises(InputError):
        g.liminf(-1)
    b = Delta02SetApprox((UPSeq((1,), (0,)), UPSeq((0, 0), (1, 1)), UPSeq((), (0,))))
    assert [b.liminf(x) for x in range(4)] == [0, 1, 0, 0]
    with pytest.raises(InputError):
        b.liminf(-1)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(0, 9), max_size=8),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    st.integers(0, 60),
)
def test_upseq_periodicity(prefix, period, s):
    q = UPSeq(tuple(prefix), tuple(period))
    s = s + len(prefix)
    assert upseq_eval(q, s + len(period)) == upseq_eval(q, s)


def _column_objects(values):
    """Columns over ``values``, with a constant or a drawn period."""
    periods = st.one_of(st.builds(lambda v, n: [v] * n, st.sampled_from(values), st.integers(1, 3)),
                        st.lists(st.sampled_from(values), min_size=1, max_size=3))
    column = st.builds(lambda p, q: {"prefix": p, "period": q},
                       st.lists(st.sampled_from(values), max_size=4), periods)
    return st.lists(column, max_size=3)


def _allowed(kind, columns):
    """Each kind's value rules, written out: a g table's values are at least 1;
    a set's are bits with a constant period, and column 0 tends to 0."""
    values = [v for c in columns for v in c["prefix"] + c["period"]]
    if kind is GTable:
        return all(v >= 1 for v in values)
    return (bool(columns) and set(values) <= {0, 1} and columns[0]["period"][0] == 0
            and all(len(set(c["period"])) == 1 for c in columns))


def _periodic_from(q, horizon):
    """The least stage from which a scan of ``q`` repeats with its period length."""
    return min(t for t in range(horizon + 1)
               if all(upseq_eval(q, s) == upseq_eval(q, s + len(q.period))
                      for s in range(t, horizon + len(q.period))))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(0, 9), max_size=8),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    st.sampled_from([[1, 2], [0, 1], [0, 1, 2]]).flatmap(_column_objects),
)
def test_liminf_and_limit_against_scan(prefix, period, columns):
    q = UPSeq(tuple(v + 1 for v in prefix), tuple(v + 1 for v in period))
    tail = [upseq_eval(q, s) for s in range(len(prefix), len(prefix) + 10 * len(period))]
    assert GTable((q,)).liminf(0) == min(tail)
    # a binary column with a constant period: the limit is every tail value
    bit = UPSeq(tuple(v % 2 for v in prefix), (period[0] % 2,) * len(period))
    b = Delta02SetApprox((UPSeq((), (0,)), bit))
    assert {b.liminf(1)} == {upseq_eval(bit, s) for s in range(len(prefix), len(prefix) + 10)}
    # one codec for both kinds: each accepts the same object by its own rules, and
    # reads what a scan of the columns reads, its default past the width
    seqs = [UPSeq(c["prefix"], c["period"]) for c in columns]
    for kind, other in ((GTable, Delta02SetApprox), (Delta02SetApprox, GTable)):
        try:
            t = table_from_json(kind, {"columns": columns})
        except InputError:
            assert not _allowed(kind, columns)
            continue
        assert _allowed(kind, columns) and isinstance(t, UPTable) and t.width == len(seqs)
        for x, s in ((x, s) for x in range(len(seqs) + 2) for s in range(12)):
            assert t.g(x, s) == (upseq_eval(seqs[x], s) if x < len(seqs) else kind.default)
        for x, c in enumerate(seqs + [UPSeq((), (kind.default,))] * 2):
            scan = [upseq_eval(c, s) for s in range(len(c.prefix), len(c.prefix) + len(c.period))]
            assert t.liminf(x) == min(scan)
            assert t.column_shape(x) == (len(c.prefix), len(c.period))
        stage = t.stabilization_stage()
        least = max((_periodic_from(c, 8) for c in seqs), default=0)
        # the greatest prefix length: the least such stage unless some prefix
        # ends in its period's last value
        assert stage >= least
        assert stage == least or any(c.prefix[-1:] == c.period[-1:] for c in seqs)
        # no table is of both kinds, so give the other kind these columns directly
        twin = other.__new__(other)
        twin.columns = t.columns
        assert twin != t and t != twin


def test_upseq_json_round_trip():
    q = UPSeq((3, 1), (2, 4))
    assert upseq_from_json(upseq_to_json(q)) == q
    with pytest.raises(InputError):
        upseq_from_json({"prefix": [1]})
    with pytest.raises(InputError):
        upseq_from_json({"prefix": "oops", "period": [1]})


def test_delta02_validation():
    ok = Delta02SetApprox((UPSeq((), (0,)), UPSeq((0, 1), (1,))))
    assert ok.liminf(1) == 1
    assert ok.g(17, 3) == 0  # beyond the table the set is empty
    with pytest.raises(InputError):
        Delta02SetApprox(())
    with pytest.raises(InputError):  # column 0 must settle to 0
        Delta02SetApprox((UPSeq((), (1,)),))
    with pytest.raises(InputError):  # non-constant period has no limit
        Delta02SetApprox((UPSeq((), (0,)), UPSeq((), (0, 1))))
    with pytest.raises(InputError):  # binary values only
        Delta02SetApprox((UPSeq((), (0,)), UPSeq((2,), (0,))))


def test_delta02_stabilization_and_json():
    b = Delta02SetApprox((UPSeq((), (0,)), UPSeq((1, 1, 0), (0,)), UPSeq((0,), (1,))))
    assert b.stabilization_stage() == 3
    assert table_from_json(Delta02SetApprox, table_to_json(b)) == b
    for version in (True, 1.0):
        with pytest.raises(InputError):
            table_from_json(Delta02SetApprox, {**table_to_json(b), "format": version})

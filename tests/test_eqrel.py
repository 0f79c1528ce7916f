"""Partitions and characters against brute force."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effstruct.ceersim import CeerRunner, CeerScript
from effstruct.eqrel import (
    Character,
    Partition,
    character_of,
    partition_from_json,
    partition_to_json,
)
from effstruct.errors import InputError

from bruteforce import (
    bf_character,
    bf_equivalence_closure,
    bf_classes,
    bf_is_equivalence,
    bf_oldest_class_min,
    bf_relation_of_partition,
)
from reference import partition_runs


def test_merge_examples():
    p = Partition(4)
    p.merge(0, 0)
    assert p.classes() == [[0], [1], [2], [3]]
    p.merge(0, 1)
    assert p.classes() == [[0, 1], [2], [3]]
    p.merge(2, 3)
    p.merge(1, 2)
    # transitive closure computed independently
    rel = bf_equivalence_closure(4, [(0, 1), (2, 3), (1, 2)])
    assert p.classes() == bf_classes(4, rel)


def test_merge_out_of_window():
    p = Partition(3)
    for x, y, bad in ((0, 3, 3), (3, 0, 3), (-1, 0, -1), (0, -2, -2), (5, -1, 5), (-1, 7, -1)):
        # x is reported before y when both are outside
        with pytest.raises(InputError, match=rf"^element {bad} outside window \[0, 3\)$"):
            p.merge(x, y)
    with pytest.raises(InputError, match=r"^element 0 outside window \[0, 0\)$"):
        Partition(0).merge(0, 0)
    assert p.classes() == [[0], [1], [2]]  # a rejected merge changes nothing


def test_merge_sequences_stay_equivalences():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 12)
        p = Partition(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))]
        for x, y in pairs:
            p.merge(x, y)
        rel = bf_relation_of_partition(p.classes())
        assert bf_is_equivalence(n, rel)
        assert rel == bf_equivalence_closure(n, pairs)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))))
def test_merge_result_against_bruteforce(case):
    """merge returns None for related elements; otherwise the roots of the
    larger class (x's on a tie) and of the other, whose old sizes it leaves
    readable from ``size``."""
    n, pairs = case
    p = Partition(n)
    done = []
    for x, y in pairs:
        before = bf_classes(n, bf_equivalence_closure(n, done))
        cx = next(c for c in before if x in c)
        cy = next(c for c in before if y in c)
        rx, ry = p.find(x), p.find(y)
        joined = p.merge(x, y)
        done.append((x, y))
        if cx == cy:
            assert joined is None
            continue
        survivor, absorbed = joined
        assert (survivor, absorbed) == ((ry, rx) if len(cx) < len(cy) else (rx, ry))
        assert p.size[survivor] == len(cx) + len(cy)
        assert p.size[absorbed] == min(len(cx), len(cy))
        assert p.find(x) == p.find(y) == survivor
    assert p.classes() == bf_classes(n, bf_equivalence_closure(n, done))


def _script_runner(pairs):
    """A runner that has merged ``pairs``, all at stage 1."""
    runner = CeerRunner(CeerScript(tuple((1, pair) for pair in pairs)))
    runner.advance_to(1)
    return runner


def test_class_size_and_oldest():
    p = Partition(5)
    assert character_of(p) == Character({1: 5})
    p.merge(0, 1)
    assert p.classes() == [[0, 1], [2], [3], [4]]
    assert character_of(p) == Character({1: 3, 2: 1})
    # the oldest class of a size is the one with the least minimum
    runner = _script_runner([(3, 4), (0, 1)])
    assert runner.oldest_class_min(2) == 0
    assert runner.oldest_class_min(3) is None
    for k in (0, 1):   # only sizes of two or more have an oldest class
        with pytest.raises(InputError):
            runner.oldest_class_min(k)


def test_oldest_class_min_against_bruteforce():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(1, 12)
        p = Partition(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        for x, y in pairs:
            p.merge(x, y)
        runner = _script_runner(pairs)
        assert [list(c) for c in runner.classes] == [c for c in p.classes() if len(c) > 1]
        for k in range(2, 7):
            assert runner.oldest_class_min(k) == bf_oldest_class_min(runner.classes, k)


def _merged_intervals(runs):
    """The partition into consecutive intervals of these lengths, each
    joined up one neighbour at a time."""
    p = Partition(sum(runs))
    start = 0
    for length in runs:
        for x in range(start + 1, start + length):
            p.merge(x - 1, x)
        start += length
    return p


def test_from_runs_matches_merges():
    rng = random.Random(13)
    for _ in range(200):
        runs = [rng.randint(1, 6) for _ in range(rng.randint(0, 8))]
        n = sum(runs)
        merged = _merged_intervals(runs)
        built = Partition.from_runs(runs)
        assert built.window == n
        assert built.classes() == merged.classes()
        assert character_of(built) == character_of(merged)
        for _ in range(rng.randint(0, 6) if n else 0):   # it stays a working union-find
            x, y = rng.randrange(n), rng.randrange(n)
            built.merge(x, y)
            merged.merge(x, y)
            assert built.find(x) == built.find(y)
        assert built.classes() == merged.classes()
        assert character_of(built) == character_of(merged)


def test_character_examples():
    p = Partition(3)
    assert character_of(p) == Character({1: 3})
    p.merge(0, 1)
    assert character_of(p) == Character({1: 1, 2: 1})


def test_character_against_bruteforce():
    rng = random.Random(11)
    for _ in range(250):
        n = rng.randint(1, 200)
        p = Partition(n)
        for _ in range(rng.randint(0, n)):
            p.merge(rng.randrange(n), rng.randrange(n))
        assert character_of(p).entries == bf_character(p.classes())


def test_character_validation_and_pairs():
    with pytest.raises(InputError):
        Character({0: 1})
    ch = Character({4: 1, 1: 2})
    assert ch.to_pairs() == [[1, 2], [4, 1]]
    assert Character.from_pairs(ch.to_pairs()) == ch
    with pytest.raises(InputError):
        Character.from_pairs([[1, 1], [1, 2]])
    for pairs in ([[True, 1]], [[1, True]], [[1.0, 1]], [["2", 1]], [[[2], 1]], [2], 2):
        with pytest.raises(InputError):
            Character.from_pairs(pairs)


def test_character_error_messages():
    # a pair's shape, size and uniqueness are checked over every pair before
    # a bad count or size 0 is reported, the first of those in pair order
    cases = [
        ([[4, 1], [True, 1]], "character entries must be [size, count] pairs, got [True, 1]"),
        ([[0, 1], [True, 1]], "character entries must be [size, count] pairs, got [True, 1]"),
        ([[1, -1], [1, 2]], "duplicate character size 1"),
        ([[1, "x"], [0, 2], [3]], "character entries must be [size, count] pairs, got [3]"),
        ([[1, "x"], [0, 2]], "character entries must be naturals, got (1, 'x')"),
        ([[0, 2], [1, "x"]], "bad character entry (0, 2)"),
        ([[3, 1], [1, 1.0]], "character entries must be naturals, got (1, 1.0)"),
    ]
    for pairs, message in cases:
        with pytest.raises(InputError) as err:
            Character.from_pairs(pairs)
        assert str(err.value) == message, pairs
    # sizes of count 0 are dropped, in order or not, and the entries kept by size
    assert Character.from_pairs([[1, 2], [3, 0], [5, 1]]).entries == {1: 2, 5: 1}
    assert Character.from_pairs([[5, 1], [3, 0], [1, 2]]).entries == {1: 2, 5: 1}
    assert list(Character({5: 1, 1: 2}).entries) == [1, 5]


def test_partition_json_examples():
    p = Partition(5)
    p.merge(0, 1)
    p.merge(2, 4)
    p.merge(3, 2)
    obj = partition_to_json(5, partition_runs(p))
    assert obj == {"window": 5, "runs": [2, 3]}
    assert partition_from_json(obj) == p
    assert partition_from_json({"window": 0, "runs": []}) == Partition(0)
    assert partition_from_json({"window": 3, "runs": [1, 1, 1]}) == Partition(3)
    for bad in (
        {"window": 3, "runs": [0, 3]},                         # an empty class
        {"window": 3, "runs": [-1, 4]},                        # a negative length
        {"window": 3, "runs": [True, 2]},                      # a bool length
        {"window": 3, "runs": [2.0, 1]},                       # a float length
        {"window": 3, "runs": ["2", 1]},                       # a string length
        {"window": 3, "runs": [[2], 1]},                       # a nested list
        {"window": 3, "runs": [[[0, 2]], [[2, 3]]]},           # the format-2 [start, stop] runs
        {"window": 3, "classes": [[0, 1], [2]]},               # the format-1 member lists
        {"window": 3, "runs": [2]},                            # lengths short of the window
        {"window": 3, "runs": [2, 2]},                         # lengths past the window
        {"window": 3, "runs": {"0": 3}},                       # runs not an array
        {"window": 3, "runs": 3},
        {"window": True, "runs": [1]},                         # a bool window
        {"window": 3.0, "runs": [3]},
        {"runs": [3]},
        [3],
    ):
        with pytest.raises(InputError):
            partition_from_json(bad)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(1, 6), max_size=12))
def test_partition_json_round_trip(runs):
    obj = json.loads(json.dumps({"window": sum(runs), "runs": runs}))
    back = partition_from_json(obj)
    assert back == _merged_intervals(runs)
    assert partition_to_json(back.window, partition_runs(back)) == obj

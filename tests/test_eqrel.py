"""Partitions and characters against brute force."""

import random

import pytest

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
    with pytest.raises(InputError):
        p.merge(0, 3)
    with pytest.raises(InputError):
        p.merge(-1, 0)


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
        assert list(runner.classes) == [c for c in p.classes() if len(c) > 1]
        for k in range(2, 7):
            assert runner.oldest_class_min(k) == bf_oldest_class_min(runner.classes, k)


def test_from_classes_matches_merges():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 30)
        merged = Partition(n)
        for _ in range(rng.randint(0, n)):
            merged.merge(rng.randrange(n), rng.randrange(n))
        # any class order and member order; singletons may be left out
        classes = [rng.sample(c, len(c)) for c in merged.classes()
                   if len(c) > 1 or rng.random() < 0.5]
        rng.shuffle(classes)
        built = Partition.from_classes(n, classes)
        assert built.classes() == merged.classes()
        assert character_of(built) == character_of(merged)
        for _ in range(3):   # each root's minimum is set as merges set it
            stable = set(rng.sample(range(n), rng.randint(0, n)))
            assert character_of(built, stable) == character_of(merged, stable)
        for _ in range(rng.randint(0, 6)):   # it stays a working union-find
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
    assert character_of(p, stable_only={0}) == Character({2: 1})
    with pytest.raises(InputError):
        character_of(p, stable_only={5})


def test_character_against_bruteforce():
    rng = random.Random(11)
    for _ in range(250):
        n = rng.randint(1, 200)
        p = Partition(n)
        for _ in range(rng.randint(0, n)):
            p.merge(rng.randrange(n), rng.randrange(n))
        stable = set(rng.sample(range(n), rng.randint(0, n))) if rng.random() < 0.5 else None
        got = character_of(p, stable)
        assert got.entries == bf_character(p.classes(), stable)


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


def test_partition_json_round_trip():
    p = Partition(5)
    p.merge(0, 3)
    p.merge(1, 4)
    obj = partition_to_json(p)
    assert obj == {"window": 5, "classes": [[0, 3], [1, 4], [2]]}
    assert partition_from_json(obj) == p
    assert partition_from_json({"window": 5, "classes": [[4, 1], [2], [3, 0]]}) == p
    with pytest.raises(InputError):
        partition_from_json({"window": 2, "classes": [[0]]})  # incomplete cover
    with pytest.raises(InputError):
        partition_from_json({"window": 2, "classes": [[0, 1], [1]]})  # overlap
    for bad in (
        {"window": True, "classes": [[0]]},
        {"window": 2, "classes": [[False, True]]},
        {"window": 2, "classes": [[0], [True]]},
    ):
        with pytest.raises(InputError):
            partition_from_json(bad)

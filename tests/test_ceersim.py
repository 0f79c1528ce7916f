"""Ceer family simulation: scripts, churn generators, trackers."""

import random

import pytest

from effstruct import ceersim
from effstruct.ceersim import (
    CeerFamily,
    CeerRunner,
    CeerScript,
    ChurnGenerator,
    family_from_json,
    family_to_json,
    limit_has_class_of_size,
)
from effstruct.errors import InputError

from bruteforce import bf_relation_of_partition, bf_subset
from reference import ceer_snapshot, runner_partition


def _random_script(rng, elements=10, events=12, last_stage=40):
    evs = sorted(
        (rng.randint(0, last_stage), (rng.randrange(elements), rng.randrange(elements)))
        for _ in range(events)
    )
    return CeerScript(tuple(evs))


def test_script_validation():
    CeerScript(((0, (1, 2)), (3, (0, 1))))
    with pytest.raises(InputError):
        CeerScript(((3, (0, 1)), (0, (1, 2))))  # unsorted
    with pytest.raises(InputError):
        CeerScript(((0, (-1, 2)),))
    # stage, x and y are naturals: no strings, floats or bools
    for bad in ("a", 1.5, True):
        with pytest.raises(InputError):
            CeerScript(((bad, (0, 1)),))
        with pytest.raises(InputError):
            CeerScript(((1, (bad, 1)),))
        with pytest.raises(InputError):
            CeerScript(((1, (0, bad)),))


def test_churn_validation():
    ChurnGenerator(2, 1)
    with pytest.raises(InputError):
        ChurnGenerator(1, 1)
    with pytest.raises(InputError):
        ChurnGenerator(3, 0)
    for bad in ("3", 2.5, True):
        with pytest.raises(InputError):
            ChurnGenerator(bad, 1)
        with pytest.raises(InputError):
            ChurnGenerator(3, bad)


def test_script_runner_sized_by_mentioned_elements():
    # the union-find holds one slot per element the script mentions, not per value
    runner = CeerRunner(CeerScript(((1, (0, 10**12)),)))
    assert len(runner.uf.parent) == 2
    assert not runner.has_class_of_size(2)
    runner.advance_to(1)
    assert len(runner.uf.parent) == 2
    assert runner.has_class_of_size(2)
    assert not runner.has_class_of_size(3)
    with pytest.raises(InputError):  # only sizes of two or more have an oldest class
        runner.oldest_class_min(1)
    assert runner.oldest_class_min(2) == 0
    assert runner_partition(runner, 3).classes() == [[0], [1], [2]]


def test_snapshot_examples():
    fam = CeerFamily((CeerScript(()), CeerScript(((1, (0, 1)),))))
    assert ceer_snapshot(fam, 0, 10, 4).classes() == [[0], [1], [2], [3]]
    assert ceer_snapshot(fam, 1, 0, 3).classes() == [[0], [1], [2]]
    assert ceer_snapshot(fam, 1, 1, 3).classes() == [[0, 1], [2]]
    with pytest.raises(InputError):
        ceer_snapshot(fam, 2, 0, 3)


def test_snapshot_respects_out_of_window_links():
    # 0 ~ 5 through element 100: restriction happens after closure on omega
    fam = CeerFamily((CeerScript(((1, (0, 100)), (2, (100, 5)))),))
    snap = ceer_snapshot(fam, 0, 2, 6)
    assert snap.find(0) == snap.find(5)


def test_snapshot_monotone_in_stage():
    rng = random.Random(5)
    for _ in range(30):
        fam = CeerFamily((_random_script(rng),))
        for s in range(0, 41, 3):
            older = bf_relation_of_partition(ceer_snapshot(fam, 0, s, 10).classes())
            newer = bf_relation_of_partition(ceer_snapshot(fam, 0, s + 1, 10).classes())
            assert bf_subset(older, newer)


def test_churn_round_shape():
    fam = CeerFamily((ChurnGenerator(2, 3),))
    # formation at stage 1: block {1,2} is the only size-2 class
    snap = ceer_snapshot(fam, 0, 1, 5)
    assert snap.classes() == [[0], [1, 2], [3], [4]]
    # absorption at stage 4: block joins the class of 0, no size-2 class left
    snap = ceer_snapshot(fam, 0, 4, 5)
    assert snap.classes() == [[0, 1, 2], [3], [4]]
    runner = CeerRunner(fam.member(0))
    runner.advance_to(4)
    assert not runner.has_class_of_size(2)


def test_churn_oldest_minima_strictly_increase():
    gen = ChurnGenerator(3, 2)
    runner = CeerRunner(gen)
    minima = []
    for stage in range(0, 200):
        runner.advance_to(stage)
        m = runner.oldest_class_min(3)
        if m is not None and (not minima or m != minima[-1]):
            minima.append(m)
    assert len(minima) > 10
    assert all(a < b for a, b in zip(minima, minima[1:]))


def test_churn_single_target_class_at_every_stage():
    gen = ChurnGenerator(4, 3)
    fam = CeerFamily((gen,))
    stages = 300
    # the window holds every block formed by the last stage
    window = gen.round_base((stages - 1) // (2 * gen.block_spacing) + 1)
    counts = set()
    for stage in range(stages):
        classes = ceer_snapshot(fam, 0, stage, window).classes()
        counts.add(sum(1 for c in classes if len(c) == 4))
    assert counts == {0, 1}


def test_limit_has_class_of_size_script():
    empty, merged = CeerScript(()), CeerScript(((1, (0, 1)), (5, (2, 3)), (5, (3, 4))))
    assert limit_has_class_of_size(empty, 1) and not limit_has_class_of_size(empty, 2)
    # the limit is the relation after the last event, stage 5
    assert [limit_has_class_of_size(merged, k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    with pytest.raises(InputError):
        limit_has_class_of_size(empty, 0)


def test_limit_has_class_of_size_sized_by_mentioned_elements(monkeypatch):
    # the limit check's union-find has one slot per mentioned element, not per value
    windows = []

    class RecordingPartition(ceersim.Partition):
        def __init__(self, window):
            windows.append(window)
            super().__init__(window)

    monkeypatch.setattr(ceersim, "Partition", RecordingPartition)
    far = CeerScript(((1, (0, 10**12)),))
    assert [limit_has_class_of_size(far, k) for k in (1, 2, 3)] == [True, True, False]
    assert windows == [2, 2]


def test_limit_has_class_of_size_churn():
    # every element ends up in the class of 0: one infinite class, no finite size
    gen = ChurnGenerator(3, 2)
    assert not any(limit_has_class_of_size(gen, k) for k in range(1, 40))
    with pytest.raises(InputError):
        limit_has_class_of_size(gen, 0)


def test_identity_by_minimum_soundness():
    # while the oldest size-k class keeps its minimum, it keeps its members
    rng = random.Random(9)
    for _ in range(40):
        script = _random_script(rng, elements=12, events=14, last_stage=30)
        fam = CeerFamily((script,))
        k = rng.randint(2, 4)
        seen: dict[int, list[int]] = {}
        for s in range(0, 31):
            snap = ceer_snapshot(fam, 0, s, 12)
            minima = [min(c) for c in snap.classes() if len(c) == k]
            if not minima:
                continue
            m = min(minima)
            members = next(c for c in snap.classes() if min(c) == m and len(c) == k)
            if m in seen:
                assert seen[m] == members
            else:
                seen[m] = members


def test_family_json_round_trip():
    fam = CeerFamily(
        (CeerScript(((0, (1, 2)), (4, (0, 1)))), ChurnGenerator(3, 2))
    )
    obj = family_to_json(fam)
    assert obj["members"][1] == {"type": "churn", "k": 3, "spacing": 2}
    assert family_from_json(obj) == fam
    with pytest.raises(InputError):
        family_from_json({"members": [{"type": "mystery"}]})
    for version in (2, True, 1.0, "1"):
        with pytest.raises(InputError):
            family_from_json({"format": version, "members": []})

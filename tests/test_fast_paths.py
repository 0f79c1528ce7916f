"""Differential tests: ceer runners and co-ceer runs against slow reference paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effstruct import coceer, eqrel
from effstruct.ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator, ceer_snapshot
from effstruct.coceer import run_coceer, verify_requirement
from effstruct.errors import UnsupportedQueryError
from effstruct.generators import generate_diagonalization_suite, generate_family

from reference import ReferenceRunner, reference_run_coceer


def _assert_same_queries(runner, ref, sizes):
    for size in sizes:
        assert runner.has_class_of_size(size) == ref.has_class_of_size(size), (ref.stage, size)
        assert runner.oldest_class_min(size) == ref.oldest_class_min(size), (ref.stage, size)


@pytest.mark.parametrize("k", range(2, 9))
def test_churn_closed_form_matches_replay(k):
    window = 41  # cuts through blocks, so restriction to the window is exercised
    for d in range(1, 5):
        gen = ChurnGenerator(k, d)
        fam = CeerFamily((gen,))
        runner, ref = CeerRunner(gen), ReferenceRunner(gen)
        for s in range(201):
            runner.advance_to(s)
            ref.advance_to(s)
            _assert_same_queries(runner, ref, range(1, 41))
            assert ceer_snapshot(fam, 0, s, window).classes() == ref.partition_classes(window)
        assert len(runner.uf.parent) == 0


def _random_script(rng):
    """Small script with events touching 0, self-merges and repeated merges."""
    events = []
    for _ in range(rng.randint(0, 14)):
        x, y = rng.randrange(10), rng.randrange(10)
        events.append((rng.randint(0, 30), (x, y)))
        if rng.random() < 0.2:
            events.append((rng.randint(0, 30), (x, y)))
    return CeerScript(tuple(sorted(events)))


def test_script_replay_matches_reference():
    rng = random.Random(11)
    for _ in range(60):
        script = _random_script(rng)
        fam = CeerFamily((script,))
        runner, ref = CeerRunner(script), ReferenceRunner(script)
        for s in range(script.last_event_stage + 3):
            runner.advance_to(s)
            ref.advance_to(s)
            _assert_same_queries(runner, ref, range(1, 12))
            assert runner.partition(8).classes() == ref.partition_classes(8)
            assert ceer_snapshot(fam, 0, s, 8).classes() == ref.partition_classes(8)


def _outcome(state, fam):
    """Every column's report, or the reason it could not be made."""
    out = []
    for e in range(state.width):
        try:
            out.append(verify_requirement(state, fam, e))
        except UnsupportedQueryError as exc:
            out.append(str(exc))
    return out


def _assert_run_matches_reference(fam, E, budget):
    state, trace = run_coceer(fam, E, budget)
    ref_state, ref_trace = reference_run_coceer(fam, E, budget)
    assert trace == ref_trace
    assert coceer.trace_to_json(trace) == coceer.trace_to_json(ref_trace)
    assert state == ref_state
    reports = _outcome(state, fam)
    assert reports == _outcome(ref_state, fam)
    for e, report in enumerate(reports):
        member = fam.member(e)
        if isinstance(member, CeerScript):
            ref = ReferenceRunner(member)
            ref.advance_to(member.last_event_stage)
            assert report.r_e_has_size_k == ref.has_class_of_size(state.columns[e].k)


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_runs_match_reference(seed):
    fam, _ = generate_diagonalization_suite(seed)
    _assert_run_matches_reference(fam, len(fam.members), 2500)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_family_runs_match_reference(seed):
    _assert_run_matches_reference(generate_family(seed, 8), 8, 900)


_members = st.one_of(
    st.builds(ChurnGenerator, st.integers(2, 60), st.just(1)),
    st.builds(
        lambda evs: CeerScript(tuple(sorted(evs))),
        st.lists(
            st.tuples(st.integers(0, 40), st.tuples(st.integers(0, 8), st.integers(0, 8))),
            max_size=12,
        ),
    ),
)


@settings(deadline=None, max_examples=40)
@given(st.lists(_members, min_size=1, max_size=4), st.integers(1, 300))
def test_runs_match_reference_property(members, budget):
    fam = CeerFamily(tuple(members))
    _assert_run_matches_reference(fam, len(members), budget)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 60), st.integers(0, 200), st.integers(0, 130))
def test_churn_jump_matches_replay_property(k, s, window):
    gen = ChurnGenerator(k, 1)
    runner, ref = CeerRunner(gen), ReferenceRunner(gen)
    runner.advance_to(s)
    ref.advance_to(s)
    _assert_same_queries(runner, ref, {1, 2, k - 1, k, k + 1, *range(1, 2 * s + 2, k)})
    assert runner.partition(window).classes() == ref.partition_classes(window)


def test_run_coceer_operation_counts(monkeypatch):
    """Churn runners hold no union-find elements; each script event is merged once."""
    runners, merges = [], {}
    original_merge = eqrel.Partition.merge

    def counting_merge(uf, x, y):
        merges[id(uf)] = merges.get(id(uf), 0) + 1
        original_merge(uf, x, y)

    class RecordingRunner(CeerRunner):
        def __init__(self, member):
            super().__init__(member)
            runners.append(self)

    monkeypatch.setattr(eqrel.Partition, "merge", counting_merge)
    monkeypatch.setattr(coceer, "CeerRunner", RecordingRunner)
    fam, kinds = generate_diagonalization_suite(7)
    run_coceer(fam, len(fam.members), 3000)
    assert len(runners) == len(fam.members)
    for e, runner in enumerate(runners):
        if kinds.get(e) == "churn":
            assert len(runner.uf.parent) == 0
            assert id(runner.uf) not in merges
        else:
            assert merges.get(id(runner.uf), 0) == len(runner.member.events)

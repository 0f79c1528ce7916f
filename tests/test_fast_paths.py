"""Differential tests: ceer runners, co-ceer runs and the pi01 and preorder
steppers against slow reference paths, co-ceer verdicts against the
witness-history certificate, threshold snapshots and the closed-form
block layout against explicit constructions, plus operation-count gates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effstruct import blocks, coceer, eqrel, pi01, preorder
from effstruct.ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator
from effstruct.coceer import (
    CoceerRun,
    CoceerTrace,
    ColumnState,
    focus_schedule,
    run_coceer,
    verify_requirement,
)
from effstruct.core import Delta02SetApprox, UPSeq, cantor_unpair
from effstruct.errors import ConstructionBugError
from effstruct.generators import (
    generate_b,
    generate_diagonalization_suite,
    generate_family,
    generate_gtable,
)

from reference import (
    ReferenceLabelState,
    ReferenceRunner,
    ReferenceVTable,
    ceer_snapshot,
    reference_block_partition,
    reference_certificate,
    reference_check_column,
    reference_materialize,
    reference_pi01_step,
    reference_preorder_step,
    reference_required_stages_for,
    reference_run_coceer,
    reference_verify_liminf_counts,
    runner_partition,
)


def _assert_same_queries(runner, ref, sizes):
    for size in sizes:
        assert runner.has_class_of_size(size) == ref.has_class_of_size(size), (ref.stage, size)
        if size >= 2:
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
            assert runner_partition(runner, 8).classes() == ref.partition_classes(8)
            assert ceer_snapshot(fam, 0, s, 8).classes() == ref.partition_classes(8)


def _reports(state, fam):
    return [verify_requirement(state, fam, e) for e in range(state.width)]


def _assert_certificates_match(state, trace, fam):
    """The counter verdicts equal the witness-history rule on the trace."""
    for report in _reports(state, fam):
        assert (report.certified, report.y_limit) == \
            reference_certificate(trace, fam, report.e), (trace.stages, report.e)


_COLUMN_FIELDS = ("witnesses", "flag", "exiled", "case3_count", "last_case4_stage")


def _assert_run_matches_reference(fam, E, budget):
    state, trace = run_coceer(fam, E, budget)
    ref_state, ref_trace = reference_run_coceer(fam, E, budget)
    # the fast run records the focused stages; the reference every stage,
    # with a case-0 skip exactly where the focus lies beyond E
    assert trace.records == tuple(r for r in ref_trace.records if r.case != 0)
    assert [r.stage for r in ref_trace.records if r.case == 0] == [
        s for s in range(1, budget + 1) if cantor_unpair(s)[0] >= E]
    assert (trace.columns, trace.stages) == (ref_trace.columns, ref_trace.stages)
    assert coceer.trace_from_json(coceer.trace_to_json(trace)) == trace
    assert state.stage == ref_state.stage == budget
    for col, ref_col in zip(state.columns, ref_state.columns, strict=True):
        for name in _COLUMN_FIELDS:
            assert getattr(col, name) == getattr(ref_col, name), name
    reports = _reports(state, fam)
    assert reports == _reports(ref_state, fam)
    _assert_certificates_match(state, trace, fam)
    for e, report in enumerate(reports):
        member = fam.member(e)
        if isinstance(member, CeerScript):
            ref = ReferenceRunner(member)
            ref.advance_to(member.last_event_stage)
            assert report.r_e_has_size_k == ref.has_class_of_size(state.columns[e].k)


@pytest.mark.parametrize("seed", range(1, 31))
def test_suite_runs_match_reference(seed):
    fam, _ = generate_diagonalization_suite(seed)
    _assert_run_matches_reference(fam, len(fam.members), 2500)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_family_runs_match_reference(seed):
    _assert_run_matches_reference(generate_family(seed, 8), 8, 900)


def test_churn_target_other_than_column_size_matches_reference():
    # column 1 targets k = 4; a size-3 churn makes its class of 0 size
    # 3A+1 = 4 once one block is absorbed (stage 2), so the flag latches on
    # minimum 0 and stage 2 is case 3, not the case 1 its has-size-4 alone gives
    fam = CeerFamily((CeerScript(()), ChurnGenerator(3, 1)))
    _, trace = run_coceer(fam, 2, 2)
    assert [(r.stage, r.e, r.case) for r in trace.records] == [(1, 0, 4), (2, 1, 3)]
    for budget in (1, 2, 3, 5, 40, 300):
        _assert_run_matches_reference(fam, 2, budget)
    # every (k', d) under columns with k - 1 a multiple of k' and with none
    for target in (2, 3, 5, 7):
        for spacing in (1, 2, 3):
            fam = CeerFamily((ChurnGenerator(target, spacing),) * 4)
            _assert_run_matches_reference(fam, 4, 250)


@pytest.mark.parametrize("seed", range(1, 31))
def test_churn_certificate_turns_on_at_fourth_case3(seed):
    """Each churn column is uncertified just before its fourth case-3 stage and
    certified at it, under the counter rule and the witness-history rule."""
    fam, kinds = generate_diagonalization_suite(seed)
    E = len(fam.members)
    _, full = run_coceer(fam, E, 2500)
    fourth = {}
    for e, kind in kinds.items():
        if kind == "churn":
            fourth[e] = [r.stage for r in full.records if r.e == e and r.case == 3][3]
    run, records = CoceerRun(fam, E), []
    for stage in sorted({s for s4 in fourth.values() for s in (s4 - 1, s4)}):
        records += run.run_to(stage)
        trace = CoceerTrace(columns=E, stages=stage, records=tuple(records))
        _assert_certificates_match(run.state, trace, fam)
        for e, s4 in fourth.items():
            if stage in (s4 - 1, s4):
                assert verify_requirement(run.state, fam, e).certified == (stage == s4)


_members = st.one_of(
    st.builds(ChurnGenerator, st.integers(2, 60), st.integers(1, 4)),
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
    assert runner_partition(runner, window).classes() == ref.partition_classes(window)


def test_run_coceer_operation_counts(monkeypatch):
    """Churn runners hold no union-find elements; each script event is merged
    once; the run dispatches each focused stage once and otherwise touches a
    runner only at its column's focused stages and script event stages."""
    fam, kinds = generate_diagonalization_suite(7)  # its generator runs runners too
    E = len(fam.members)
    event_stages = sum(len({s for s, _ in m.events}) for m in fam.members
                       if isinstance(m, CeerScript))
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
    dispatches = _count_calls(monkeypatch, coceer, "_dispatch")
    advances = _count_calls(monkeypatch, CeerRunner, "advance_to")
    queries = _count_calls(monkeypatch, CeerRunner, "oldest_class_min")
    for budget in (3000, 30000):
        for counter in (dispatches, advances, queries):
            counter[0] = 0
        runners.clear()
        merges.clear()
        _, trace = run_coceer(fam, E, budget)
        assert len(runners) == E
        for e, runner in enumerate(runners):
            if kinds.get(e) == "churn":
                assert len(runner.uf.parent) == 0
                assert id(runner.uf) not in merges
            else:
                assert merges.get(id(runner.uf), 0) == len(runner.member.events)
        focused = sum(1 for _ in focus_schedule(E, budget))
        assert dispatches[0] == focused == len(trace.records)
        assert advances[0] <= focused + event_stages + E
        assert queries[0] <= event_stages + 2 * E


def _well_formed_or_error(check, col):
    try:
        check(col, 1)
    except ConstructionBugError:
        return False
    return True


def _full_check(col, e):
    """The column checks with the settled-region identity by a full rescan."""
    n = len(col.witnesses)
    if n not in (col.base, col.base + 1) or col.witnesses & col.exiled \
            or not col.initial_witnesses <= col.witnesses:
        raise ConstructionBugError("shape")
    reference_check_column(col, e)


@settings(deadline=None, max_examples=300)
@given(st.sets(st.integers(0, 14)), st.one_of(st.none(), st.integers(0, 14)),
       st.integers(0, 16))
def test_column_check_matches_rescan(exiled, extra, pointer):
    """The counter identity accepts exactly the states the rescan accepts,
    from any valid cached pointer (every x strictly between the top witness
    and the pointer exiled)."""
    witnesses = {1, 2, 3} | ({extra} if extra is not None else set())
    col = ColumnState(k=4, witnesses=witnesses, exiled=set(exiled),
                      max_exiled=max(exiled, default=0))
    top = max(witnesses)
    if all(x in exiled for x in range(top + 1, pointer)):
        col.next_free = pointer
    assert _well_formed_or_error(coceer._check_column, col) == \
        _well_formed_or_error(_full_check, col)


def _pi01_past_width(g, extra):
    """A stage budget past every label's certification horizon and the width."""
    K = max(g.width - 1, 0)
    return pi01.required_stages_for(g, K) + g.width + extra


def _assert_pi01_matches_reference(g, stages):
    """Run past the horizon of labels up to width - 1; both verifiers then apply."""
    fast, ref = pi01.LabelState(), ReferenceLabelState()
    for _ in range(stages):
        pi01.pi01_step(fast, g)
        reference_pi01_step(ref, g)
    assert fast.transitions == ref.transitions
    assert fast.windows == ref.windows
    assert (fast.ell, fast.members, fast.next_fresh, fast.stage) == (
        ref.ell, ref.members, ref.next_fresh, ref.stage)
    assert sorted(fast.removed_pending) == sorted(ref.removed_pending)
    trace = pi01.run_pi01(g, stages)
    assert trace.transitions == {x: tuple(h) for x, h in ref.transitions.items()}
    assert trace.windows == tuple(ref.windows)
    K = max(g.width - 1, 0)
    assert pi01.verify_liminf_counts(trace, g, K) == reference_verify_liminf_counts(trace, g, K)


def _assert_preorder_matches_reference(gB, stages):
    """Run past the horizon width - 1; both verifiers then apply."""
    fast, ref = preorder.VTable(), ReferenceVTable()
    for _ in range(stages):
        preorder.preorder_step(fast, gB)
        reference_preorder_step(ref, gB)
    for name in ("v", "defined_at", "change_count", "next_fresh", "stage", "events"):
        assert getattr(fast, name) == getattr(ref, name), name
    for x in range(gB.width + 3):
        assert fast.holders_of(x) == ref.holders_of(x), x
    assert preorder.run_preorder(gB, stages) == fast
    # the verifier reads only stage, holders_of and v, so it runs on either table
    horizon = gB.width - 1
    assert preorder.verify_claim(fast, gB, horizon) == preorder.verify_claim(ref, gB, horizon)


@pytest.mark.parametrize("K", [0, 1, 2, 5, 8, 12])
def test_pi01_matches_reference(K):
    for seed in range(1, 31):
        g = generate_gtable(seed, K)
        _assert_pi01_matches_reference(g, _pi01_past_width(g, 12))


@pytest.mark.parametrize("K", [0, 1, 2, 5, 8, 12])
def test_preorder_matches_reference(K):
    for seed in range(1, 31):
        gB = generate_b(seed, K)
        stages = preorder.required_stages_for(gB, gB.width - 1) + 2 * gB.width + 12
        _assert_preorder_matches_reference(gB, stages)


# names no snapshot element has, and names outside a given snapshot's bounds
_FOREIGN = ("a01", "b-1", "b+1", "a 1", "a", "b", "", "e", "c0", "d1", "A0", "a\u0661", "ab")


def _assert_snapshot_matches_reference(t, na, nb):
    snap, ref = preorder.materialize(t, na, nb), reference_materialize(t, na, nb)
    assert (snap.na, snap.nb, snap.leq) == (ref.na, ref.nb, ref.leq)
    na, nb = snap.na, snap.nb
    elements = snap.elements()
    for x in elements:
        for y in elements:
            assert ((x, y) in snap.leq) == ref.le(x, y), (x, y)
    outside = _FOREIGN + (preorder.elem_a(na), preorder.elem_b(nb))
    for x in elements[:3] + list(outside):
        for y in outside:
            assert (x, y) not in snap.leq and (y, x) not in snap.leq, (x, y)
    # thresholds[i] counts the b's incomparable with a_i
    b = [preorder.elem_b(j) for j in range(nb)]
    for i in range(na):
        a = preorder.elem_a(i)
        assert snap.thresholds[i] == sum(
            1 for y in b if not ref.le(a, y) and not ref.le(y, a))
    return snap, ref


def _random_vtable(rng, na, nb):
    """Thresholds for some of 0..na+1: undefined, below nb, at nb and beyond."""
    v = {i: rng.randint(0, nb + 2) for i in range(na + 2) if rng.random() < 0.7}
    return preorder.VTable(v=v, stage=rng.randint(0, 9))


def test_materialize_matches_reference_random_tables():
    rng = random.Random(29)
    for _ in range(300):
        na, nb = rng.randint(0, 8), rng.randint(0, 8)
        t1, t2 = _random_vtable(rng, na, nb), _random_vtable(rng, na, nb)
        snap1, ref1 = _assert_snapshot_matches_reference(t1, na, nb)
        snap2, ref2 = _assert_snapshot_matches_reference(t2, na, nb)
        # the normal form makes snapshot equality pair-set equality
        assert (snap1 == snap2) == (ref1.leq == ref2.leq)
        assert preorder.snapshot_from_json(preorder.snapshot_to_json(snap1)) == snap1
    for t in (preorder.VTable(), _random_vtable(rng, 5, 5)):
        _assert_snapshot_matches_reference(t, None, None)


@pytest.mark.parametrize("K", [0, 3, 10])
def test_materialize_matches_reference_on_runs(K):
    for seed in range(1, 5):
        t = preorder.run_preorder(generate_b(seed, K), 60 + 7 * seed)
        _assert_snapshot_matches_reference(t, None, None)
        _assert_snapshot_matches_reference(t, t.next_fresh, K + 2)


def test_block_layout_matches_merges():
    rng = random.Random(31)
    for n in list(range(12)) + [64, 200]:
        bits = [rng.randint(0, 1) for _ in range(n + rng.randint(0, 3))]
        built = blocks.encode_blocks(bits, n)
        ref = reference_block_partition(bits, n)
        assert built.classes() == ref.classes()
        assert eqrel.character_of(built) == eqrel.character_of(ref)
        assert eqrel.character_of(built) == blocks.block_character(bits, n)


_prefixes = st.lists(st.integers(1, 9), max_size=8)
_gtables = st.lists(
    st.builds(lambda p, q: UPSeq(tuple(p), tuple(q)), _prefixes,
              st.lists(st.integers(1, 9), min_size=1, max_size=6)),
    max_size=4,
).map(lambda cols: pi01.GTable(tuple(cols)))


def _b_column(prefix, limit, perlen):
    return UPSeq(tuple(prefix), (limit,) * perlen)


_b_columns = st.builds(_b_column, st.lists(st.integers(0, 1), max_size=8), st.integers(0, 1),
                       st.integers(1, 6))
_column_zero = st.builds(_b_column, st.lists(st.integers(0, 1), max_size=8), st.just(0),
                         st.integers(1, 6))
_set_approxes = st.builds(
    lambda zero, rest: Delta02SetApprox((zero, *rest)), _column_zero,
    st.lists(_b_columns, max_size=5),
)


@settings(deadline=None, max_examples=60)
@given(_gtables, st.integers(1, 30))
def test_pi01_matches_reference_property(g, extra):
    _assert_pi01_matches_reference(g, _pi01_past_width(g, extra))


@settings(deadline=None, max_examples=60)
@given(_set_approxes, st.integers(1, 30))
def test_preorder_matches_reference_property(gB, extra):
    stages = preorder.required_stages_for(gB, gB.width - 1) + gB.width + extra
    _assert_preorder_matches_reference(gB, stages)


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("K", [None, 0, 8])
def test_pi01_operation_counts(monkeypatch, K):
    """pi01 asks g only about labels below the width; the verifier checks each
    (element, label <= K) assignment once and never rescans the trace."""
    g = pi01.GTable(()) if K is None else generate_gtable(7, K)
    stages = 1500
    lookups = _count_calls(monkeypatch, pi01.GTable, "g")
    trace = pi01.run_pi01(g, stages)
    assert lookups[0] == sum(min(s, g.width) for s in range(stages))

    bound = max(g.width - 1, 0)
    checks = _count_calls(monkeypatch, pi01.PiTrace, "stable_window_label")
    assert pi01.verify_liminf_counts(trace, g, bound).all_match
    assert checks[0] == sum(1 for hist in trace.transitions.values()
                            for _, label in hist if label is not None and label <= bound)


def test_pi01_required_stages_matches_reference():
    tables = [pi01.GTable(())] + [generate_gtable(seed, w) for seed in range(1, 11)
                                  for w in (0, 1, 3, 8)]
    for g in tables:
        for K in range(g.width + 5):
            assert pi01.required_stages_for(g, K) == reference_required_stages_for(g, K), \
                (g.width, K)


@pytest.mark.parametrize("K", [0, 1, 7, 8, 9, 10**7])
def test_pi01_required_stages_reads_labels_below_width(monkeypatch, K):
    """Labels past the width all have the shape (0, 1), so the horizon for
    labels 0..K reads at most min(K+1, width) column shapes, whatever K is."""
    shapes = _count_calls(monkeypatch, pi01.GTable, "column_shape")
    for g in (pi01.GTable(()), generate_gtable(7, 0), generate_gtable(7, 8)):
        shapes[0] = 0
        pi01.required_stages_for(g, K)
        assert shapes[0] <= min(K + 1, g.width)


@pytest.mark.parametrize("K", [0, 1, 10])
def test_preorder_operation_counts(monkeypatch, K):
    """preorder reads g and the holders of x only below the width, at even stages."""
    gB = generate_b(7, K)
    stages = 601
    lookups = _count_calls(monkeypatch, Delta02SetApprox, "g")
    holder_queries = _count_calls(monkeypatch, preorder.VTable, "holders_of")
    preorder.run_preorder(gB, stages)
    # stage s+1 is even when s is odd, and then reads 1 <= x < min(s+1, width)
    expected = sum(min(s + 1, gB.width) - 1 for s in range(1, stages, 2))
    assert lookups[0] == holder_queries[0] == expected
    assert expected <= -(-stages // 2) * gB.width

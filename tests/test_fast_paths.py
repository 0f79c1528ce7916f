"""Differential tests: the script constructor, ceer runners, co-ceer runs
and the pi01 and preorder steppers against slow reference paths, co-ceer
runs (whose settled columns advance in closed form) and pi01 and preorder
runs (which close the run past a settle stage) against stepped runs,
co-ceer verdicts against the witness-history certificate, threshold
snapshots and the closed-form block layout against explicit
constructions, plus operation-count gates."""

import io
import json
import os
import random
import tempfile
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from itertools import accumulate
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effstruct import blocks, cli, coceer, eqrel, pi01, preorder
from effstruct.ceersim import (
    CeerFamily,
    CeerRunner,
    CeerScript,
    ChurnGenerator,
    limit_has_class_of_size,
)
from effstruct.coceer import run_coceer, verify_requirement
from effstruct.core import Delta02SetApprox, UPSeq, cantor_unpair, table_to_json
from effstruct.errors import InputError
from effstruct.generators import (
    generate_b,
    generate_diagonalization_suite,
    generate_gtable,
)

from bruteforce import bf_generated_classes
from reference import (
    ReferenceLabelState,
    ReferenceRunner,
    ReferenceTrace,
    ReferenceVTable,
    as_recorded,
    canonical_snapshot,
    ceer_snapshot,
    column_exiles,
    column_witnesses,
    cut_history,
    expand_tail,
    expand_tails,
    focus_schedule,
    generate_family,
    label_stages,
    partition_runs,
    reference_block_classes,
    reference_block_partition,
    reference_character_from_pairs,
    reference_check_block_partition,
    reference_decode_character,
    reference_certificate,
    reference_columns_at,
    reference_materialize,
    reference_pi01_step,
    reference_preorder_step,
    reference_required_stages_for,
    reference_run_coceer,
    reference_script_events,
    reference_trace_from_json,
    reference_verify_liminf_counts,
    report_y_limit,
    run_length_mutations,
    runner_partition,
    runs_as_format_2,
    shifted_label_stages,
    snapshot_thresholds,
    stepped_run_coceer,
    stepped_state_pi01,
    tail_triples,
    windows,
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


@st.composite
def _scripts(draw):
    """Scripts over a few elements with self-merges (x == y), repeated and
    reversed pairs, and so merges inside a class that is already joined."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14))
    pairs += [(x, x) for x in draw(st.lists(st.integers(0, 7), max_size=3))]
    if pairs:
        pairs += [(y, x) if flip else (x, y) for (x, y), flip in draw(
            st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=5))]
    stages = draw(st.lists(st.integers(0, 20), min_size=len(pairs), max_size=len(pairs)))
    return CeerScript(tuple(sorted(zip(stages, pairs))))


@st.composite
def _wide_scripts(draw):
    """:func:`_scripts` with its eight elements renamed to naturals up to 10**12."""
    names = draw(st.lists(st.integers(0, 10**12), min_size=8, max_size=8, unique=True))
    return CeerScript(tuple((s, (names[x], names[y])) for s, (x, y) in draw(_scripts()).events))


def _assert_limit_check_matches(script, sizes):
    """The one-pass limit check answers every size as a runner advanced to
    the last event and as the closure of the script's pairs do."""
    runner = CeerRunner(script)
    runner.advance_to(script.last_event_stage)
    classes = bf_generated_classes(pair for _, pair in script.events)
    for k in sizes:
        expected = k == 1 or any(len(c) == k for c in classes)
        assert limit_has_class_of_size(script, k) == runner.has_class_of_size(k) == expected, k


@st.composite
def _falling_mention_scripts(draw):
    """:func:`_scripts` renamed so that its elements, listed by first
    mention, fall: the slot order is the reverse of the element order."""
    script = draw(_scripts())
    mentioned = list(dict.fromkeys(z for _, pair in script.events for z in pair))
    names = sorted(draw(st.lists(st.integers(0, 10**12), min_size=len(mentioned),
                                 max_size=len(mentioned), unique=True)), reverse=True)
    name = dict(zip(mentioned, names))
    return CeerScript(tuple((s, (name[x], name[y])) for s, (x, y) in script.events))


@settings(deadline=None, max_examples=150)
@given(st.one_of(_wide_scripts(), _falling_mention_scripts()))
def test_limit_check_matches_runner_and_closure_property(script):
    _assert_limit_check_matches(script, range(1, 18))


@settings(deadline=None, max_examples=150)
@given(st.one_of(
    st.tuples(st.one_of(_scripts(), _wide_scripts(), _falling_mention_scripts()),
              st.just(None)),
    st.tuples(st.builds(ChurnGenerator, st.integers(2, 6), st.integers(1, 3)),
              st.integers(0, 60)),
))
def test_runner_matches_reference_property(member_and_last):
    """At every stage through one past the last event, the runner answers
    every size query as the reference replay does, and its classes are the
    reference's classes of two or more.  A wide or falling script puts the
    runner's slots, numbered by first mention, out of element order."""
    member, last = member_and_last
    if last is None:
        last = member.last_event_stage
    runner, ref = CeerRunner(member), ReferenceRunner(member)
    for s in range(last + 2):
        runner.advance_to(s)
        ref.advance_to(s)
        _assert_same_queries(runner, ref, range(1, len(ref.uf.class_of) + 2))
        assert [list(c) for c in runner.classes] == \
            sorted(sorted(c) for c in ref.uf.lists.values()), s


class _Small(IntEnum):
    ONE = 1
    SEVEN = 7


_ODD_VALUES = st.sampled_from(
    [True, False, 1.0, 2.5, -1, -7, "2", "", [], None, _Small.ONE, _Small.SEVEN, [1, 2]])
_BAD_EVENTS = st.sampled_from(
    [None, 7, "xy", [], [3], [0, [1]], [0, [1, 2, 3]], [[], 21], [0, 5], [1, [2, 3], 4]])


@st.composite
def _raw_script_events(draw):
    """An event list as a family file may hold it: [stage, [x, y]] over
    naturals, sorted by stage or not, with up to three stages, elements or
    whole events swapped for a bool, a float, an ``IntEnum`` member, a
    negative, a string, ``[]``, ``None`` or a bad shape."""
    events = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9), st.integers(0, 9))
                           .map(lambda t: [t[0], [t[1], t[2]]]), max_size=10))
    if draw(st.booleans()):
        events.sort(key=lambda ev: ev[0])
    for _ in range(draw(st.integers(0, 3)) if events else 0):
        i = draw(st.integers(0, len(events) - 1))
        where = draw(st.sampled_from((0, 1, 2, None)))
        if where is None:
            events[i] = draw(_BAD_EVENTS)
        elif isinstance(events[i], list) and len(events[i]) == 2:
            stage, pair = events[i]
            if where == 0:
                events[i] = [draw(_ODD_VALUES), pair]
            elif isinstance(pair, list):
                events[i] = [stage, [draw(_ODD_VALUES) if j == where - 1 else z
                                     for j, z in enumerate(pair)]]
    return events


@settings(deadline=None, max_examples=400)
@given(_raw_script_events())
@example([[0, [[], 1]]])
@example([[[], 21]])
@example([[2, [1, 2]], [1, [_Small.ONE, 2]]])
@example([[_Small.SEVEN, [_Small.ONE, 3]], [7, [1, _Small.SEVEN]]])
@example([[0, [True, 1]], [1.0, [2, 3]]])
def test_script_constructor_matches_reference(events):
    """The script constructor, which checks exact ints first and numbers
    the elements in the same pass, accepts exactly the event lists the
    reference constructor accepts, refuses the others with its message and
    raises nothing else; an accepted script's slots spell out its events."""
    try:
        want = reference_script_events(events)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            CeerScript(events)
        assert str(err.value) == str(exc)
        return
    script = CeerScript(events)
    assert script.events == want
    assert script.elements == tuple(dict.fromkeys(z for _, pair in want for z in pair))
    elements = script.elements
    assert tuple((s, (elements[x], elements[y])) for s, x, y in script.pairs) == want
    assert script == CeerScript(want) and hash(script) == hash(CeerScript(want))


@pytest.mark.parametrize("seed", range(10))
def test_limit_check_matches_runner_and_closure_on_suites(seed):
    fam, _ = generate_diagonalization_suite(seed)
    for member in fam.members:
        if isinstance(member, CeerScript):
            _assert_limit_check_matches(member, range(1, 61))
        else:
            assert not any(limit_has_class_of_size(member, k) for k in range(1, 61))


def _reports(columns, fam):
    return [verify_requirement(columns, fam, e) for e in range(len(columns))]


def _horizon(fam, E, budget):
    """``budget``, or a later stage by which the witness-history rule
    (:func:`reference_certificate`) certifies every column that settles:
    four focuses past each column's tail stage, since after a case-3 tail it
    needs four case-3 records."""
    tails = tail_triples(run_coceer(fam, E, 10**6)[1])
    return max([budget] + [(w + 4) * (w + 5) // 2 + e for e, w, _ in tails])


def _long_verdicts(fam, E, reference):
    """Each column's settle stage in a run as long as ``reference`` (None if
    it has not settled by then), and its witness-history certificate on
    ``reference``, a reference run to at least :func:`_horizon`."""
    assert reference.stages >= _horizon(fam, E, 0)
    settled = [None] * E
    for e, w, _ in tail_triples(run_coceer(fam, E, reference.stages)[1]):
        settled[e] = w * (w + 1) // 2 + e
    return settled, [reference_certificate(reference, fam, e) for e in range(E)]


def _assert_certificates_match(columns, budget, fam, long_verdicts):
    """A column of a run to ``budget`` is uncertified exactly when its settle
    stage in the long run is past ``budget``, and a certified one has the
    witness-history certificate (True, y_limit) on the long reference run
    (:func:`_long_verdicts`).  Every report's witness class is its Y_limit
    and <e, 0>."""
    settled, oracle = long_verdicts
    for report in _reports(columns, fam):
        e = report.e
        assert report.certified == (settled[e] is not None and settled[e] <= budget), (budget, e)
        assert not report.certified or oracle[e] == (True, report_y_limit(report)), (budget, e)
        assert report.witness_class_size == len(report_y_limit(report)) + 1


def _prefix(trace, stage):
    """The trace of a run to ``stage``, cut from the trace of a longer run."""
    kept = bisect_right(trace.records, stage, key=attrgetter("stage"))
    return ReferenceTrace(trace.columns, stage, trace.records[:kept])


def _assert_run_matches_reference(fam, E, budget, reference=None):
    """The run's records with its tails written out are the reference's
    focused stages; the reference records every stage, with a case-0 skip
    exactly where the focus lies beyond E.  ``reference`` is a reference
    trace to at least :func:`_horizon`, cut at ``budget`` for the run and
    read whole for the certificates; by default one is run.  Returns the
    run's trace."""
    if reference is None:
        reference = reference_run_coceer(fam, E, _horizon(fam, E, budget))[1]
    columns, trace = run_coceer(fam, E, budget)
    ref_trace = _prefix(reference, budget)
    assert expand_tails(trace).records == tuple(r for r in ref_trace.records if r.case != 0)
    assert [r.stage for r in ref_trace.records if r.case == 0] == [
        s for s in range(1, budget + 1) if cantor_unpair(s)[0] >= E]
    assert (len(trace.cases), trace.stages) == (ref_trace.columns, ref_trace.stages) == (E, budget)
    assert coceer.trace_from_json(coceer.trace_to_json(trace)) == trace
    ref_columns = reference_columns_at(reference, budget)
    for e, (col, ref) in enumerate(zip(columns, ref_columns, strict=True)):
        assert (column_witnesses(col), column_exiles(col)) == (
            tuple(sorted(ref.witnesses)), ref.exiled)
        # a quiescent column has a tail exactly when it took case 4 after quiescence
        quiet = coceer._quiescence_stage(fam.member(e), col.k)
        if quiet is not None:
            took_case4 = ref.last_case4_stage is not None and ref.last_case4_stage > quiet
            assert (col.tail is not None) == took_case4, (budget, e)
    _assert_certificates_match(columns, budget, fam, _long_verdicts(fam, E, reference))
    for e, report in enumerate(_reports(columns, fam)):
        member = fam.member(e)
        if isinstance(member, CeerScript):
            ref = ReferenceRunner(member)
            ref.advance_to(member.last_event_stage)
            assert report.r_e_has_size_k == ref.has_class_of_size(columns[e].k)
    return trace


# every suite column has settled by stage 350, its first focus of column 25
_LONG = 8000


@pytest.fixture(scope="module", params=range(1, 31))
def suite_reference(request):
    """Suite ``request.param``, its kinds and its reference run to ``_LONG``
    stages.  The suite tests that take it share one reference run per suite:
    pytest runs them together for each suite before it makes the next."""
    fam, kinds = generate_diagonalization_suite(request.param)
    return fam, kinds, *reference_run_coceer(fam, len(fam.members), _LONG)


def test_suite_runs_match_reference(suite_reference):
    fam, _, _, reference = suite_reference
    _assert_run_matches_reference(fam, len(fam.members), 2500, reference)


def test_runs_match_reference_at_random_stops():
    """Suites stopped at random budgets, some of them before some column
    settles, so a run ends with records and no tail for that column."""
    rng = random.Random(23)
    unsettled = 0
    for _ in range(6):
        fam, _ = generate_diagonalization_suite(rng.randrange(1000))
        E = len(fam.members)
        for budget in sorted(rng.sample(range(1, 1200), 3)):
            unsettled += None in _assert_run_matches_reference(fam, E, budget).tails
    assert unsettled > 0


@pytest.mark.parametrize("seed", range(10))
def test_traced_runs_leave_no_latch_on(seed):
    """The reference keeps the paper's latch flag from stage to stage, and
    each of its records has the flag after the focus: off, as every case
    clears the latch it reads.  A run keeps no flag at all."""
    fam, _ = generate_diagonalization_suite(seed)
    E = len(fam.members)
    _, ref_trace = reference_run_coceer(fam, E, 3000)
    focused = [r for r in ref_trace.records if r.case != 0]
    assert focused and all(r.flag is False for r in focused)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_family_runs_match_reference(seed):
    _assert_run_matches_reference(generate_family(seed, 8), 8, 900)


def test_churn_target_other_than_column_size_matches_reference():
    # column 1 targets k = 4; a size-3 churn makes its class of 0 size
    # 3A+1 = 4 once one block is absorbed (stage 2), so stage 2 latches on
    # minimum 0 and is case 3, not the case 1 its has-size-4 alone gives
    fam = CeerFamily((CeerScript(()), ChurnGenerator(3, 1)))
    _, trace = run_coceer(fam, 2, 2)
    assert [(r.stage, r.e, r.case) for r in trace.records] == [(1, 0, 4), (2, 1, 3)]
    for budget in (1, 2, 3, 5, 40, 300):
        _assert_run_matches_reference(fam, 2, budget)
    # with spacing 2 the class of 0 reaches size 4 only at stage 3, so a
    # run of 2 stages has seen no size-4 class and is still uncertified
    fam = CeerFamily((ChurnGenerator(2, 1), ChurnGenerator(3, 2)))
    assert not verify_requirement(run_coceer(fam, 2, 2)[0], fam, 1).certified
    _assert_run_matches_reference(fam, 2, 2)
    # every (k', d) under columns with k - 1 a multiple of k' and with none
    for target in (2, 3, 5, 7):
        for spacing in (1, 2, 3):
            fam = CeerFamily((ChurnGenerator(target, spacing),) * 4)
            _assert_run_matches_reference(fam, 4, 250)


_TAIL_BUDGETS = (120, 300, 2500, 8000)


def _assert_quiescent_tails_match_reference(fam, E, ref_columns, ref_trace):
    """At each of ``_TAIL_BUDGETS``, a quiescent column has a tail exactly when
    the reference column took case 4 after the quiescence stage.  One
    reference run to the last budget gives the reference column's last
    case-4 stage at every earlier budget from its records."""
    assert ref_trace.stages == _TAIL_BUDGETS[-1]
    for budget in _TAIL_BUDGETS:
        columns, _ = run_coceer(fam, E, budget)
        for e, col in enumerate(columns):
            quiet = coceer._quiescence_stage(fam.member(e), col.k)
            if quiet is None:
                continue
            last_case4 = max((r.stage for r in ref_trace.records
                              if r.e == e and r.case == 4 and r.stage <= budget), default=None)
            if budget == _TAIL_BUDGETS[-1]:
                assert last_case4 == ref_columns[e].last_case4_stage, e
            took_case4 = last_case4 is not None and last_case4 > quiet
            assert (col.tail is not None) == took_case4, (budget, e)
            assert col.tail in (None, 4), (budget, e)


def test_suite_quiescent_tails_match_reference(suite_reference):
    fam, _, ref_columns, ref_trace = suite_reference
    _assert_quiescent_tails_match_reference(fam, len(fam.members), ref_columns, ref_trace)


def test_churn_quiescent_tails_match_reference():
    """Churn of every target k' in 2..8 with spacing 1-4 under columns 0..5,
    so k - 1 is a multiple of k' in some columns and not in others."""
    for target in range(2, 9):
        for spacing in range(1, 5):
            fam = CeerFamily((ChurnGenerator(target, spacing),) * 6)
            _assert_quiescent_tails_match_reference(
                fam, 6, *reference_run_coceer(fam, 6, _TAIL_BUDGETS[-1]))


@pytest.mark.parametrize("target", range(2, 9))
def test_churn_certificate_is_final_once_given(target):
    """Under a churn of target k' (spacing 1-4), every column with k = 2e+2 != k'
    is certified within 300 stages, and no column's verdict or y_limit changes
    once it is certified.  At every stage the verdicts agree with the
    settle stages and the witness-history certificates of a long run."""
    E = 6
    for spacing in range(1, 5):
        fam = CeerFamily((ChurnGenerator(target, spacing),) * E)
        reference = reference_run_coceer(fam, E, _horizon(fam, E, 300))[1]
        long_verdicts = _long_verdicts(fam, E, reference)
        given = {}
        for stage in range(1, 301):
            columns, _ = run_coceer(fam, E, stage)
            _assert_certificates_match(columns, stage, fam, long_verdicts)
            for report in _reports(columns, fam):
                verdict = (report.certified, report_y_limit(report))
                if report.e in given:
                    assert verdict == given[report.e], (spacing, stage, report.e)
                elif report.certified:
                    given[report.e] = verdict
        assert {e for e in range(E) if 2 * e + 2 != target} <= set(given), spacing


def test_churn_certificate_turns_on_at_fourth_case3(suite_reference):
    """Each churn column of the suite settles, and so is certified, at or
    before its fourth case-3 stage, where the witness-history rule of
    :func:`reference_certificate` first certifies it, and it is uncertified
    just before its settle stage.  At those stages and at ``_TAIL_BUDGETS``
    every column's verdict agrees with the long reference run."""
    fam, kinds, _, reference = suite_reference
    E = len(fam.members)
    long_verdicts = _long_verdicts(fam, E, reference)
    settled = long_verdicts[0]
    stops = set(_TAIL_BUDGETS)
    for e, kind in kinds.items():
        if kind == "churn":
            fourth = [r.stage for r in reference.records if r.e == e and r.case == 3][3]
            assert settled[e] <= fourth, e
            stops |= {settled[e] - 1, settled[e], fourth}
    for stage in sorted(stops - {0}):
        columns, _ = run_coceer(fam, E, stage)
        _assert_certificates_match(columns, stage, fam, long_verdicts)


@pytest.mark.parametrize("spacing", range(5, 9))
def test_same_target_churn_certificate_at_fourth_case3(spacing):
    """Column e (0-7) under a churn of its own target 2e+2 and spacing 5-8
    is uncertified just before its focus on the steadiness diagonal
    max(e, 1, 2d - 1) and certified at it.  At these spacings the fourth
    case-3 stage, where the witness-history rule first certifies, can come
    earlier, so the settle rule trades a later verdict for a proof (spacing
    5, column 1: stage 46 against 37)."""
    E = 8
    fam = CeerFamily(tuple(ChurnGenerator(2 * e + 2, spacing) for e in range(E)))
    reference = reference_run_coceer(fam, E, _horizon(fam, E, 0))[1]
    long_verdicts = _long_verdicts(fam, E, reference)
    fourth, later = {}, 0
    for e in range(E):
        w = max(e, 1, 2 * spacing - 1)
        assert long_verdicts[0][e] == w * (w + 1) // 2 + e
        for stage in (w * (w + 1) // 2 + e - 1, w * (w + 1) // 2 + e):
            columns, _ = run_coceer(fam, E, stage)
            _assert_certificates_match(columns, stage, fam, long_verdicts)
        fourth[e] = [r.stage for r in reference.records if r.e == e and r.case == 3][3]
        later += fourth[e] < long_verdicts[0][e]
    assert later > 0
    if spacing == 5:
        assert (fourth[1], long_verdicts[0][1]) == (37, 46)


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
    """A run builds no ``CeerRunner``: a script column whose script mentions
    at least k elements merges its script's events once, into one partition
    of its own; a script column with fewer elements and a churn column
    build none.  The run dispatches each stepped focus once, and its tails
    stand for the other focused stages."""
    fam, _ = generate_diagonalization_suite(7)  # its generator runs runners too
    E = len(fam.members)
    all_scripts = [m for m in fam.members if isinstance(m, CeerScript)]
    scripts = [m for e, m in enumerate(fam.members)
               if isinstance(m, CeerScript) and len(m.elements) >= 2 * e + 2]
    made, merges = [], {}
    original_init, original_merge = eqrel.Partition.__init__, eqrel.Partition.merge

    def recording_init(uf, window):
        original_init(uf, window)
        made.append(uf)   # kept alive, so no two partitions share an id

    def counting_merge(uf, x, y):
        merges[id(uf)] = merges.get(id(uf), 0) + 1
        return original_merge(uf, x, y)

    monkeypatch.setattr(eqrel.Partition, "__init__", recording_init)
    monkeypatch.setattr(eqrel.Partition, "merge", counting_merge)
    runners = _count_calls(monkeypatch, CeerRunner, "__init__")
    dispatches = _count_calls(monkeypatch, coceer, "_dispatch")
    assert 0 < len(scripts) < len(all_scripts) < E
    for budget in (3000, 30000):
        dispatches[0] = 0
        made.clear()
        merges.clear()
        _, trace = run_coceer(fam, E, budget)
        assert runners[0] == 0
        assert [merges.get(id(uf), 0) for uf in made] == [len(m.events) for m in scripts]
        assert [uf.window for uf in made] == [len({z for _, p in m.events for z in p})
                                              for m in scripts]
        stepped, focused = sum(map(len, trace.cases)), sum(1 for _ in focus_schedule(E, budget))
        assert dispatches[0] == stepped < focused == len(expand_tails(trace).records)


def test_run_builds_no_stage_records(monkeypatch):
    """A run keeps only its cases and tails, as its file does: it builds no
    ``StageRecord``, its trace file is its fields, and the records it
    replays on first read are those the reference replays from that file."""
    fam, _ = generate_diagonalization_suite(7)
    made = _count_calls(monkeypatch, coceer.StageRecord, "__init__")
    for budget in (3000, 30000):
        made[0] = 0
        _, trace = run_coceer(fam, len(fam.members), budget)
        assert made[0] == 0
        fields = {f: getattr(trace, f) for f in ("stages", "cases", "tails")}
        assert coceer.trace_to_json(trace) == {"format": 5, **fields}
        records = trace.records   # replayed once, on first read
        assert made[0] == len(records) > 0 and trace.records is records
        doc = json.loads(json.dumps(coceer.trace_to_json(trace)))
        assert as_recorded(trace) == reference_trace_from_json(doc)


def test_diag_run_and_verification_rebuild_no_classes(monkeypatch):
    """A run and the verification of every column, at the
    size of the benchmark's diag workload, read class sizes from each
    script's timeline and the limit check's root sizes: no partition lists
    its classes, no root is looked up outside a merge, and each event of a
    script with at least k elements is merged twice, once by the run's
    timeline pass and once by the verifier's pass.  A script with fewer
    elements is merged by neither, so fewer merges are made than twice the
    events of all scripts."""
    fam, _ = generate_diagonalization_suite(7)  # its generator lists classes
    rebuilds = _count_calls(monkeypatch, eqrel.Partition, "classes")
    finds = _count_calls(monkeypatch, eqrel.Partition, "find")
    merges = _count_calls(monkeypatch, eqrel.Partition, "merge")
    columns, _ = run_coceer(fam, len(fam.members), 8000)
    assert len(_reports(columns, fam)) == 26
    assert rebuilds[0] == 0
    assert finds[0] == 0
    events = sum(len(m.events) for m in fam.members if isinstance(m, CeerScript))
    merged = sum(len(m.events) for e, m in enumerate(fam.members)
                 if isinstance(m, CeerScript) and len(m.elements) >= 2 * e + 2)
    assert merges[0] == 2 * merged == 488
    assert merges[0] < 2 * events == 690


def test_replays_read_events_without_runner_or_stage_lookup(monkeypatch):
    """The run reads each script's events in order, with no ``events_at``
    lookup, and neither the run nor the limit check builds a runner."""
    fam, _ = generate_diagonalization_suite(7)
    lookups = _count_calls(monkeypatch, CeerScript, "events_at")
    runners = _count_calls(monkeypatch, CeerRunner, "__init__")
    for e, member in enumerate(fam.members):
        for k in range(1, 2 * e + 4):
            limit_has_class_of_size(member, k)
    columns, _ = run_coceer(fam, len(fam.members), 8000)
    _reports(columns, fam)
    assert runners[0] == 0 and lookups[0] == 0


def test_runner_operation_counts(monkeypatch):
    """A runner advanced on a random schedule of stages, and queried at
    each, merges each script event once, looks up no root outside a merge,
    holds one slot per element the script mentions and lists its
    partition's classes at most once per advance that merged."""
    rng = random.Random(29)
    suite, _ = generate_diagonalization_suite(7)  # its generator runs runners too
    scripts = [m for m in suite.members if isinstance(m, CeerScript)]
    scripts += [_random_script(rng) for _ in range(40)]
    merges = _count_calls(monkeypatch, eqrel.Partition, "merge")
    finds = _count_calls(monkeypatch, eqrel.Partition, "find")
    listings = _count_calls(monkeypatch, eqrel.Partition, "classes")
    for script in scripts:
        merges[0] = finds[0] = listings[0] = 0
        runner, merging_advances = CeerRunner(script), 0
        last = script.last_event_stage
        for stage in sorted(rng.sample(range(last + 1), rng.randint(0, last + 1))) + [last + 1]:
            before = merges[0]
            runner.advance_to(stage)
            merging_advances += merges[0] > before
            for k in (2, 3, rng.randint(2, 12)):
                runner.has_class_of_size(k)
                runner.oldest_class_min(k)
            runner.classes
        assert merges[0] == len(script.events)
        assert finds[0] == 0
        assert runner.uf.window == len(script.elements)
        assert listings[0] <= merging_advances


def _assert_same_as_stepped(fam, E, budgets):
    """A run to each of ``budgets`` has the columns, and so the reports, of
    a run that steps every focus, with the trace's tails, and its tails
    write out as that run's records."""
    for budget in budgets:
        columns, trace = run_coceer(fam, E, budget)
        stepped, stepped_trace = stepped_run_coceer(fam, E, budget)
        for e, case in enumerate(trace.tails):
            stepped[e].tail = case
        assert columns == stepped, budget
        assert expand_tails(trace) == stepped_trace, budget


_BUDGETS = (1, 2, 3, 10, 57, 400, 2500, 10**4)


@pytest.mark.parametrize("seed", range(1, 11))
def test_unrecorded_suite_runs_match_stepped(seed):
    fam, _ = generate_diagonalization_suite(seed)
    E = len(fam.members)
    for budget in _BUDGETS:
        _assert_same_as_stepped(fam, E, [budget])
        _assert_same_as_stepped(generate_family(seed, 8), 8, [budget])


def test_unrecorded_churn_runs_match_stepped():
    """Churn of every target k' in 2..8 under columns 0..5, so k' = k in some
    columns and not in the others, with spacing 1-4, which puts columns
    below e = 2d - 1."""
    for target in range(2, 9):
        for spacing in range(1, 5):
            fam = CeerFamily((ChurnGenerator(target, spacing),) * 6)
            for budget in _BUDGETS:
                _assert_same_as_stepped(fam, 6, [budget])


def test_unrecorded_runs_match_stepped_at_random_stops():
    """Each stop is a fresh pair of runs; a suite's runs replay its scripts,
    so a suite is checked at every fourth of its stops only."""
    rng = random.Random(17)
    for _ in range(25):
        fam, _ = generate_diagonalization_suite(rng.randrange(1000))
        stops = sorted(rng.sample(range(1, 3000), rng.randint(1, 30)))
        _assert_same_as_stepped(fam, len(fam.members), stops[::4])
        churn = CeerFamily(tuple(ChurnGenerator(rng.randint(2, 8), rng.randint(1, 4))
                                 for _ in range(6)))
        _assert_same_as_stepped(churn, 6, stops)


@settings(deadline=None, max_examples=60)
@given(st.lists(_members, min_size=1, max_size=4),
       st.lists(st.integers(1, 400), min_size=1, max_size=8))
def test_unrecorded_runs_match_stepped_property(members, steps):
    _assert_same_as_stepped(CeerFamily(tuple(members)), len(members), accumulate(steps))


_BIG = 10**12
_ELEMENT = st.one_of(st.integers(0, 9), st.sampled_from((_BIG - 1, _BIG, _BIG + 1)))


@st.composite
def _timeline_scripts(draw, k):
    """A script for target size k: merges of small elements and 10**12 +- 1
    at stages 0-30, several to a stage, self-merges and repeats included;
    and, when drawn, a story: a size-k class with minimum 10**12 + 2, at a
    later stage one with the smaller minimum 100, which later grows past k.
    So the oldest size-k minimum falls to 100, a latch, and returns to
    10**12 + 2, seen before, which latches nothing."""
    events = draw(st.lists(st.tuples(st.integers(0, 30), st.tuples(_ELEMENT, _ELEMENT)),
                           max_size=14))
    if draw(st.booleans()):
        t, formed, grown = draw(st.tuples(st.integers(0, 10), st.integers(1, 6),
                                          st.integers(1, 6)))
        events += [(t, (_BIG + 2, _BIG + 2 + j)) for j in range(1, k)]
        events += [(t + formed, (100, 100 + j)) for j in range(1, k)]
        events.append((t + formed + grown, (100, 100 + k)))
    return CeerScript(tuple(sorted(events, key=lambda ev: ev[0])))


def _replayed_timeline(script, k):
    """(t, latched, has_k) at each event stage t, from a reference replay."""
    ref, seen, timeline = ReferenceRunner(script), set(), []
    for t in sorted({t for t, _ in script.events}):
        ref.advance_to(t)
        m = ref.oldest_class_min(k)
        timeline.append((t, t > 0 and m is not None and m not in seen, ref.has_class_of_size(k)))
        seen.add(m)
    return timeline


def test_script_timeline_story():
    """k = 4: the class of 10**12 reaches size 4 at stage 0, which latches
    nothing; the smaller minimum 5 latches at stage 3; at stage 6 its class
    grows past 4, and the oldest minimum returns to 10**12, which was seen;
    a self-merge at stage 8 changes nothing, and at stage 9 the class of
    10**12 grows too, so has_k turns off.  Column 1 of a run reads this."""
    big = 10**12
    script = CeerScript(tuple([(0, (big, big + j)) for j in (1, 2, 3)]
                              + [(3, (5, 6)), (3, (6, 7)), (3, (5, 8)), (6, (8, 9)),
                                 (8, (9, 9)), (9, (big, 0))]))
    timeline = [(0, False, True), (3, True, True), (6, False, True), (8, False, True),
                (9, False, False)]
    assert coceer._script_timeline(script, 4) == _replayed_timeline(script, 4) == timeline
    _assert_same_as_stepped(CeerFamily((CeerScript(()), script)), 2, (1, 2, 4, 7, 11, 30, 100))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 3).flatmap(lambda e: st.tuples(st.just(2 * e + 2),
                                                    _timeline_scripts(2 * e + 2))))
def test_script_timeline_matches_replay(drawn):
    k, script = drawn
    assert coceer._script_timeline(script, k) == _replayed_timeline(script, k)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda E: st.tuples(*(_timeline_scripts(2 * e + 2) for e in range(E)))))
def test_timeline_runs_match_stepped(scripts):
    """Runs that step each script column from its timeline have the columns
    and the focus records of runs that replay every event stage through a
    ``CeerRunner``."""
    _assert_same_as_stepped(CeerFamily(scripts), len(scripts), (1, 3, 10, 45, 120, 400))


@st.composite
def _scripts_near_bound(draw, k):
    """A script mentioning k - 1, k or k + 1 elements (small naturals or up
    to 10**12): a chain joins them all into one class, its last link at a
    drawn stage, and self-merges and stage-0 merges among the same
    elements are mixed in.  So the one class reaches size k, or passes it,
    or stays one short of it."""
    n = draw(st.sampled_from([k - 1, k, k + 1]))
    elements = draw(st.lists(st.one_of(st.integers(0, 9), st.integers(0, _BIG)),
                             min_size=n, max_size=n, unique=True))
    joined = draw(st.integers(0, 30))
    events = [(draw(st.integers(0, joined)), (x, y)) for x, y in zip(elements, elements[1:])]
    if events:
        events[-1] = (joined, events[-1][1])
    element = st.sampled_from(elements)
    events += [(draw(st.integers(0, 40)), (x, x))
               for x in draw(st.lists(element, min_size=n == 1, max_size=3))]
    events += [(0, pair) for pair in draw(st.lists(st.tuples(element, element), max_size=2))]
    return CeerScript(tuple(sorted(events, key=lambda ev: ev[0])))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda E: st.tuples(st.tuples(*(_scripts_near_bound(2 * e + 2) for e in range(E))),
                        st.lists(st.integers(1, 400), min_size=1, max_size=3))))
def test_size_bound_matches_stepped_and_closure(drawn):
    """A script column whose script mentions fewer than k elements is run
    from an empty timeline, and its limit check makes no pass.  At the
    bound and on either side of it, a run has the columns, focus records,
    tails and reports of a run that replays every focus through a
    ``CeerRunner``, and the limit check answers every size as the closure
    of the script's pairs does."""
    scripts, budgets = drawn
    _assert_same_as_stepped(CeerFamily(scripts), len(scripts), (*budgets, 400))
    for script in scripts:
        classes = bf_generated_classes(pair for _, pair in script.events)
        for k in range(1, len(script.elements) + 3):
            expected = k == 1 or any(len(c) == k for c in classes)
            assert limit_has_class_of_size(script, k) == expected, k


def test_unrecorded_run_steps_only_until_columns_settle(monkeypatch):
    """Every column of suite 7 settles by stage 2,500, so a run dispatches
    as often, and its trace keeps as many records, at 2,500, 8,000 and
    10**6 stages; a run that steps every focus dispatches every focused
    stage."""
    fam, _ = generate_diagonalization_suite(7)
    E = len(fam.members)
    dispatches = _count_calls(monkeypatch, coceer, "_dispatch")
    counts = {}
    for budget in (2500, 8000, 10**6):
        dispatches[0] = 0
        _, trace = run_coceer(fam, E, budget)
        counts[budget] = (dispatches[0], sum(map(len, trace.cases)), trace.tails.count(None))
    assert counts[2500] == counts[8000] == counts[10**6]
    stepped, cases, untailed = counts[2500]
    assert stepped == cases and untailed == 0
    dispatches[0] = 0
    stepped_run_coceer(fam, E, 10**4)
    assert dispatches[0] == sum(1 for _ in focus_schedule(E, 10**4)) > stepped


def _pi01_past_width(g, extra):
    """A stage budget past every label's certification horizon and the width."""
    K = max(g.width - 1, 0)
    return pi01.required_stages_for(g, K) + g.width + extra


def _assert_same_labeling(fast, ref):
    """The stacks hold the reference's label sets in increasing order, each
    member's label stage is the stage of its last reference transition, and
    the parked elements agree, each with a history of a label and a removal
    whose first entry is the label it left."""
    assert (len(fast.history), fast.stage) == (ref.next_fresh, ref.stage)
    assert len(fast.members) == ref.stage
    for k, stack in enumerate(fast.members):
        assert set(stack) == ref.members[k], k
        assert all(a < b for a, b in zip(stack, stack[1:])), k
        assert label_stages(fast, k) == [ref.transitions[x][-1][0] for x in stack], k
    assert all(len(fast.history[z]) == 2 for z in fast.removed_pending)
    assert sorted((z, fast.history[z][0][1]) for z in fast.removed_pending) == sorted(
        (z, ref.transitions[z][-2][1]) for z in ref.removed_pending)


def _assert_run_is_cut(g, state):
    """A run is the run stepped at every stage cut at its last stepped stage
    T = min(stages, settle stage), the greatest stage in its histories: each
    history through T (an element created after T has none).  ``state`` is
    the state stepped at every stage 1..stages.  The stacks the verifier
    rebuilds from the run's histories by the shift rule, and from the
    stepped ones, are the stepped stacks at ``stages`` of the labels below
    min(width, stages).  Returns the run and the stepped trace."""
    stages = state.stage
    stepped = pi01.PiTrace(stages, dict(enumerate(state.history)))
    last = min(stages, pi01.settle_stage(g))
    run = pi01.run_pi01(g, stages)
    assert run.stages == stages
    assert max((hist[-1][0] for hist in run.transitions.values()), default=0) == last
    assert run.transitions == cut_history(stepped, last)
    labels = min(g.width, stages)
    stacks = [label_stages(state, k) for k in range(labels)]
    assert pi01._label_stages(run, g, labels) == stacks
    assert pi01._label_stages(stepped, g, labels) == stacks
    return run, stepped


def _assert_pi01_matches_reference(g, stages):
    """Compare the states at every stage, then run past the horizon of labels
    up to width - 1, where the live verifier and the trace scan both apply."""
    fast, ref = pi01.LabelState(), ReferenceLabelState()
    for _ in range(stages):
        pi01.pi01_step(fast, g)
        reference_pi01_step(ref, g)
        _assert_same_labeling(fast, ref)
    assert dict(enumerate(fast.history)) == {x: tuple(h) for x, h in ref.transitions.items()}
    run, stepped = _assert_run_is_cut(g, fast)
    assert windows(stepped.transitions.values(), stages) == ref.windows
    K = max(g.width - 1, 0)
    assert pi01.verify_liminf_counts(run, g, K) == reference_verify_liminf_counts(stepped, g, K)


def _assert_preorder_matches_reference(gB, stages):
    """Run past the horizon width - 1; the verifier then applies."""
    fast, ref = preorder.VTable(), ReferenceVTable()
    for _ in range(stages):
        preorder.preorder_step(fast, gB)
        reference_preorder_step(ref, gB)
    for name in ("v", "stage", "events"):
        assert getattr(fast, name) == getattr(ref, name), name
    # the reference counts each index's changes; the library keeps them as reset events
    assert ref.change_count == {i: sum(j == i for _, j, old, _ in fast.events if old is not None)
                                for i in fast.v}
    assert len(fast.v) == ref.next_fresh
    for x in range(gB.width + 3):
        assert fast.holders_of(x) == ref.holders_of(x), x
    run = preorder.run_preorder(gB, stages)
    assert expand_tail(run) == fast
    horizon = gB.width - 1
    assert preorder.verify_claim(run, gB, horizon) == preorder.verify_claim(fast, gB, horizon)


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


def _assert_snapshot_matches_reference(t):
    snap, ref = preorder.materialize(t), reference_materialize(expand_tail(t))
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
    # the threshold of a_i counts the b's incomparable with it, and the
    # snapshot is the canonical form of those thresholds
    thresholds = snapshot_thresholds(snap)
    b = [preorder.elem_b(j) for j in range(nb)]
    for i in range(na):
        a = preorder.elem_a(i)
        assert thresholds[i] == sum(
            1 for y in b if not ref.le(a, y) and not ref.le(y, a))
    assert snap == canonical_snapshot(na, nb, thresholds)
    return snap, ref


def _random_vtable(rng, n):
    """A table at stage n with thresholds for some of 0..n+1: undefined,
    below n, at n and beyond."""
    v = {i: rng.randint(0, n + 2) for i in range(n + 2) if rng.random() < 0.7}
    return preorder.VTable(v=v, stage=n)


def test_materialize_matches_reference_random_tables():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 8)
        t1, t2 = _random_vtable(rng, n), _random_vtable(rng, n)
        snap1, ref1 = _assert_snapshot_matches_reference(t1)
        snap2, ref2 = _assert_snapshot_matches_reference(t2)
        # the normal form makes snapshot equality pair-set equality
        assert (snap1 == snap2) == (ref1.leq == ref2.leq)
        assert preorder.snapshot_from_json(preorder.snapshot_to_json(snap1)) == snap1
    _assert_snapshot_matches_reference(preorder.VTable())


@pytest.mark.parametrize("K", [0, 3, 10])
def test_materialize_matches_reference_on_runs(K):
    for seed in range(1, 5):
        t = preorder.run_preorder(generate_b(seed, K), 60 + 7 * seed)
        _assert_snapshot_matches_reference(t)


def test_snapshot_format_3_expands_to_format_2():
    """On generate_b seeds 0-39 (widths 4-11), at budgets 1, 2, W, P - 1,
    P, P + 1, 250 and 10^4 (W the width, P the settle stage), the snapshot's
    thresholds written out are the format-2 array: the stepped table's
    threshold of each a_i, i < n, clipped to n, and n where undefined.  The
    snapshot is the canonical form of that array, its file loads as itself,
    and up to P + 1 stages its order is ``reference_materialize``'s."""
    for seed in range(40):
        gB = generate_b(seed, 3 + seed % 8)
        W, P = gB.width, preorder.settle_stage(gB)
        for n in sorted({1, 2, W, P - 1, P, P + 1, 250, 10**4}):
            run = preorder.run_preorder(gB, n)
            snap, stepped = preorder.materialize(run), expand_tail(run)
            full = [min(stepped.v.get(i, n), n) for i in range(n)]
            assert snapshot_thresholds(snap) == full, (seed, n)
            assert snap == canonical_snapshot(n, n, full), (seed, n)
            assert len(snap.thresholds) <= len(run.v)
            doc = json.loads(json.dumps(preorder.snapshot_to_json(snap)))
            assert preorder.snapshot_from_json(doc) == snap
            if n <= P + 1:
                assert snap.leq == reference_materialize(stepped).leq, (seed, n)


def test_block_layout_matches_merges():
    rng = random.Random(31)
    for n in list(range(12)) + [64, 200]:
        bits = [rng.randint(0, 1) for _ in range(n + rng.randint(0, 3))]
        built = blocks.encode_blocks(bits, n)
        ref = reference_block_partition(bits, n)
        assert built.classes() == ref.classes()
        assert eqrel.character_of(built) == eqrel.character_of(ref)
        assert eqrel.character_of(built) == blocks.block_character(bits, n)


def test_block_runs_match_member_lists():
    rng = random.Random(37)
    for n in range(65):
        bits = [rng.randint(0, 1) for _ in range(n + rng.randint(0, 3))]
        runs = blocks.block_runs(bits, n)
        members, start = [], 0
        for length in runs:   # consecutive intervals from 0
            members.append(list(range(start, start + length)))
            start += length
        assert members == reference_block_classes(bits, n)
        assert runs == partition_runs(reference_block_partition(bits, n))
        assert eqrel.partition_from_json(
            eqrel.partition_to_json(blocks.block_offset(n), runs)).classes() == members


def test_block_encode_file_matches_general_path():
    """``blocks --encode`` writes, byte for byte, the file of the partition
    the bits code: its class lengths and its counted character.  With each
    length turned back into its ``[start, stop]`` run the partition is the
    format-2 file's, each class one run from its minimum to its maximum."""
    rng = random.Random(43)
    assert runs_as_format_2(eqrel.partition_to_json(0, blocks.block_runs([], 0))) == \
        {"window": 0, "runs": []}   # n = 0, which the command line refuses
    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/blocks.json"
        assert _run_cli(["blocks", "--x", "", "--encode", path])[0] == 2   # n = 0
        assert not os.path.exists(path)
        for n in list(range(1, 201)) + [400]:
            bits = [rng.randint(0, 1) for _ in range(n)]
            p = blocks.encode_blocks(bits, n)
            obj = {"format": 3, "n_blocks": n,
                   "partition": {"window": p.window, "runs": partition_runs(p)},
                   "character": eqrel.character_of(p).to_pairs()}
            summary = f"encoded {n} bits into {p.window} elements\n"
            assert _run_cli(["blocks", "--x", "".join(map(str, bits)),
                             "--encode", path]) == (0, summary, "")
            with open(path, encoding="utf-8") as f:
                written = f.read()
            assert written == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            two = [[[c[0], c[-1] + 1]] for c in reference_block_classes(bits, n)]
            assert runs_as_format_2(json.loads(written)["partition"]) == \
                {"window": n * n + 3 * n, "runs": two}


def _character_mutations(obj):
    """A block file's character, then each single mutation of it or of
    its ``n_blocks``."""
    pairs = obj["character"]
    yield pairs
    for i in range(len(pairs)):
        yield pairs[:i] + pairs[i + 1:]                      # a pair dropped
        yield pairs[:i + 1] + pairs[i:]                      # a pair repeated
        for j in range(2):
            for value in (pairs[i][j] - 1, pairs[i][j] + 1, True, 1.0, "2"):
                pair = list(pairs[i])
                pair[j] = value
                yield pairs[:i] + [pair] + pairs[i + 1:]
    yield obj["n_blocks"] - 1
    yield obj["n_blocks"] + 1


def test_block_decode_matches_reference_on_mutations():
    """On every single mutation of valid block files, ``blocks --decode``
    prints the bits or the error of the loader and decoder it replaced:
    two checking passes, a comparison with a second, whole character, and
    for format 3 a comparison of the partition's text with the coding's."""
    rng = random.Random(47)
    kinds = ("character entries must be [size, count] pairs", "duplicate character size",
             "character entries must be naturals", "bad character entry",
             "character is not a block coding", "character does not match any block coding",
             "block file 'partition' must be the coding of the decoded bits")
    outcomes = set()
    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/blocks.json"
        for n in list(range(1, 17)) + [40, 100]:
            bits = "".join(rng.choice("01") for _ in range(n))
            assert _run_cli(["blocks", "--x", bits, "--encode", path])[0] == 0
            with open(path, encoding="utf-8") as f:
                valid = json.load(f)
            mutations = [{"n_blocks": m} if isinstance(m, int) else {"character": m}
                         for m in _character_mutations(valid)]
            if n <= 16:   # each run's mutations; the reference merges a whole window for each
                mutations += [{"partition": m} for m in run_length_mutations(valid["partition"])]
            for mutation in mutations:
                obj = {**valid, **mutation}
                if obj["partition"] is None:
                    del obj["partition"]
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(obj, f)
                try:
                    entries = reference_character_from_pairs(obj["character"])
                    decoded = reference_decode_character(entries, obj["n_blocks"])
                    reference_check_block_partition(obj.get("partition"), decoded,
                                                    obj["n_blocks"])
                    want = (0, "".join(map(str, decoded)) + "\n", "")
                except InputError as exc:
                    want = (2, "", f"error: {exc}\n")
                assert _run_cli(["blocks", "--decode", path]) == want, obj
                outcomes.add(next((kind for kind in kinds if kind in want[2]), want[0]))
    # the files reach every outcome: a decode, and each kind of error
    assert outcomes == {0, *kinds}, outcomes


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


@settings(deadline=None, max_examples=60)
@given(_gtables, st.integers(1, 400))
def test_pi01_closed_form_matches_stepped_property(g, stages):
    """A run, stopped before or past its settle stage, is the stepped run cut
    at its last stepped stage, and its verdict is the trace-scanning
    reference's on the stepped run."""
    run, stepped = _assert_run_is_cut(g, stepped_state_pi01(g, stages))
    K = max(g.width - 1, 0)
    if stages >= pi01.required_stages_for(g, K):
        assert pi01.verify_liminf_counts(run, g, K) == reference_verify_liminf_counts(
            stepped, g, K)


@settings(deadline=None, max_examples=80)
@given(_gtables, st.integers(-20, 20))
def test_pi01_verifier_stacks_match_stepped_property(g, offset):
    """The verifier's stacks, rebuilt by the shift rule from a run stopped
    below, at or past its settle stage, are the stepped run's stacks."""
    _assert_run_is_cut(g, stepped_state_pi01(g, max(1, pi01.settle_stage(g) + offset)))


def test_pi01_counts_match_stacks_read_while_stepping():
    """The verifier's counts equal those read off each label's stack as a
    run read it while stepping, at its repeat stage
    (:func:`shifted_label_stages`), on 400 tables of each width 1..12 at six
    budgets from the horizon to 10**6.  The horizon is past the settle
    stage, so a run steps the same stages at each budget."""
    cases = 0
    for seed in range(400):
        for K in range(12):
            g = generate_gtable(seed, K)
            required = pi01.required_stages_for(g, K)
            assert pi01.settle_stage(g) <= required
            histories = pi01.run_pi01(g, required).transitions
            budgets = (required, required + 1, required + 7, required + 50,
                       max(required, 1500), 10**6)
            for stages, stacks in shifted_label_stages(g, budgets).items():
                want = tuple(pi01.LabelCount(
                    k, g.liminf(k), bisect_right(stacks[k] if k < len(stacks) else [k + 1],
                                                 stages - 2 * g.column_shape(k)[1]))
                    for k in range(K + 1))
                run = pi01.PiTrace(stages, histories)
                assert pi01.verify_liminf_counts(run, g, K) == want, (seed, K, stages)
                cases += 1
    assert cases == 400 * 12 * 6


def _run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=60)
@given(_gtables, st.integers(1, 400), st.booleans())
def test_pi01_trace_file_and_stdout_property(g, stages, verify):
    """A run's trace file, written before or past its settle stage, loads
    back to the run.  The CLI prints the same and exits the same with and
    without ``--trace``, and a ``--verify`` run too short for its labels
    writes no file."""
    run = pi01.run_pi01(g, stages)
    assert pi01.trace_from_json(json.loads(json.dumps(pi01.trace_to_json(run)))) == run
    with tempfile.TemporaryDirectory() as work:
        g_path, trace_path = f"{work}/g.json", f"{work}/trace.json"
        with open(g_path, "w") as f:
            json.dump(table_to_json(g), f)
        argv = ["pi01", "--g", g_path, "--stages", str(stages)]
        if verify:
            argv += ["--labels", str(max(g.width - 1, 0)), "--verify"]
        live = _run_cli(argv)
        assert _run_cli(argv + ["--trace", trace_path]) == live
        if live[0] == 2:   # a --verify run too short for its labels
            assert verify and stages < pi01.required_stages_for(g, max(g.width - 1, 0))
            assert not os.path.exists(trace_path)
        else:
            with open(trace_path) as f:
                assert pi01.trace_from_json(json.load(f)) == run


@settings(deadline=None, max_examples=60)
@given(_set_approxes, st.integers(1, 200))
def test_preorder_tail_matches_stepped_property(gB, stages):
    """A run stopped before or past its settle stage, its tail written out,
    is the stepped table, and its verdict and snapshot file are the stepped
    table's."""
    stepped = preorder.VTable()
    for _ in range(stages):
        preorder.preorder_step(stepped, gB)
    run = preorder.run_preorder(gB, stages)
    assert expand_tail(run) == stepped
    assert run.tail == sum(1 for event in stepped.events if event[0] > preorder.settle_stage(gB))
    horizon = gB.width - 1
    if stages >= preorder.required_stages_for(gB, horizon):
        assert preorder.verify_claim(run, gB, horizon) == preorder.verify_claim(
            stepped, gB, horizon)
    assert preorder.snapshot_to_json(preorder.materialize(run)) == preorder.snapshot_to_json(
        preorder.materialize(stepped))


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
    """A run steps pi01_step to its settle stage and asks g only there, so
    it makes as many calls at 10**6 stages as at 1,500 and keeps as many
    histories.  Stepped at every stage, a state asks g only about labels
    below the width and keeps each element in one place, a label stack or
    the parked heap."""
    g = pi01.GTable(()) if K is None else generate_gtable(7, K)
    steps = _count_calls(monkeypatch, pi01, "pi01_step")
    lookups = _count_calls(monkeypatch, pi01.GTable, "g")
    settle = pi01.settle_stage(g)
    bound = max(g.width - 1, 0)
    sizes = set()
    for budget in (1500, 10**4, 10**6):
        steps[0] = lookups[0] = 0
        run = pi01.run_pi01(g, budget)
        assert (steps[0], lookups[0]) == (settle, sum(min(s, g.width) for s in range(settle)))
        assert all(entry.match for entry in pi01.verify_liminf_counts(run, g, bound))
        assert max((hist[-1][0] for hist in run.transitions.values()), default=0) == settle
        sizes.add(len(run.transitions))
    assert len(sizes) == 1

    stages = 1500
    lookups[0] = 0
    st = pi01.LabelState()
    for _ in range(stages):
        pi01.pi01_step(st, g)
    assert lookups[0] == sum(min(s, g.width) for s in range(stages))
    assert sum(map(len, st.members)) + len(st.removed_pending) == len(st.history)


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
    """preorder steps to its settle stage P only, and reads g and the holders
    of x below the width at the even stages up to P, so a run makes as many
    calls at 10**6 stages as at 10**4 and keeps as many thresholds; the
    verifier asks for the holders of each positive x once."""
    gB = generate_b(7, K)
    settle = preorder.settle_stage(gB)
    steps = _count_calls(monkeypatch, preorder, "preorder_step")
    lookups = _count_calls(monkeypatch, Delta02SetApprox, "g")
    holder_queries = _count_calls(monkeypatch, preorder.VTable, "holders_of")
    # stage s+1 is even when s is odd, and then reads 1 <= x < min(s+1, width)
    expected = sum(min(s + 1, gB.width) - 1 for s in range(1, settle, 2))
    sizes = set()
    for budget in (10**4, 10**6):
        steps[0] = lookups[0] = holder_queries[0] = 0
        t = preorder.run_preorder(gB, budget)
        assert steps[0] == settle and lookups[0] == holder_queries[0] == expected
        sizes.add((len(t.v), len(t.events), sum(map(len, t.holders.values()))))
        assert t.tail == (budget + 1) // 2 - (settle + 1) // 2
        holder_queries[0] = 0
        assert preorder.verify_claim(t, gB, K).all_ok
        assert holder_queries[0] == K
    assert len(sizes) == 1

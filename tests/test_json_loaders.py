"""Every JSON loader round-trips a valid object, and given that object with
one or two values swapped for arbitrary JSON it raises nothing but
InputError; a coceer trace with a malformed case list or tail, and a pi01
trace with a malformed history, raise it, as does a coceer case that is not
the focus its column's earlier cases leave."""

import json
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effstruct import ceersim, coceer, core, pi01, preorder
from effstruct.core import UPSeq
from effstruct.eqrel import Character, Partition, partition_from_json, partition_to_json
from effstruct.errors import InputError
from effstruct.generators import generate_b, generate_diagonalization_suite, generate_gtable

from reference import (
    ReferenceLabelState, as_recorded, generate_family, label_stages, partition_runs,
    reference_pi01_step, reference_trace_from_json, stepped_state_pi01, windows,
)


def _coceer_trace(rng):
    """A run long enough that about half of them settle some column."""
    E = rng.randint(1, 4)
    return coceer.run_coceer(generate_family(rng.randrange(1000), E), E, rng.randint(1, 150))[1]


def _pi01_trace(rng):
    """A run stopped before, at or past its settle stage."""
    g = generate_gtable(rng.randrange(1000), rng.randint(0, 4))
    return pi01.run_pi01(g, rng.randint(1, pi01.settle_stage(g) + 12))


def _partition(rng):
    """A partition into consecutive intervals: each element joins its left
    neighbour's class or starts a new one."""
    n = rng.randint(0, 20)
    p = Partition(n)
    for x in range(1, n):
        if rng.random() < 0.6:
            p.merge(x - 1, x)
    return p


# name: (a valid object drawn from a Random, its encoder, the loader)
LOADERS = {
    "family": (lambda rng: generate_family(rng.randrange(1000), rng.randint(1, 4)),
               ceersim.family_to_json, ceersim.family_from_json),
    "gtable": (lambda rng: generate_gtable(rng.randrange(1000), rng.randint(0, 4)),
               core.table_to_json, partial(core.table_from_json, pi01.GTable)),
    "delta02": (lambda rng: generate_b(rng.randrange(1000), rng.randint(0, 4)),
                core.table_to_json, partial(core.table_from_json, core.Delta02SetApprox)),
    "coceer-trace": (_coceer_trace, coceer.trace_to_json, coceer.trace_from_json),
    "pi01-trace": (_pi01_trace, pi01.trace_to_json, pi01.trace_from_json),
    "snapshot": (lambda rng: preorder.materialize(preorder.run_preorder(
                     generate_b(rng.randrange(1000), 3), rng.randint(1, 12))),
                 preorder.snapshot_to_json, preorder.snapshot_from_json),
    "partition": (_partition, lambda p: partition_to_json(p.window, partition_runs(p)),
                  partition_from_json),
    "character": (lambda rng: Character({rng.randint(1, 9): rng.randint(0, 4)
                                         for _ in range(rng.randint(0, 4))}),
                  Character.to_pairs, Character.from_pairs),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1000) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _slots(doc, path=()):
    """Paths to the values inside ``doc``: every dict value, and the first and
    last entry of every list (the entries between are alike)."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, len(doc) - 1}) if doc else []
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _slots(doc[key], path + (key,))


def _swap(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


@pytest.mark.parametrize("name", LOADERS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_loader_round_trips_and_rejects_mutations(name, data):
    build, encode, load = LOADERS[name]
    obj = build(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    text = json.dumps(encode(obj))
    assert load(json.loads(text)) == obj
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2), label="swaps")):
        slots = list(_slots(doc))
        if slots:
            _swap(doc, data.draw(st.sampled_from(slots), label="path"),
                  data.draw(JSON_VALUES, label="value"))
    try:
        load(doc)
    except InputError:
        pass


def _break_columns(data, doc, trace, kind):
    """Make ``doc``, the format-5 file of the coceer ``trace``, malformed in
    the way ``kind`` names."""
    cases, tails, stages = doc["cases"], doc["tails"], doc["stages"]

    def column(tailed, nonempty=False):
        found = [e for e, tail in enumerate(tails)
                 if (tail is not None) == tailed and (cases[e] or not nonempty)]
        assume(found)
        return data.draw(st.sampled_from(found), label="column")

    def position(e):
        return data.draw(st.integers(0, len(cases[e]) - 1), label="position")

    if kind == "duplicate e":   # a column's tail given twice: one tail more than columns
        e = column(tailed=True)
        tails.insert(e, tails[e])
    elif kind == "e >= columns":   # a tail for a column past the case lists
        tails.append(data.draw(st.sampled_from([3, 4]), label="tail"))
    elif kind == "w < max(e, 1)":   # w = max(e, 1) + len - 1, so a tail on no case
        cases[column(tailed=True)] = []
    elif kind == "case not 3 or 4":
        tails[column(tailed=True)] = data.draw(
            st.sampled_from([0, 1, 2, 5, 9, 3.0, "3", True, [3]]), label="tail")
    elif kind == "tail stage > stages":
        # 'stages' cut below a tail stage, or the tailed column's cases (3 and
        # 4 are always taken) run on past 'stages'
        e = column(tailed=True)
        w = max(e, 1) + len(cases[e]) - 1
        if data.draw(st.booleans(), label="cut stages"):
            doc["stages"] = data.draw(st.integers(0, w * (w + 1) // 2 + e - 1), label="stages")
        else:
            while w * (w + 1) // 2 + e <= stages:
                cases[e].append(data.draw(st.sampled_from([3, 4]), label="case"))
                w += 1
    elif kind == "record missing":   # an untailed column one case short
        e = column(tailed=False, nonempty=True)
        del cases[e][position(e)]
    elif kind == "one case long":   # an untailed column with a case past 'stages'
        cases[column(tailed=False)].append(data.draw(st.sampled_from([3, 4]), label="case"))
    elif kind in ("format 2", "format 3", "format 4"):
        doc["format"] = int(kind[-1])
    elif kind == "replay":
        # case 1 on a column with an extra, or case 2 on one without
        e = column(tailed=data.draw(st.booleans(), label="tailed"), nonempty=True)
        i = position(e)
        before = [r.extra for r in trace.records if r.e == e][i - 1] if i else None
        cases[e][i] = 2 if before is None else 1
    elif kind == "case outside 1..4":
        e = column(tailed=data.draw(st.booleans(), label="tailed"), nonempty=True)
        cases[e][position(e)] = data.draw(
            st.sampled_from([0, 5, 9, -1, "3", 3.0, True, None, [3]]), label="case")
    elif kind == "cases and tails differ":
        data.draw(st.sampled_from([cases.pop, tails.pop, lambda: cases.append([]),
                                   lambda: tails.append(None)]), label="edit")()
    else:   # "no columns"
        doc["cases"], doc["tails"] = [], []


@pytest.mark.parametrize("kind", [
    "duplicate e", "e >= columns", "w < max(e, 1)", "case not 3 or 4", "tail stage > stages",
    "record missing", "one case long", "format 2", "format 3", "format 4", "replay",
    "case outside 1..4", "cases and tails differ", "no columns"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_coceer_trace_rejects_malformed_tails(kind, data):
    trace = _coceer_trace(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    doc = json.loads(json.dumps(coceer.trace_to_json(trace)))
    _break_columns(data, doc, trace, kind)
    with pytest.raises(InputError):
        coceer.trace_from_json(doc)


def _break_pi01_trace(data, doc, kind):
    """Make ``doc``, a pi01 trace with T stepped stages, T the greatest stage
    in its histories, malformed in the way ``kind`` names."""
    stages, histories = doc["stages"], doc["transitions"]
    stepped = max(hist[-1][0] for hist in histories)
    if kind == "history stage past T":
        hist = data.draw(st.sampled_from(histories), label="element")
        hist[-1][0] = data.draw(st.integers(stepped + 1, stages + 3), label="stage")
    elif kind == "history stage above S":
        hist = data.draw(st.sampled_from(histories), label="element")
        hist[-1][0] = data.draw(st.integers(stages + 1, stages + 9), label="stage")
    elif kind in ("format 1", "format 2", "format 3"):
        doc["format"] = int(kind[-1])
    elif kind in ("stack not at k+1", "decreasing stack"):
        # a member's label stage moved, so the stack the loader rebuilds from
        # the members' last entries does not start at k + 1, or decreases
        stacks: dict[int, list] = {}
        for hist in histories:
            if hist[-1][1] is not None:
                stacks.setdefault(hist[-1][1], []).append(hist[-1])
        if kind == "stack not at k+1":
            k = data.draw(st.sampled_from(sorted(stacks)), label="label")
            stacks[k][0][0] = data.draw(st.integers(k + 2, max(k + 2, stages)), label="stage")
        else:
            k = data.draw(st.sampled_from([k for k in sorted(stacks) if len(stacks[k]) > 1]
                                          or [None]), label="label")
            assume(k is not None)
            i = data.draw(st.integers(1, len(stacks[k]) - 1), label="member")
            stacks[k][i][0] = data.draw(st.integers(0, stacks[k][i - 1][0] - 1), label="stage")
    else:   # "no founder"
        # the element founding a label at stage k + 1 < T is dropped with its
        # history; T's own founder keeps T, which no window pins any more
        founders = [hist for hist in histories
                    for s, v in hist[-1:] if v is not None and s == v + 1 < stepped]
        assume(founders)
        histories.remove(data.draw(st.sampled_from(founders), label="founder"))


@pytest.mark.parametrize("kind", [
    "history stage past T", "history stage above S", "stack not at k+1", "decreasing stack",
    "format 1", "format 2", "format 3", "no founder"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_pi01_trace_rejects_malformed_stacks(kind, data):
    trace = _pi01_trace(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    doc = json.loads(json.dumps(pi01.trace_to_json(trace)))
    assume(doc["transitions"])
    _break_pi01_trace(data, doc, kind)
    with pytest.raises(InputError):
        pi01.trace_from_json(doc)


def test_pi01_trace_with_a_forged_stack_is_refused():
    """A format-3 file kept each label's stages at S as ``since``, which its
    loader could not check once the run stopped stepping before S: a
    trace whose label 0 settles to 1 at stage 6, at 100 stages, with
    ``since[0]`` forged from [1] to [1, 50], loaded and verified as 2
    members.  Format 3 is refused, and the format-4 file of the same run,
    which has no stacks to forge, verifies label 0 as 1 member."""
    g = pi01.GTable([UPSeq((2, 2, 2, 2, 2), (1,))])
    trace = pi01.run_pi01(g, 100)
    doc = json.loads(json.dumps(pi01.trace_to_json(trace)))
    assert max(hist[-1][0] for hist in doc["transitions"]) == pi01.settle_stage(g) == 6 < 100
    assert [label_stages(stepped_state_pi01(g, 100), 0)] == [[1]]
    with pytest.raises(InputError):
        pi01.trace_from_json({**doc, "format": 3, "since": [[1, 50]]})
    loaded = pi01.trace_from_json(doc)
    assert pi01.verify_liminf_counts(loaded, g, 0) == (pi01.LabelCount(0, 1, 1),)


# suites 0-29 and one family of every churn target 2..8 with spacing 1..4
_COCEER_FAMILIES = [generate_diagonalization_suite(seed)[0] for seed in range(30)] + [
    ceersim.CeerFamily(tuple(ceersim.ChurnGenerator(k, d) for k in range(2, 9)
                             for d in range(1, 5)))]
_BUDGETS = (1, 3, 10, 120, 300, 2500, 8000, 10**6)


@pytest.mark.parametrize("fam", _COCEER_FAMILIES, ids=[*map(str, range(30)), "churn"])
def test_coceer_trace_file_replays_like_the_reference(fam):
    """A run's format-5 file loads as the run, and the reference's own
    column replay of its cases gives the same records and tails; E is 1, 3
    and every member, at budgets 1 to 10^6."""
    for E in (1, 3, len(fam.members)):
        for budget in _BUDGETS:
            trace = coceer.run_coceer(fam, E, budget)[1]
            doc = json.loads(json.dumps(coceer.trace_to_json(trace)))
            loaded = coceer.trace_from_json(doc)
            assert loaded == trace and as_recorded(loaded) == reference_trace_from_json(doc)


@pytest.mark.parametrize("width", [0, 1, 3, 8])
def test_pi01_trace_file_keeps_what_the_windows_held(width):
    """A run's format-4 file loads as the run; T, the greatest stage in its
    histories, is min(stages, settle stage), and the window after each stage
    up to T, counted from the histories, is the reference stepper's."""
    for seed in range(40):
        g = pi01.GTable(()) if width == 0 else generate_gtable(seed, width - 1)
        settle, ref = pi01.settle_stage(g), ReferenceLabelState()
        for _ in range(settle):
            reference_pi01_step(ref, g)
        for budget in _BUDGETS:
            trace = pi01.run_pi01(g, budget)
            doc = json.loads(json.dumps(pi01.trace_to_json(trace)))
            assert pi01.trace_from_json(doc) == trace
            last = max((hist[-1][0] for hist in doc["transitions"]), default=0)
            assert last == min(budget, settle)
            assert windows(doc["transitions"], last) == ref.windows[:last + 1]

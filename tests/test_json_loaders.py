"""Every JSON loader round-trips a valid object, and given that object with
one or two values swapped for arbitrary JSON it raises nothing but
InputError; a coceer trace with a malformed tail or record, and a pi01
trace with a malformed history, window or label stack, raise it, as does
a coceer record that is not the focus its column's earlier records leave."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effstruct import ceersim, coceer, core, pi01, preorder
from effstruct.eqrel import Character, Partition, partition_from_json, partition_to_json
from effstruct.errors import InputError
from effstruct.generators import generate_b, generate_gtable

from reference import generate_family, partition_runs


def _coceer_trace(rng):
    """A run long enough that about half of them settle some column."""
    E = rng.randint(1, 4)
    return coceer.run_coceer(generate_family(rng.randrange(1000), E), E, rng.randint(1, 150))[1]


def _pi01_trace(rng):
    """A run stopped before, at or past its settle stage."""
    g = generate_gtable(rng.randrange(1000), rng.randint(0, 4))
    return pi01.run_pi01(g, rng.randint(1, pi01.settle_stage(g) + 12))


def _partition(rng):
    n = rng.randint(0, 20)
    p = Partition(n)
    for _ in range(rng.randint(0, n)):
        p.merge(rng.randrange(n), rng.randrange(n))
    return p


# name: (a valid object drawn from a Random, its encoder, the loader)
LOADERS = {
    "family": (lambda rng: generate_family(rng.randrange(1000), rng.randint(1, 4)),
               ceersim.family_to_json, ceersim.family_from_json),
    "gtable": (lambda rng: generate_gtable(rng.randrange(1000), rng.randint(0, 4)),
               pi01.gtable_to_json, pi01.gtable_from_json),
    "delta02": (lambda rng: generate_b(rng.randrange(1000), rng.randint(0, 4)),
                core.delta02_to_json, core.delta02_from_json),
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


def _bad_extra(data, e):
    """An extra that is not null or a natural above 2e+1."""
    return data.draw(st.one_of(
        st.integers(-2, 2 * e + 1),                    # at or below the initial segment
        st.sampled_from([True, "9", 2.0 * e + 3, [2 * e + 2], {}]),
    ), label="extra")


def _off_replay(data, r):
    """Change one of record ``r``'s case, extra and exile, each still of the
    right shape, so that it is not the focus its column's earlier records
    leave (:func:`coceer._dispatch` on the replayed column)."""
    e, field = r["e"], data.draw(st.sampled_from(["case", "extra", "exiled"]), label="field")
    if field == "case":
        r["case"] = data.draw(st.sampled_from([c for c in range(1, 5) if c != r["case"]]),
                              label="case")
    elif field == "extra":
        r["extra"] = data.draw(st.one_of(st.none(), st.integers(2 * e + 2, 2 * e + 60)).filter(
            lambda x: x != r["extra"]), label="extra")
    else:
        r["exiled"] = data.draw(st.one_of(st.just([]), st.builds(
            lambda x: [[e, x]], st.integers(2 * e + 2, 2 * e + 60))).filter(
            lambda x: x != r["exiled"]), label="exiled")


def _break_tail_or_record(data, doc, kind):
    """Make ``doc``, a coceer trace with a tail, malformed in the way ``kind`` names."""
    tails, records = doc["tails"], doc["records"]
    tail = data.draw(st.sampled_from(tails), label="tail")
    e, w, _ = tail
    mine = [r for r in records if r["e"] == e]
    if kind == "duplicate e":
        tails.insert(tails.index(tail), list(tail))
    elif kind == "e >= columns":
        tail[0] = doc["columns"] + data.draw(st.integers(0, 3), label="past")
    elif kind == "w < max(e, 1)":
        # with or without the column's records
        tail[1] = data.draw(st.integers(0, max(e, 1) - 1), label="w")
        if data.draw(st.booleans(), label="drop records"):
            doc["records"] = [r for r in records if r["e"] != e]
    elif kind == "case not 3 or 4":
        tail[2] = data.draw(st.sampled_from([0, 1, 2, 5, 9, 3.0, "3", True, None]), label="case")
    elif kind == "tail stage > stages":
        # with the records that reach it, or with 'stages' cut below it; a cut
        # keeps only the columns below the first one without a tail (a run
        # of fewer columns), so that no untailed column's records pass it
        if data.draw(st.booleans(), label="cut stages"):
            tailed = {t[0] for t in tails}
            kept = next(c for c in range(doc["columns"] + 1) if c not in tailed)
            assume(kept > 0)
            doc["columns"] = kept
            doc["tails"] = [t for t in tails if t[0] < kept]
            doc["records"] = [r for r in records if r["e"] < kept]
            end = max(t[1] * (t[1] + 1) // 2 + t[0] for t in doc["tails"])
            doc["stages"] = data.draw(st.integers(0, end - 1), label="stages")
        else:
            W = max(e, 1)
            while W * (W + 1) // 2 + e <= doc["stages"]:
                W += 1
            tail[1] = W + data.draw(st.integers(0, 3), label="beyond")
    elif kind == "record past its tail":
        records.append({**mine[-1], "stage": (w + 1) * (w + 2) // 2 + e})
        records.sort(key=lambda r: r["stage"])
    elif kind == "record missing":
        records.remove(data.draw(st.sampled_from(mine), label="record"))
    elif kind == "flag key":
        data.draw(st.sampled_from(records), label="record")["flag"] = "off"
    elif kind in ("format 2", "format 3"):
        doc["format"] = int(kind[-1])
    elif kind == "exiled":
        # a focus exiles at most one element, of its own column
        r = data.draw(st.sampled_from(records), label="record")
        e, x = r["e"], data.draw(st.integers(2 * r["e"] + 2, 2 * r["e"] + 40), label="x")
        other = data.draw(st.integers(0, doc["columns"] + 2).filter(lambda a: a != e),
                          label="other column")
        r["exiled"] = data.draw(st.sampled_from([
            [[other, x]], [[e, x], [e, x + 1]], [[e, x], [e, x]], [[e, x], [other, x]],
            r["exiled"] + [[e, x], [other, x]]]), label="exiled")
    elif kind == "replay":
        _off_replay(data, data.draw(st.sampled_from(records), label="record"))
    else:
        r = data.draw(st.sampled_from(records), label="record")
        r["extra"] = _bad_extra(data, r["e"])


@pytest.mark.parametrize("kind", [
    "duplicate e", "e >= columns", "w < max(e, 1)", "case not 3 or 4", "tail stage > stages",
    "record past its tail", "record missing", "flag key", "format 2", "format 3", "exiled",
    "replay", "extra"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_coceer_trace_rejects_malformed_tails(kind, data):
    trace = _coceer_trace(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    assume(trace.tails)
    doc = json.loads(json.dumps(coceer.trace_to_json(trace)))
    _break_tail_or_record(data, doc, kind)
    with pytest.raises(InputError):
        coceer.trace_from_json(doc)


def _break_pi01_trace(data, doc, kind):
    """Make ``doc``, a pi01 trace with T = len(windows) - 1 stepped stages,
    malformed in the way ``kind`` names."""
    stages, since = doc["stages"], doc["since"]
    stepped = len(doc["windows"]) - 1
    if kind == "history stage past T":
        hist = data.draw(st.sampled_from(doc["transitions"]), label="element")[1]
        hist[-1][0] = data.draw(st.integers(stepped + 1, stages + 3), label="stage")
    elif kind == "more than S+1 windows":
        # with a founder for each label the extra stages open
        more = stages + 1 - stepped + data.draw(st.integers(0, 3), label="more")
        fresh = doc["windows"][-1]
        doc["windows"] += [fresh + i + 1 for i in range(more)]
        doc["transitions"] += [[fresh + i, [[k + 1, k]]]
                               for i, k in enumerate(range(stepped, stepped + more))]
    elif kind == "more than T stacks":
        since += [[k + 1] for k in range(len(since), stepped + 1
                                          + data.draw(st.integers(0, 3), label="more"))]
    elif kind == "since differs at T == S":
        assume(stepped == stages and since)
        stack = data.draw(st.sampled_from(since), label="stack")
        if len(stack) > 1 and data.draw(st.booleans(), label="drop"):
            stack.pop()
        else:
            stack.append(data.draw(st.integers(stack[-1], stages), label="entry"))
    elif kind == "windows flattened":
        windows = [0] + [data.draw(st.integers(0, 999), label="window")] * stepped
        assume(windows != doc["windows"])
        doc["windows"] = windows
    elif kind == "windows reversed":
        doc["windows"].reverse()
    elif kind == "window moved":
        s = data.draw(st.integers(0, stepped), label="stage")
        doc["windows"][s] = data.draw(
            st.integers(0, doc["windows"][-1] + 3).filter(lambda v: v != doc["windows"][s]),
            label="window")
    elif kind == "format 1":
        doc["format"] = 1
    elif kind == "no founder":
        # the element founding a label at stage k + 1 is dropped with its history
        founders = [item for item in doc["transitions"]
                    for s, v in item[1][-1:] if v is not None and s == v + 1]
        assume(founders)
        doc["transitions"].remove(data.draw(st.sampled_from(founders), label="founder"))
    elif kind == "stack dropped":
        # the last stack is dropped although its label holds more than its founder at T
        assume(since and sum(hist[-1][1] == len(since) - 1 for _, hist in doc["transitions"]) > 1)
        since.pop()
    else:
        assume(since)
        k = data.draw(st.integers(0, len(since) - 1), label="label")
        stack = since[k]
        if kind == "stack not at k+1":
            stack[0] = data.draw(st.integers(0, stages + 3).filter(lambda v: v != k + 1),
                                 label="founder stage")
        elif kind == "decreasing stack":
            stack.append(data.draw(st.integers(0, stack[-1] - 1), label="entry"))
        else:   # "entry above S"
            stack.append(data.draw(st.integers(stages + 1, stages + 9), label="entry"))


@pytest.mark.parametrize("kind", [
    "history stage past T", "more than S+1 windows", "stack not at k+1", "decreasing stack",
    "entry above S", "more than T stacks", "since differs at T == S", "windows flattened",
    "windows reversed", "window moved", "format 1", "no founder", "stack dropped"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_pi01_trace_rejects_malformed_stacks(kind, data):
    trace = _pi01_trace(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    doc = json.loads(json.dumps(pi01.trace_to_json(trace)))
    assume(doc["transitions"])
    _break_pi01_trace(data, doc, kind)
    with pytest.raises(InputError):
        pi01.trace_from_json(doc)

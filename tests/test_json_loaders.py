"""Every JSON loader round-trips a valid object, and given that object with
one or two values swapped for arbitrary JSON it raises nothing but
InputError."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effstruct import ceersim, coceer, core, pi01, preorder
from effstruct.eqrel import Character, Partition, partition_from_json, partition_to_json
from effstruct.errors import InputError
from effstruct.generators import generate_b, generate_gtable

from reference import generate_family, partition_runs


def _coceer_trace(rng):
    E = rng.randint(1, 4)
    return coceer.run_coceer(generate_family(rng.randrange(1000), E), E, rng.randint(1, 40))[1]


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
    "pi01-trace": (lambda rng: pi01.run_pi01(generate_gtable(rng.randrange(1000), 3),
                                             rng.randint(1, 12)),
                   pi01.trace_to_json, pi01.trace_from_json),
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

"""Deterministic pseudo-random instances for the property suites.

Everything here is a pure function of the seed, so repeated runs produce
byte-identical artifacts.  Generated scripts keep within 50 events;
sequence prefixes stay within 8 entries, periods within 6, values within 9.
"""

from __future__ import annotations

import random

from .ceersim import CeerFamily, CeerRunner, CeerScript, ChurnGenerator
from .core import Delta02SetApprox, UPSeq
from .errors import InputError
from .pi01 import GTable

_NOISE_ELEMENTS = 30
_NOISE_LAST_STAGE = 240
_FIX_FIRST_STAGE = 250
_FRESH_BASE = 50


def _final_runner(events: list[tuple[int, tuple[int, int]]]) -> CeerRunner:
    script = CeerScript(tuple(sorted(events, key=lambda ev: ev[0])))
    runner = CeerRunner(script)
    runner.advance_to(script.last_event_stage)
    return runner


def _noise_events(rng: random.Random, count: int) -> list[tuple[int, tuple[int, int]]]:
    events = []
    for _ in range(count):
        stage = rng.randint(1, _NOISE_LAST_STAGE)
        x = rng.randrange(_NOISE_ELEMENTS)
        y = rng.randrange(_NOISE_ELEMENTS)
        events.append((stage, (x, y)))
    return events


def _script_with_class(rng: random.Random, k: int) -> CeerScript:
    """Script whose limit has at least one class of size exactly k."""
    events = _noise_events(rng, rng.randint(6, 18))
    if not _final_runner(events).has_class_of_size(k):
        base = _FRESH_BASE
        for i in range(1, k):
            events.append((_FIX_FIRST_STAGE + i - 1, (base, base + i)))
    script = CeerScript(tuple(sorted(events, key=lambda ev: ev[0])))
    assert len(script.events) <= 50
    return script


def _script_without_class(rng: random.Random, k: int) -> CeerScript:
    """Script whose limit has no class of size exactly k."""
    events = _noise_events(rng, rng.randint(6, 18))
    stage = _FIX_FIRST_STAGE
    fresh = _FRESH_BASE
    while True:
        offenders = [c[0] for c in _final_runner(events).classes if len(c) == k]
        if not offenders:
            break
        for m in offenders:  # grow each size-k class past k
            events.append((stage, (m, fresh)))
            stage += 1
            fresh += 1
    script = CeerScript(tuple(sorted(events, key=lambda ev: ev[0])))
    assert len(script.events) <= 50
    return script


def generate_diagonalization_suite(seed: int) -> tuple[CeerFamily, dict[int, str]]:
    """Family for the diagonalization suite, columns 1..25 under test.

    Column e is diagonalized at target size 2e+2, so scripts that must
    realize that size live at e <= 12 to keep within the 50-event cap
    (a size-k class takes k-1 merges to build).  Returns the family and
    the kind of each column under test: 10 scripts realizing the target
    size, 10 avoiding it, 5 churn generators.
    """
    rng = random.Random(seed)
    with_positions = set(rng.sample(range(1, 13), 10))
    rest = [e for e in range(1, 26) if e not in with_positions]
    churn_positions = set(rng.sample(rest, 5))
    members: list[CeerScript | ChurnGenerator] = [CeerScript(())]
    kinds: dict[int, str] = {}
    for e in range(1, 26):
        k = 2 * e + 2
        if e in with_positions:
            members.append(_script_with_class(rng, k))
            kinds[e] = "with"
        elif e in churn_positions:
            members.append(ChurnGenerator(k, rng.randint(2, 4)))
            kinds[e] = "churn"
        else:
            members.append(_script_without_class(rng, k))
            kinds[e] = "without"
    return CeerFamily(tuple(members)), kinds


def generate_gtable(seed: int, K: int) -> GTable:
    """Class-size table with columns 0..K, values in 1..9."""
    if K < 0:
        raise InputError("K must be nonnegative")
    rng = random.Random(seed)
    columns = []
    for _ in range(K + 1):
        prefix = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 8)))
        period = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        columns.append(UPSeq(prefix, period))
    return GTable(tuple(columns))


def generate_b(seed: int, K: int) -> Delta02SetApprox:
    """Binary set approximation with columns 0..K; column 0 stays 0."""
    if K < 0:
        raise InputError("K must be nonnegative")
    rng = random.Random(seed)
    columns = [UPSeq((), (0,))]
    for _ in range(K):
        prefix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        limit = 0 if rng.random() < 0.45 else 1
        columns.append(UPSeq(prefix, (limit,)))
    return Delta02SetApprox(tuple(columns))


def has_membership_flip(b: Delta02SetApprox) -> bool:
    """True when some element looks in, then settles out (a 1 -> 0 flip)."""
    for x in range(1, b.width):
        col = b.columns[x]
        if 1 in col.prefix and b.liminf(x) == 0:
            return True
    return False

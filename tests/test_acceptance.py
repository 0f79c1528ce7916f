"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints one PASS line (visible with ``pytest -s``); a failing
assertion is the FAIL case.  The constructions' limit statements are
checked against independent oracles on finitely presented inputs: script
limits are replayed exactly, liminfs and set limits are read off the
periodic presentations directly, and relation-level invariants are
verified by brute force on small windows.
"""

import random
import time

import pytest

from effstruct.blocks import block_character, decode_character, encode_blocks
from effstruct.ceersim import CeerRunner, CeerScript, limit_has_class_of_size
from effstruct.coceer import run_coceer, verify_requirement
from effstruct.core import cantor_unpair
from effstruct.eqrel import Partition, character_of
from effstruct.generators import (
    generate_b,
    generate_diagonalization_suite,
    generate_gtable,
    has_membership_flip,
)
from effstruct.pi01 import required_stages_for, run_pi01, verify_liminf_counts
from effstruct.preorder import (
    ELEM_C,
    ELEM_D,
    elem_a,
    elem_b,
    materialize,
    required_stages_for as preorder_required_stages,
    run_preorder,
    verify_claim,
)

from bruteforce import (
    bf_character,
    bf_is_equivalence,
    bf_is_preorder,
    bf_oldest_class_min,
    bf_preorder_closure,
    bf_subset,
)
from reference import (
    canonical_snapshot, classify_history, column_witnesses, expand_tails, label_at, report_y_limit,
    stepped_run_pi01, windows,
)

SEED = 7
COCEER_BUDGET = 4000  # the criterion allows up to 20 000
PI01_RUNS = 50
PREORDER_RUNS = 30


@pytest.fixture(scope="module")
def diagonalization_run():
    fam, kinds = generate_diagonalization_suite(SEED)
    start = time.monotonic()
    columns, trace = run_coceer(fam, len(fam.members), COCEER_BUDGET)
    reports = {e: verify_requirement(columns, fam, e) for e in kinds}
    elapsed = time.monotonic() - start
    return fam, kinds, columns, trace, reports, elapsed


@pytest.fixture(scope="module")
def pi01_runs():
    """Each table's run, timed, and the same table stepped at every stage:
    a run keeps histories only up to its settle stage, and the criteria
    read whole histories."""
    runs = []
    start = time.monotonic()
    for j in range(PI01_RUNS):
        K = 2 + j % 7
        table = generate_gtable(SEED * 100 + j, K)
        stages = required_stages_for(table, K) + 4
        trace = run_pi01(table, stages)
        runs.append((table, K, trace))
    elapsed = time.monotonic() - start
    return [(table, K, trace, stepped_run_pi01(table, trace.stages))
            for table, K, trace in runs], elapsed


def test_criterion_1_coceer_diagonalization(diagonalization_run):
    fam, kinds, _, _, reports, elapsed = diagonalization_run
    tally = {"with": 0, "without": 0, "churn": 0}
    for e, kind in kinds.items():
        tally[kind] += 1
        report = reports[e]
        assert report.satisfied, f"column {e} ({kind}) not satisfied: {report}"
        assert report.certified, f"column {e} ({kind}) not certified: {report}"
        # cross-check the requirement against the family's exact limit
        has = limit_has_class_of_size(fam.member(e), report.k)
        assert report.r_e_has_size_k == has == (kind == "with")
        assert (report.witness_class_size == report.k) == (kind != "with")
    assert tally == {"with": 10, "without": 10, "churn": 5}
    assert COCEER_BUDGET <= 20000
    assert elapsed < 10.0
    print(
        f"\ncriterion 1: PASS — 25/25 requirements satisfied and certified "
        f"in {COCEER_BUDGET} stages ({elapsed:.2f}s)"
    )


def test_criterion_2_corrected_witness_identity(diagonalization_run):
    _, kinds, columns, trace, reports, _ = diagonalization_run
    exiled: dict[int, set[int]] = {}
    checked = 0
    for record in expand_tails(trace).records:
        col_exiles = exiled.setdefault(record.e, set())
        for _, x in record.exiled:
            col_exiles.add(x)
        witnesses = set(record.witnesses)
        settled = {x for x in range(max(witnesses) + 1) if x not in col_exiles}
        assert settled == {0} | witnesses, f"stage {record.stage}, column {record.e}"
        checked += 1
    # churn columns settle back on their initial witnesses exactly
    for e, kind in kinds.items():
        if kind == "churn":
            assert report_y_limit(reports[e]) == tuple(range(1, 2 * e + 2))
            col = columns[e]
            assert column_witnesses(col)[:col.base] == report_y_limit(reports[e])
    print(
        f"\ncriterion 2: PASS — witness-class identity held on all {checked} "
        f"focused stages; churn columns settled on their initial witnesses"
    )


def test_criterion_3_pi01_liminf_counts(pi01_runs):
    runs, elapsed = pi01_runs
    label_checks = 0
    for table, K, trace, stepped in runs:
        assert verify_liminf_counts(stepped, table, K) == verify_liminf_counts(trace, table, K)
        for entry in verify_liminf_counts(trace, table, K):
            # independent oracle: the liminf of an ultimately periodic
            # column is the minimum of its period, read off directly
            assert entry.expected == min(table.columns[entry.label].period)
            assert entry.observed == entry.expected, (table, entry)
            label_checks += 1
        # the per-stage count identity, re-derived from the whole histories alone
        window = len(stepped.transitions)
        for s in range(1, stepped.stages + 1):
            counts: dict[int, int] = {}
            for x in range(window):
                label = label_at(stepped, x, s)
                if label is not None:
                    counts[label] = counts.get(label, 0) + 1
            for k in range(s - 1):
                assert counts.get(k, 0) == table.g(k, s)
        for x in sorted(stepped.transitions):
            pattern = classify_history(stepped, x)  # raises on any b-discipline breach
            assert pattern in ("a", "b", "unstable")
    assert elapsed < 5.0
    print(
        f"\ncriterion 3: PASS — {len(runs)} tables, {label_checks} certified label "
        f"counts exact, per-stage identities and histories clean ({elapsed:.2f}s)"
    )


def test_criterion_4_monotone_shrinking_snapshots(diagonalization_run, pi01_runs):
    # negative-information discipline: relations only ever shrink, and
    # every materialized snapshot is an equivalence relation
    _, _, _, trace, _, _ = diagonalization_run
    window = 12
    exiled: dict[int, set[int]] = {}
    small_codes = [(z, cantor_unpair(z)) for z in range(window)]

    def coceer_relation() -> frozenset:
        pairs = []
        for z1, (e1, x1) in small_codes:
            if x1 in exiled.get(e1, ()):
                continue
            for z2, (e2, x2) in small_codes:
                if e1 == e2 and x2 not in exiled.get(e2, ()):
                    pairs.append((z1, z2))
        return frozenset(pairs) | frozenset((z, z) for z in range(window))

    current = coceer_relation()
    assert bf_is_equivalence(window, current)
    coceer_checks = 1
    for record in trace.records:
        changed = False
        for e, x in record.exiled:
            exiled.setdefault(e, set()).add(x)
            if any(ee == e and xx == x for _, (ee, xx) in small_codes):
                changed = True
        if changed:
            newer = coceer_relation()
            assert bf_subset(newer, current)
            assert bf_is_equivalence(window, newer)
            current = newer
            coceer_checks += 1

    pi01_checks = 0
    runs, _ = pi01_runs
    for _, _, _, pitrace in runs:
        def pi01_relation(s: int, w: int) -> frozenset:
            pairs = set((x, x) for x in range(w))
            for x in range(w):
                for y in range(w):
                    lx, ly = label_at(pitrace, x, s), label_at(pitrace, y, s)
                    if lx is not None and lx == ly:
                        pairs.add((x, y))
            return frozenset(pairs)

        sizes = windows(pitrace.transitions.values(), pitrace.stages)
        for s in range(1, pitrace.stages + 1):
            w = min(12, sizes[s])
            rel = pi01_relation(s, w)
            assert bf_is_equivalence(w, rel)
            if s < pitrace.stages:
                assert bf_subset(pi01_relation(s + 1, w), rel)
            pi01_checks += 1
    print(
        f"\ncriterion 4: PASS — zero monotonicity or equivalence violations "
        f"({coceer_checks} changed windows, {pi01_checks} staged snapshots)"
    )


def test_criterion_5_preorder_fingerprints():
    start = time.monotonic()
    flip_instances = 0
    snapshot_checks = 0
    for j in range(PREORDER_RUNS):
        K = 3 + j % 8
        approx = generate_b(SEED * 200 + j, K)
        flip_instances += has_membership_flip(approx)
        stages = preorder_required_stages(approx, K) + 2
        table = run_preorder(approx, stages)
        report = verify_claim(table, approx, K)
        # independent oracle: membership is the constant period value
        members = tuple(
            x for x in range(1, K + 1)
            if x < approx.width and approx.columns[x].period[0] == 1
        )
        assert report.fingerprint_values == members
        for entry in report.entries:
            assert len(entry.holders) == (1 if entry.x in members else 0)
        assert report.zero_count >= K
        resets = [i for _, i, old, _ in table.events if old is not None]
        assert len(resets) == len(set(resets))   # at most one reset per index
        for stage, i, old, new in table.events:
            assert old is None or new == 0
        for s in range(10, stages + 1, 10):
            replay = run_preorder(approx, s)
            # the snapshot restricted to c, d, a_0..a_7 and b_0..b_7
            window = {ELEM_C, ELEM_D, *map(elem_a, range(8)), *map(elem_b, range(8))}
            leq = frozenset(p for p in materialize(replay).leq if window.issuperset(p))
            assert bf_is_preorder(sorted(window), leq)
            snapshot_checks += 1
    elapsed = time.monotonic() - start
    assert flip_instances >= 10
    assert elapsed < 5.0
    print(
        f"\ncriterion 5: PASS — {PREORDER_RUNS} set approximations recovered exactly "
        f"({flip_instances} with flips), {snapshot_checks} snapshots reflexive+transitive "
        f"({elapsed:.2f}s)"
    )


def test_criterion_6_block_coder():
    rng = random.Random(SEED)
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(64)]
        assert decode_character(block_character(bits, 64), 64) == bits
    for n in range(33):
        bits = [rng.randint(0, 1) for _ in range(n)]
        assert character_of(encode_blocks(bits, n)) == block_character(bits, n)
    print(
        "\ncriterion 6: PASS — 100 round trips at 64 bits and character "
        "agreement up to 32 blocks, exact"
    )


def test_criterion_7_oracle_cross_checks():
    rng = random.Random(SEED * 3)
    for _ in range(220):
        n = rng.randint(1, 12)
        p = Partition(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        for x, y in pairs:
            p.merge(x, y)
        classes = p.classes()
        runner = CeerRunner(CeerScript(tuple((1, pair) for pair in pairs)))
        runner.advance_to(1)
        assert [list(c) for c in runner.classes] == [c for c in classes if len(c) > 1]
        k = rng.randint(2, 6)
        assert runner.oldest_class_min(k) == bf_oldest_class_min(runner.classes, k)
        assert character_of(p).entries == bf_character(classes)
    for _ in range(220):
        na, nb = rng.randint(0, 5), rng.randint(0, 5)
        thresholds = [rng.randint(0, nb) for _ in range(na)]
        snap = canonical_snapshot(na, nb, thresholds)
        generators = [(ELEM_C, elem_a(i)) for i in range(na)]
        generators += [(elem_b(j + 1), elem_b(j)) for j in range(nb - 1)]
        if nb:
            generators.append((elem_b(0), ELEM_D))
        for i, v in enumerate(thresholds):
            if v < nb:
                generators.append((elem_b(v), elem_a(i)))
        assert snap.leq == bf_preorder_closure(snap.elements(), generators)
    print(
        "\ncriterion 7: PASS — 220 oldest-class and character cross-checks, "
        "220 transitive-closure materializations, all exact"
    )

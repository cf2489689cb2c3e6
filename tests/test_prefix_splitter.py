"""The splitting walk groups the candidates by head, their rows after
the first, builds one state per head in one call and tests each first
row under a live head with one call.  That shared state changes no
answer: in every call order the walk's verdicts agree with each
candidate walked alone, over F_2 and over q in {3, 4, 5, 9} with random
moduli, generators and endomorphisms.  And the sharing happens: a full
scan builds one state per run of candidates sharing their head, at
m = 2 and at m = 3, where a head has two rows, tests each candidate
under a live head once and none under a dead head, and pulls every
candidate from linalg.enumerate_subspaces."""

import itertools
import random

import pytest

from splitlab import (
    Matrix,
    build_field,
    count_pointed,
    count_splitting,
    count_splitting_bases,
    count_T_splitting,
    enumerate_subspaces,
    pointed_consistency,
    split_instance,
    ssc_formula,
)
from splitlab import linalg, splitting
from sampling import (
    random_base, random_instance, random_matrix, random_nilpotent, random_singular,
    splits_by_stacking,
)

# (q, m, n): every q with shapes whose full scan stays small
POINTS = [
    (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
    (3, 1, 3), (3, 2, 2),
    (4, 1, 2), (4, 2, 2),
    (5, 1, 2), (5, 2, 2),
    (9, 1, 2), (9, 3, 1),
]


def operator_powers(q, m, n, rng):
    """(base, powers) for the tower generator of two random instances
    and for the zero, identity, random, nilpotent and singular
    endomorphisms."""
    base = random_base(q, rng)
    size = m * n
    family = [Matrix.zero(base, size, size), Matrix.identity(base, size),
              random_matrix(base, size, size, rng), random_nilpotent(base, size, rng)]
    if size > 1:
        family.append(random_singular(base, size, rng))
    powers = [random_instance(base, m, n, rng).mats for _ in range(2)]
    powers += [splitting._powers(T, m, n) for T in family]
    return base, powers


def check_order(base, powers, calls):
    """The walk over the order gives every call the verdict of the call
    walked alone; returns the set of verdicts."""
    calls = list(calls)
    alone = [splitting._splitter(base, powers)(rows) for rows in calls]
    assert list(splitting._verdicts(base, powers, calls)) == alone, powers
    return set(alone)


def dead_prefix_orders(base, candidates, rng):
    """For each depth j, a candidate whose first j rows in walk order
    (rows 1, ..., m - 1, then row 0) are dead (the j-th is zero or
    repeats the first), then that candidate with its row at each depth
    replaced in turn, and a candidate sharing its first j - 1."""
    zero = (base.zero,) * len(candidates[0][0])
    m = len(candidates[0])
    walk = [*range(1, m), 0]
    scalars = linalg.raw_scalars(base)
    for j in range(1, m + 1):
        rows = list(rng.choice(candidates))
        rows[walk[j - 1]] = zero if j == 1 or rng.randrange(2) else rows[walk[0]]
        calls = [tuple(rows)]
        for depth in range(m):
            changed = list(rows)
            changed[depth] = tuple(rng.choice(scalars) for _ in zero)
            calls += [tuple(changed), tuple(rows)]
        shared = list(rng.choice(candidates))
        for i in walk[:j - 1]:
            shared[i] = rows[i]
        calls.append(tuple(shared))
        yield calls


@pytest.mark.parametrize("q, m, n", POINTS)
def test_shared_state_changes_no_answer(q, m, n):
    rng = random.Random(f"prefix/{q},{m},{n}")
    base, family = operator_powers(q, m, n, rng)
    candidates = [W.rows for W in enumerate_subspaces(base, m * n, m)]
    vecs = [tuple(v) for v in itertools.product(linalg.raw_scalars(base), repeat=m * n)]
    tuples = list(itertools.product(vecs, repeat=m)) if len(vecs) ** m <= 4096 else [
        tuple(rng.choice(vecs) for _ in range(m)) for _ in range(4096)
    ]
    seen = set()
    for powers in family:
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        seen |= check_order(base, powers, candidates)
        seen |= check_order(base, powers, shuffled)
        # every candidate twice in a row
        seen |= check_order(base, powers, [rows for rows in shuffled for _ in range(2)])
        # equal in value, separate objects: rebuilt tuples, and lists
        seen |= check_order(base, powers, [
            tuple(tuple(x for x in row) for row in rows) for rows in candidates
        ])
        seen |= check_order(base, powers, [[tuple(row) for row in rows] for rows in shuffled])
        for calls in dead_prefix_orders(base, candidates, rng):
            seen |= check_order(base, powers, calls)
        # the order of the direct ordered-basis scan, zero and repeated rows included
        seen |= check_order(base, powers, tuples)
    assert seen == {True, False}


def test_the_splitter_keeps_its_own_copy_of_the_rows():
    """A caller's list mutated after the walk read it is not the head
    the walk compares against."""
    inst = split_instance(3, 2, 2)
    alone = splitting._splitter(inst.base, inst.mats)
    W = next(W for W in enumerate_subspaces(inst.base, 4, 2) if not alone(W.rows))
    V = next(V for V in enumerate_subspaces(inst.base, 4, 2)
             if alone(V.rows) and V.rows[0] != W.rows[0])

    def calls():
        rows = list(W.rows)
        yield rows
        rows[:] = V.rows
        yield rows
        rows[:] = W.rows
        yield rows

    assert list(splitting._verdicts(inst.base, inst.mats, calls())) == [False, True, False]


@pytest.mark.parametrize("q, m, n", [(2, 2, 2), (2, 1, 3), (3, 2, 2), (4, 2, 2)])
def test_direct_bases_scan_agrees_with_the_product_route(q, m, n):
    rng = random.Random(f"prefix/bases/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    assert count_splitting_bases(inst, "direct") == count_splitting_bases(inst, "product")


def walked_rows(monkeypatch, scan):
    """scan(), the heads whose states the walk builds and the first rows
    it tests while scan runs."""
    steps = splitting._steps
    built, tested = [], []

    def counting_steps(ctx, powers, *one_head):
        head_state, last = steps(ctx, powers, *one_head)

        def counting_head_state(head):
            built.append(head)
            return head_state(head)

        def counting_last(state):
            test = last(state)
            return lambda row: tested.append(row) or test(row)

        return counting_head_state, counting_last

    with monkeypatch.context() as patch:
        patch.setattr(splitting, "_steps", counting_steps)
        result = scan()
    return result, built, tested


def live_heads(base, powers, m):
    """The heads a walk builds and the first rows it tests in a full
    scan, in scan order: one head, rows[1:], per run of candidates
    sharing it, and a candidate's first row when its head's rows have
    independent translates (the stacking oracle)."""
    candidates = [W.rows for W in enumerate_subspaces(base, m * len(powers), m)]
    heads = [head for head, _ in itertools.groupby(rows[1:] for rows in candidates)]
    live = {head for head in heads if splits_by_stacking(base, powers, head)}
    return heads, [rows[0] for rows in candidates if rows[1:] in live]


def from_scratch(base, powers, m):
    """The row count an elimination from scratch would insert in a full
    scan, reading each candidate in walk order (rows[1:], then rows[0])
    and stopping at its first dependent row."""
    total = 0
    for W in enumerate_subspaces(base, m * len(powers), m):
        order = W.rows[1:] + W.rows[:1]
        total += next((j for j in range(1, m + 1)
                       if not splits_by_stacking(base, powers, order[:j])), m)
    return total


def test_a_full_scan_inserts_each_live_prefix_once(monkeypatch):
    """SSC (2,2,3): the walk builds one state per head, a run of
    candidates sharing their second row, and tests each candidate's
    first row once, not every row of every candidate."""
    inst = split_instance(2, 2, 3)
    report, built, tested = walked_rows(monkeypatch, lambda: count_splitting(inst))
    assert report.brute == ssc_formula(2, 2, 3)
    heads, under_live = live_heads(inst.base, inst.mats, 2)
    # every nonzero w gives independent w, w alpha, w alpha^2, so every head
    # is live: one build per (pivot profile, second row), which is sum
    # over p1 of p1 profiles times 2**(5 - p1) rows, less one because the
    # last two profiles (3, 5) and (4, 5) share the head e_5 back to back;
    # and one test per candidate, [6, 2]_2 = 651
    runs = sum(p1 * 2 ** (5 - p1) for p1 in range(1, 6)) - 1
    assert built == heads and len(heads) == runs == 56
    assert tested == under_live and len(tested) == 651
    assert from_scratch(inst.base, inst.mats, 2) == 2 * 651


def test_a_dead_prefix_is_rejected_without_inserting(monkeypatch):
    """T two nilpotent Jordan blocks e_0 -> e_1 -> e_2 -> 0 and
    e_3 -> e_4 -> e_5 -> 0 of F_2^6: a second row w with w_0 = w_3 = 0
    has w T^2 = 0 and is a dead head, and every candidate under it is
    rejected without a test of its first row."""
    F2 = build_field(2)
    T = Matrix(F2, [[1 if j == i + 1 and i % 3 < 2 else 0 for j in range(6)]
                    for i in range(6)])
    powers = splitting._powers(T, 2, 3)
    count, built, tested = walked_rows(monkeypatch, lambda: count_T_splitting(T, 2, 3))
    candidates = [W.rows for W in enumerate_subspaces(F2, 6, 2)]
    assert count == sum(splitting._splitter(F2, powers)(rows) for rows in candidates)
    heads, under_live = live_heads(F2, powers, 2)
    dead_heads = {head for head in heads if not splits_by_stacking(F2, powers, head)}
    assert len(dead_heads) > 1
    assert count > 0
    assert built == heads
    assert tested == under_live and len(tested) < len(candidates)
    assert sum(map(len, built)) + len(tested) < from_scratch(F2, powers, 2)


def test_the_direct_route_varies_the_tested_row_fastest(monkeypatch):
    """count_splitting_bases(..., "direct") at (2,2,2) walks the 2**4
    pairs (v_2, 1) of the tower F_16 with v_2 varying fastest, so it
    builds the one head (1,) once and tests all 16 rows v_2 under it,
    zero and 1 included, each once; the count is theirs times 15."""
    inst = split_instance(2, 2, 2)
    count, built, tested = walked_rows(
        monkeypatch, lambda: count_splitting_bases(inst, "direct"))
    assert count == count_splitting_bases(inst, "product")
    assert built == [(inst.tower.one,)]
    assert tested == [e.raw for e in inst.tower.elements()]
    assert count % (2**4 - 1) == 0


@pytest.mark.parametrize("q, nilpotent", [(2, False), (3, False), (2, True)])
def test_a_two_row_head_is_built_once_per_run(monkeypatch, q, nilpotent):
    """At m = 3 a head is two rows, and consecutive heads often share
    their first: SSC (2,3,2) and (3,3,2) under a random generator, and
    (2,3,2) under a random nilpotent T, which kills more heads.  The walk
    builds one state per run of equal rows[1:] in scan order, tests each
    candidate's first row under a live head once, in scan order, and
    none under a dead head."""
    m, n = 3, 2
    rng = random.Random(f"prefix/heads/{q},{nilpotent}")
    base = random_base(q, rng)
    inst = random_instance(base, m, n, rng)
    T = random_nilpotent(base, m * n, rng) if nilpotent else inst.mats[1]
    powers = splitting._powers(T, m, n)
    count, built, tested = walked_rows(monkeypatch, lambda: count_T_splitting(T, m, n))
    heads, under_live = live_heads(base, powers, m)
    assert built == heads
    assert any(a[0] == b[0] for a, b in zip(heads, heads[1:]))
    assert tested == under_live
    dead = [head for head in heads if not splits_by_stacking(base, powers, head)]
    total = linalg.gaussian_binomial(m * n, m, q)
    assert dead and len(tested) < total
    candidates = [W.rows for W in enumerate_subspaces(base, m * n, m)]
    assert count == sum(splits_by_stacking(base, powers, rows) for rows in candidates)
    if not nilpotent:
        assert count == ssc_formula(q, m, n)


# (q, m, n) with m >= 2, so every scan has heads to walk
CONTRACT_POINTS = [(2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 2, 2), (9, 2, 2)]


@pytest.mark.parametrize("q, m, n", CONTRACT_POINTS)
def test_every_scan_draws_and_tests_every_candidate(monkeypatch, q, m, n):
    """Each full scan pulls all [mn, m]_q candidates from
    linalg.enumerate_subspaces and the walk gives each one verdict, also
    for the zero endomorphism, under which every head is dead, and a
    random nilpotent one.  The product route pulls the [mn - 1, m - 1]_q
    subspaces through 1 and walks each once, for the same count."""
    rng = random.Random(f"contract/{q},{m},{n}")
    base = random_base(q, rng)
    inst = random_instance(base, m, n, rng)
    size = m * n
    total = linalg.gaussian_binomial(size, m, q)
    enumerate_all, walk = linalg.enumerate_subspaces, splitting._verdicts
    drawn, walked = [], []

    def counting_enumerate(ctx, ambient, dim):
        for W in enumerate_all(ctx, ambient, dim):
            drawn.append(W)
            yield W

    def counting_walk(ctx, powers, candidates, *one_head):
        for verdict in walk(ctx, powers, candidates, *one_head):
            walked.append(verdict)
            yield verdict

    monkeypatch.setattr(linalg, "enumerate_subspaces", counting_enumerate)
    monkeypatch.setattr(splitting, "_verdicts", counting_walk)
    zero, nilpotent = Matrix.zero(base, size, size), random_nilpotent(base, size, rng)
    scans = [
        lambda: count_splitting(inst),
        lambda: pointed_consistency(inst),
        lambda: count_pointed(inst, inst.tower.alpha),
        lambda: count_T_splitting(zero, m, n),
        lambda: count_T_splitting(nilpotent, m, n),
    ]
    for scan in scans:
        del drawn[:], walked[:]
        _, _, tested = walked_rows(monkeypatch, scan)
        assert len(drawn) == len(walked) == total, scan
        assert len(tested) <= total
    del drawn[:], walked[:]
    result, _, tested = walked_rows(monkeypatch, lambda: count_splitting_bases(inst, "product"))
    through_one = linalg.gaussian_binomial(size - 1, m - 1, q)
    assert len(drawn) == len(walked) == through_one
    assert len(tested) <= through_one
    assert result == count_splitting(inst).brute * linalg.gl_order(m, q)
    # under T = 0 every translate past the first is zero: no head lives
    _, _, tested = walked_rows(monkeypatch, lambda: count_T_splitting(zero, m, n))
    assert tested == []

"""The splitting kernel keeps the echelon state of its previous call's
row prefixes.  That shared state changes no answer: in every call order
the stateful splitter agrees with a fresh splitter built for each call,
over F_2 and over q in {3, 4, 5, 9} with random moduli, generators and
endomorphisms.  And the sharing happens: a full scan inserts each live
row prefix once."""

import itertools
import random

import pytest

from splitlab import (
    Matrix,
    build_field,
    count_splitting,
    count_splitting_bases,
    count_T_splitting,
    enumerate_subspaces,
    split_instance,
    ssc_formula,
)
from splitlab import linalg, splitting
from sampling import random_base, random_instance, random_matrix, random_nilpotent, random_singular

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
    """One stateful splitter answers every call of the order as a fresh
    splitter does; returns the set of answers."""
    stateful = splitting._splitter(base, powers)
    answers = set()
    for rows in calls:
        expect = splitting._splitter(base, powers)(rows)
        assert stateful(rows) == expect, (powers, rows)
        answers.add(expect)
    return answers


def dead_prefix_orders(base, candidates, rng):
    """For each depth j, a candidate whose first j rows are dead (row j
    - 1 is zero or repeats row 0), then that candidate with its row at
    each depth replaced in turn."""
    zero = (base.zero,) * len(candidates[0][0])
    m = len(candidates[0])
    scalars = linalg.raw_scalars(base)
    for j in range(1, m + 1):
        rows = list(rng.choice(candidates))
        rows[j - 1] = zero if j == 1 or rng.randrange(2) else rows[0]
        calls = [tuple(rows)]
        for depth in range(m):
            changed = list(rows)
            changed[depth] = tuple(rng.choice(scalars) for _ in zero)
            calls += [tuple(changed), tuple(rows)]
        calls.append(tuple(rows[:j - 1]) + tuple(rng.choice(candidates)[j - 1:]))
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
    """A caller's list mutated after a call is not the prefix the
    splitter compares against."""
    inst = split_instance(3, 2, 2)
    stateful = splitting._splitter(inst.base, inst.mats)
    W = next(W for W in enumerate_subspaces(inst.base, 4, 2)
             if not splitting._splitter(inst.base, inst.mats)(W.rows))
    V = next(V for V in enumerate_subspaces(inst.base, 4, 2)
             if splitting._splitter(inst.base, inst.mats)(V.rows))
    rows = list(W.rows)
    assert not stateful(rows)
    rows[:] = V.rows
    assert stateful(rows)
    rows[:] = W.rows
    assert not stateful(rows)


@pytest.mark.parametrize("q, m, n", [(2, 2, 2), (2, 1, 3), (3, 2, 2), (4, 2, 2)])
def test_direct_bases_scan_agrees_with_the_product_route(q, m, n):
    rng = random.Random(f"prefix/bases/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    assert count_splitting_bases(inst, "direct") == count_splitting_bases(inst, "product")


def inserted_rows(monkeypatch, scan):
    """scan() and the rows the kernel inserts while it runs."""
    driver = splitting._prefix_splitter
    inserted = []

    def counting_driver(insert, empty):
        def counting_insert(state, row):
            inserted.append(row)
            return insert(state, row)

        return driver(counting_insert, empty)

    with monkeypatch.context() as patch:
        patch.setattr(splitting, "_prefix_splitter", counting_driver)
        result = scan()
    return result, inserted


def live_prefixes(base, powers, m):
    """(pivot profile, rows[:j]) for every candidate whose rows[:j - 1]
    split, and the row count an elimination from scratch would insert."""
    prefixes = set()
    from_scratch = 0
    for W in enumerate_subspaces(base, m * len(powers), m):
        for j in range(1, m + 1):
            prefixes.add((W.pivots, W.rows[:j]))
            from_scratch += 1
            if not splitting._splitter(base, powers)(W.rows[:j]):
                break
    return prefixes, from_scratch


def test_a_full_scan_inserts_each_live_prefix_once(monkeypatch):
    """SSC (2,2,3): the kernel inserts one row per distinct row prefix
    of a pivot profile whose own prefix is live, not every row of every
    candidate."""
    inst = split_instance(2, 2, 3)
    report, inserted = inserted_rows(monkeypatch, lambda: count_splitting(inst))
    assert report.brute == ssc_formula(2, 2, 3)
    prefixes, from_scratch = live_prefixes(inst.base, inst.mats, 2)
    # every nonzero w gives independent w, w alpha, w alpha^2, so every first
    # row is live: one insertion per (pivot profile, first row), which is
    # sum over p0 of (5 - p0) profiles times 2**(4 - p0) rows = 129, and one
    # per candidate, [6, 2]_2 = 651
    assert len(inserted) == len(prefixes) == 129 + 651
    assert from_scratch == 2 * 651


def test_a_dead_prefix_is_rejected_without_inserting(monkeypatch):
    """T two nilpotent Jordan blocks e_0 -> e_1 -> e_2 -> 0 and
    e_3 -> e_4 -> e_5 -> 0 of F_2^6: a first row w with w_0 = w_3 = 0
    has w T^2 = 0 and is dead, and every candidate that shares it is
    rejected without inserting its second row."""
    F2 = build_field(2)
    T = Matrix(F2, [[1 if j == i + 1 and i % 3 < 2 else 0 for j in range(6)]
                    for i in range(6)])
    powers = splitting._powers(T, 2, 3)
    count, inserted = inserted_rows(monkeypatch, lambda: count_T_splitting(T, 2, 3))
    assert count == sum(splitting._splitter(F2, powers)(W.rows)
                        for W in enumerate_subspaces(F2, 6, 2))
    prefixes, from_scratch = live_prefixes(F2, powers, 2)
    dead_first = {rows for _, rows in prefixes if len(rows) == 1
                  and not splitting._splitter(F2, powers)(rows)}
    assert len(dead_first) > 1
    assert count > 0
    assert len(inserted) == len(prefixes) < from_scratch

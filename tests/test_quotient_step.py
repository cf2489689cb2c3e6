"""The generic splitting walk tests a call's last row in the quotient of
its head: once the rows before it have independent translates spanning
U, the last row w splits exactly when its n translates are independent
modulo U, which under a scan's head, of dimension width - n, is an
n x n rank test.  Checked against elimination from scratch
(rows_are_independent on every stacked translate) over q in
{3, 4, 5, 7, 9} with random moduli, generators and endomorphisms, for
full candidates, partial calls, zero and repeated rows and calls with
one row too many, each walked alone and all in one walk.  And the
quotient is shared: a full scan builds one per live head and never
stacks a last row."""

import itertools
import random

import pytest

from splitlab import count_splitting, enumerate_subspaces, split_instance, ssc_formula
from splitlab import linalg, splitting
from sampling import random_base, random_instance, splits_by_stacking
from test_prefix_splitter import operator_powers, walked_rows

# (q, m, n): m = 1 takes the quotient of the empty prefix, n = 1 a
# one-dimensional one
POINTS = [
    (3, 2, 2), (3, 1, 3), (3, 3, 1), (3, 2, 3), (3, 3, 2),
    (4, 2, 2), (4, 1, 2),
    (5, 2, 2), (7, 2, 2),
    (9, 2, 2), (9, 1, 2),
]
SAMPLE = 120


def calls_around(rows, zero, extra):
    """A candidate, its partial calls, its last row zero or repeating the
    first, and the candidate with one row too many."""
    m = len(rows)
    yield rows
    for j in range(m):
        yield rows[:j]
    yield rows[:-1] + (zero,)
    yield rows[:-1] + (rows[0],)
    yield rows + (extra,)
    yield rows + (zero,)
    yield rows


@pytest.mark.parametrize("q, m, n", POINTS)
def test_the_quotient_step_agrees_with_elimination_from_scratch(q, m, n):
    rng = random.Random(f"quotient/{q},{m},{n}")
    base, family = operator_powers(q, m, n, rng)
    scalars = linalg.raw_scalars(base)
    width = m * n
    zero = (base.zero,) * width
    candidates = [W.rows for W in enumerate_subspaces(base, width, m)]
    if len(candidates) > SAMPLE:  # a sample, kept in scan order
        candidates = [candidates[i] for i in sorted(rng.sample(range(len(candidates)), SAMPLE))]
    seen = set()
    for powers in family:
        random_tuples = [
            tuple(tuple(rng.choice(scalars) for _ in range(width)) for _ in range(m))
            for _ in range(SAMPLE // 3)
        ]
        calls = []
        for rows in candidates + random_tuples:
            extra = tuple(rng.choice(scalars) for _ in range(width))
            calls += calls_around(rows, zero, extra)
        expected = [splits_by_stacking(base, powers, call) for call in calls]
        for call, expect in zip(calls, expected):
            assert splitting._splitter(base, powers)(call) == expect, (powers, call)
            seen.add((len(call), expect))
        # one walk over every call but the empty ones, which have no last row
        walked = [(call, expect) for call, expect in zip(calls, expected) if call]
        verdicts = splitting._verdicts(base, powers, [call for call, _ in walked])
        for (call, expect), verdict in zip(walked, verdicts, strict=True):
            assert verdict == expect, (powers, call)
    # every call length answered both ways where it can; m + 1 rows never split
    assert {(m, True), (m, False), (m + 1, False)} <= seen
    assert (m + 1, True) not in seen


def test_the_full_state_takes_no_further_row():
    """Under a splitting candidate as head the state is full: one more
    row of any value, zero included, is dependent, and the walk answers
    the candidate itself again right after."""
    inst = split_instance(5, 2, 2)
    splits = splitting._splitter(inst.base, inst.mats)
    W = next(W for W in enumerate_subspaces(inst.base, 4, 2) if splits(W.rows))
    calls = []
    for extra in itertools.product(range(5), repeat=4):
        assert not splits(W.rows + (extra,))
        calls += [W.rows + (extra,), W.rows]
    assert list(splitting._verdicts(inst.base, inst.mats, calls)) == [False, True] * 5**4


@pytest.mark.parametrize("q, m, n", [(3, 2, 3), (8, 2, 2), (9, 2, 2)])
def test_seeded_instances_count_the_closed_form(q, m, n):
    rng = random.Random(f"quotient/count/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    assert count_splitting(inst).brute == ssc_formula(q, m, n)


def test_a_full_generic_scan_builds_one_quotient_per_live_head(monkeypatch):
    """SSC (3,2,2): the first row of each candidate is its head.  Every
    nonzero w has independent w, w alpha, so every head is live: the scan
    stacks one 4-wide insertion per distinct (pivot profile, first row)
    into the empty basis, builds one quotient per head, and tests every
    candidate's second row as one 2 x 2 elimination, never stacking it."""
    inst = split_instance(3, 2, 2)
    # in scan order; each head's candidates come one after another
    heads = list(dict.fromkeys((W.pivots, W.rows[0]) for W in enumerate_subspaces(inst.base, 4, 2)))
    candidates = sum(1 for _ in enumerate_subspaces(inst.base, 4, 2))
    # pivot profiles (p0, p1) of F_3^4: the first row has 2 - p0 free
    # entries and 3 - p0 profiles start at p0, so sum 3**(2 - p0) * (3 - p0)
    # = 27 + 6 + 1 heads; [4, 2]_3 = 80 * 78 / (8 * 6) candidates
    assert (len(heads), candidates) == (34, 130)

    eliminations = []  # (rows already in the basis, width of the rows inserted)
    builds = []  # the first row of each head whose quotient is built
    echelon_insert, quotient_columns = linalg._echelon_insert, splitting._quotient_columns

    def counting_insert(ctx, echelon, rows):
        widths = []
        result = echelon_insert(ctx, echelon, (widths.append(len(r)) or r for r in rows))
        eliminations.append((len(echelon), widths[0]))
        return result

    def counting_columns(ctx, powers, echelon):
        builds.append(tuple(echelon[0][1]))
        return quotient_columns(ctx, powers, echelon)

    monkeypatch.setattr(linalg, "_echelon_insert", counting_insert)
    monkeypatch.setattr(splitting, "_quotient_columns", counting_columns)
    report, inserted, tested = walked_rows(monkeypatch, lambda: count_splitting(inst))
    assert report.brute == ssc_formula(3, 2, 2) == 90
    assert (len(inserted), len(tested)) == (34, 130)
    assert eliminations.count((0, 4)) == 34  # each head's translates, into the empty basis
    assert eliminations.count((0, 2)) == 130  # each last row, in the quotient
    assert len(eliminations) == 34 + 130  # no 4-wide row is inserted after the head
    assert builds == [row for _, row in heads]

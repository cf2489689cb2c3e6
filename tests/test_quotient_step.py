"""The generic splitting walk tests a call's first row in the quotient of
its head: once the rows after it have independent translates spanning
U, the first row w splits exactly when its n translates are independent
modulo U, which under a scan's head, of dimension width - n, is an
n x n rank test.  Over fields whose byte-lane sums cannot carry the
quotient matrix is one packed sum and the test one memoized normal of
its first n - 1 rows; over wider fields it is n * d dots and one
elimination.  Checked against elimination from scratch
(rows_are_independent on every stacked translate) over q in
{3, 4, 5, 7, 8, 9} and q = 131, one field on each side of the lane
check, with random moduli, generators and endomorphisms, for full
candidates, partial calls, zero and repeated rows and calls with one
row too many, each walked alone and all in one walk.  And the quotient
is shared: a full scan builds one per live head, never stacks a first
row and eliminates each distinct first n - 1 rows of a quotient matrix
once."""

import itertools
import random

import pytest

from splitlab import (
    Matrix,
    build_extension,
    build_field,
    count_splitting,
    enumerate_subspaces,
    split_instance,
    ssc_formula,
)
from splitlab import linalg, splitting
from sampling import random_base, random_instance, splits_by_stacking
from test_prefix_splitter import operator_powers, walked_rows

# (q, m, n): m = 1 takes the quotient of the empty prefix, n = 1 a
# one-dimensional one; (8, 2, 2) packs e = 3 digits modulo 2 per entry,
# and at (131, 1, 2) lane sums could reach width * (p - 1) = 260 > 255,
# so it keeps the dots and the elimination
POINTS = [
    (3, 2, 2), (3, 1, 3), (3, 3, 1), (3, 2, 3), (3, 3, 2),
    (4, 2, 2), (4, 1, 2),
    (5, 2, 2), (7, 2, 2),
    (8, 2, 2),
    (9, 2, 2), (9, 1, 2),
    (131, 1, 2),
]
SAMPLE = 120


def calls_around(rows, zero, extra):
    """A candidate, its partial calls, its last row zero or repeating the
    first, its first row, the one the walk tests, zero or repeating the
    last, and the candidate with one row too many."""
    m = len(rows)
    yield rows
    for j in range(m):
        yield rows[:j]
    yield rows[:-1] + (zero,)
    yield rows[:-1] + (rows[0],)
    yield (zero,) + rows[1:]
    yield rows[-1:] + rows[1:]
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
    """SSC (3,2,2): the second row of each candidate is its head, and
    the first row, varying fastest, is tested under it.  Every nonzero w
    has independent w, w alpha, so every head is live: the scan stacks
    one 4-wide insertion per head into the empty basis, builds one
    quotient per head, and tests every candidate's first row in that
    quotient, never stacking it.  The test eliminates only the first row
    of each 2 x 2 quotient matrix, once per distinct value over the
    whole scan: 3**2 of them."""
    inst = split_instance(3, 2, 2)
    # in scan order, a head per run of candidates sharing their second row
    heads = [head for head, _ in itertools.groupby(
        W.rows[1] for W in enumerate_subspaces(inst.base, 4, 2))]
    candidates = sum(1 for _ in enumerate_subspaces(inst.base, 4, 2))
    # pivot profiles (p0, p1) of F_3^4: the second row has 3 - p1 free
    # entries and p1 profiles end at p1, so sum p1 * 3**(3 - p1) = 9 + 6 + 3
    # (pivot profile, second row) pairs; the last two profiles (1, 3) and
    # (2, 3) share the head e_3 back to back, so one run fewer.
    # [4, 2]_3 = 80 * 78 / (8 * 6) candidates
    runs = sum(p1 * 3 ** (3 - p1) for p1 in range(1, 4)) - 1
    assert (len(heads), candidates) == (runs, 130) == (17, 130)

    eliminations = []  # (rows already in the basis, width of the rows inserted)
    prefixes = []  # the rows of each 2-wide elimination
    builds = []  # the row of each head whose quotient is built
    echelon_insert, quotient_columns = linalg._echelon_insert, splitting._quotient_columns

    def counting_insert(ctx, echelon, rows):
        rows = [tuple(r) for r in rows]
        eliminations.append((len(echelon), len(rows[0])))
        if len(rows[0]) == 2:
            prefixes.append(rows)
        return echelon_insert(ctx, echelon, rows)

    def counting_columns(ctx, powers, echelon):
        builds.append(tuple(echelon[0][1]))
        return quotient_columns(ctx, powers, echelon)

    monkeypatch.setattr(linalg, "_echelon_insert", counting_insert)
    monkeypatch.setattr(splitting, "_quotient_columns", counting_columns)
    report, inserted, tested = walked_rows(monkeypatch, lambda: count_splitting(inst))
    assert report.brute == ssc_formula(3, 2, 2) == 90
    assert (len(inserted), len(tested)) == (runs, 130)
    assert eliminations.count((0, 4)) == runs  # each head's translates, into the empty basis
    # the first row of each tested row's quotient matrix, each value once:
    # the memo's bound q**((n - 1) * d) = 3**2, reached
    assert eliminations.count((0, 2)) == 9
    assert sorted(prefixes) == [[row] for row in itertools.product(range(3), repeat=2)]
    assert len(eliminations) == runs + 9  # no 4-wide row is inserted after the head
    assert builds == heads


@pytest.mark.parametrize("m, n, candidate", [(1, 3, ((1, 2, 0),)), (2, 2, ((1, 0, 0, 0), (0, 1, 2, 0)))])
def test_only_a_nonempty_head_keeps_its_prefixes(monkeypatch, m, n, candidate):
    """The memo pays only where the first n - 1 rows of quotient matrices
    repeat.  Under the empty head (m = 1) they hold the row itself, so no
    scan meets them twice and the walk keeps none: a candidate walked
    twice is eliminated twice.  Under a live head it is eliminated once."""
    inst = split_instance(3, m, n)
    expected = splits_by_stacking(inst.base, inst.mats, candidate)
    widths = []  # the width of the rows of each elimination
    echelon_insert = linalg._echelon_insert

    def counting_insert(ctx, echelon, rows):
        rows = list(rows)
        widths.append(len(rows[0]))
        return echelon_insert(ctx, echelon, rows)

    monkeypatch.setattr(linalg, "_echelon_insert", counting_insert)
    assert list(splitting._verdicts(inst.base, inst.mats, [candidate] * 2)) == [expected] * 2
    assert widths.count(n) == (2 if m == 1 else 1)

def scan_eliminations(monkeypatch, ctx, powers, m):
    """Walk every candidate of a full scan, check the count against the
    stacking oracle and return (candidates, whole quotient matrices
    eliminated)."""
    candidates = [W.rows for W in enumerate_subspaces(ctx, m * len(powers), m)]
    expected = sum(splits_by_stacking(ctx, powers, rows) for rows in candidates)
    calls = []
    independent = linalg.rows_are_independent
    monkeypatch.setattr(linalg, "rows_are_independent",
                        lambda ctx, rows: calls.append(rows) or independent(ctx, rows))
    assert sum(splitting._verdicts(ctx, powers, candidates)) == expected
    return len(candidates), len(calls)


@pytest.mark.parametrize("q, m, n", [
    (3, 2, 2), (8, 2, 2), (9, 1, 2), (131, 1, 2), (131, 2, 1), (512, 1, 2),
])
def test_the_lane_check_picks_the_last_row_test(monkeypatch, q, m, n):
    """Where lane sums cannot carry, whatever the field's size (GF(512)
    included), a scan eliminates no quotient matrix whole under a
    nonempty head, and under the empty head (m = 1), whose first n - 1
    rows never repeat, one per candidate.  At F_131 and width 2 lane sums
    could carry: there the scan eliminates one matrix per candidate under
    a nonempty head too (m = 2, n = 1), every head being live."""
    rng = random.Random(f"quotient/lanes/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    candidates, eliminated = scan_eliminations(monkeypatch, inst.base, inst.mats, m)
    assert eliminated == (candidates if q == 131 or m == 1 else 0)


def test_a_matrix_over_a_tower_keeps_the_elimination(monkeypatch):
    """Tower scalars are tuples, not codes, so a scan over F_4 as a tower
    of F_2 eliminates each candidate's quotient matrix."""
    rng = random.Random("quotient/lanes/tower")
    tower = build_extension(build_field(2), 2)
    T = Matrix(tower, [[tower.element((rng.randrange(2), rng.randrange(2))).raw
                        for _ in range(2)] for _ in range(2)])
    candidates, eliminated = scan_eliminations(monkeypatch, tower, splitting._powers(T, 1, 2), 1)
    assert eliminated == candidates == 5

"""The generic splitting walk tests a call's first row in the quotient of
its head: once the rows after it have independent translates spanning
U, the first row w splits exactly when its n translates are independent
modulo U, which under a scan's head, of dimension width - n, is an
n x n rank test.  Over fields whose byte-lane sums cannot carry the
quotient matrix is one packed sum, and under a nonempty head the test
is one lookup in a span memo: the span of the matrix's first n - 1
rows, a set of digit-byte vectors or None, and whether the last row's
bytes lie outside it.  Over wider fields it is n * d dots and one
elimination.  Checked against elimination from scratch
(rows_are_independent on every stacked translate) over q in
{3, 4, 5, 7, 8, 9} and q = 131, one field on each side of the lane
check, with random moduli, generators and endomorphisms, for full
candidates, partial calls, zero and repeated rows and calls with one
row too many, each walked alone and all in one walk; and the span
memo alone against rows_are_independent on random matrices.  And the
quotient is shared: a full scan builds one per live head, never stacks
a first row, builds the span of each distinct first n - 1 rows of a
quotient matrix once and each span extension once."""

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
from splitlab import integers, linalg, splitting
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


def counting_spans(monkeypatch) -> list:
    """The extension table of every span build (splitting._span, one
    per miss of a span memo) from now on."""
    tables, span = [], splitting._span
    monkeypatch.setattr(splitting, "_span", lambda extensions, zero, rows:
                        tables.append(extensions) or span(extensions, zero, rows))
    return tables


def test_a_full_generic_scan_builds_one_quotient_per_live_head(monkeypatch):
    """SSC (3,2,2): the second row of each candidate is its head, and
    the first row, varying fastest, is tested under it.  Every nonzero w
    has independent w, w alpha, so every head is live: the scan stacks
    one 4-wide insertion per head into the empty basis, builds one
    quotient per head, and tests every candidate's first row in that
    quotient, never stacking it.  The test looks up the span of the
    first row of each 2 x 2 quotient matrix, built once per distinct
    value over the whole scan: 3**2 builds, each one extension of the
    zero span.  The zero row gives None and the 8 others the [2, 1]_3 = 4
    lines, one shared copy each; nothing is eliminated 2 wide."""
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
    builds = []  # the row of each head whose quotient is built
    echelon_insert, quotient_columns = linalg._echelon_insert, splitting._quotient_columns

    def counting_insert(ctx, echelon, rows):
        rows = [tuple(r) for r in rows]
        eliminations.append((len(echelon), len(rows[0])))
        return echelon_insert(ctx, echelon, rows)

    def counting_columns(ctx, powers, echelon):
        builds.append(tuple(echelon[0][1]))
        return quotient_columns(ctx, powers, echelon)

    monkeypatch.setattr(linalg, "_echelon_insert", counting_insert)
    monkeypatch.setattr(splitting, "_quotient_columns", counting_columns)
    tables = counting_spans(monkeypatch)
    report, built, tested = walked_rows(monkeypatch, lambda: count_splitting(inst))
    assert report.brute == ssc_formula(3, 2, 2) == 90
    assert (len(built), len(tested)) == (runs, 130)
    # each head's translates, into the empty basis, and nothing else
    assert eliminations == [(0, 4)] * runs
    # one span build per value of a quotient matrix's first row: the
    # memo's bound q**((n - 1) * d) = 3**2, reached, on one table
    assert len(tables) == 9 and all(table is tables[0] for table in tables)
    extensions = tables[0]
    zero = frozenset([bytes(2)])
    assert sorted(extensions) == [(zero, bytes(row)) for row in itertools.product(range(3), repeat=2)]
    lines = [span for span in extensions.values() if span is not None]
    assert extensions[zero, bytes(2)] is None and len(lines) == 8
    assert len(set(lines)) == len(set(map(id, lines))) == linalg.gaussian_binomial(2, 1, 3) == 4
    for (_, row), line in extensions.items():
        if line is not None:
            assert line == {bytes(c * x % 3 for x in row) for c in range(3)}
    assert builds == heads


@pytest.mark.parametrize("m, n, candidate", [(1, 3, ((1, 2, 0),)), (2, 2, ((1, 0, 0, 0), (0, 1, 2, 0)))])
def test_only_a_nonempty_head_keeps_its_prefixes(monkeypatch, m, n, candidate):
    """The memo pays only where the first n - 1 rows of quotient matrices
    repeat.  Under the empty head (m = 1) they hold the row itself, so no
    scan meets them twice and the walk keeps none: a candidate walked
    twice is eliminated twice, n wide, and builds no span.  Under a live
    head its span is built once and nothing is eliminated n wide."""
    inst = split_instance(3, m, n)
    expected = splits_by_stacking(inst.base, inst.mats, candidate)
    widths = []  # the width of the rows of each elimination
    echelon_insert = linalg._echelon_insert

    def counting_insert(ctx, echelon, rows):
        rows = list(rows)
        widths.extend(map(len, rows[:1]))
        return echelon_insert(ctx, echelon, rows)

    monkeypatch.setattr(linalg, "_echelon_insert", counting_insert)
    tables = counting_spans(monkeypatch)
    assert list(splitting._verdicts(inst.base, inst.mats, [candidate] * 2)) == [expected] * 2
    assert (widths.count(n), len(tables)) == ((2, 0) if m == 1 else (0, 1))


def digit_bytes(ctx, rows) -> bytes:
    """The rows of a matrix of codes as _lane_last's digit bytes: e
    base-p digits per entry, lowest first, row after row."""
    return bytes(digit for row in rows for c in row
                 for digit in integers.to_digits(c, ctx.p, ctx.e))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_the_span_memo_agrees_with_elimination_on_random_matrices(monkeypatch, q):
    """Random n x d matrices over F_q with a random modulus, some with a
    zero row or a row repeating another, n = 1 and d = 0 included: the
    memo's verdict, the span of the first n - 1 rows not None and the
    last row not in it, is rows_are_independent's.  Each distinct span
    is one shared copy, at most sum_k [d, k]_q of them and q^d
    extensions of each per d."""
    rng = random.Random(f"quotient/spans/{q}")
    ctx = random_base(q, rng)
    tables = counting_spans(monkeypatch)
    seen = set()
    for n in (1, 2, 3):
        memos, first = splitting._span_memos(ctx, n), len(tables)
        for d in range(4):
            for _ in range(SAMPLE // 2):
                rows = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(n)]
                if rng.random() < 0.3:
                    rows[rng.randrange(n)] = rng.choice([(0,) * d, rows[rng.randrange(n)]])
                mat, cut = digit_bytes(ctx, rows), (n - 1) * d * ctx.e
                span = memos[d][mat[:cut]]
                expect = linalg.rows_are_independent(ctx, rows)
                assert (span is not None and mat[cut:] not in span) == expect, rows
                seen.add((n, d, expect))
        extensions = tables[first]
        assert all(table is extensions for table in tables[first:])
        for d in range(4):
            size = d * ctx.e
            keys = [key for key in extensions if len(key[1]) == size]
            spans = [span for span in map(extensions.get, keys) if span is not None]
            assert len(set(spans)) == len(set(map(id, spans)))
            bound = sum(linalg.gaussian_binomial(d, k, q) for k in range(d + 1))
            assert len(set(spans)) <= bound and len(keys) <= bound * q**d
            assert {len(span) for span in spans} <= {q**k for k in range(1, d + 1)}
    # n = 1 at d = 0 has one empty row, dependent; d >= n answers both ways
    assert (1, 0, False) in seen and (1, 0, True) not in seen
    assert {(n, d, v) for n in (1, 2, 3) for d in range(n, 4) for v in (True, False)} <= seen


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

"""Word-oriented linear recurrences: periods, primitivity, fibers."""

import itertools
import random
from collections import Counter

import pytest

from splitlab import (
    BadArgs,
    BlockRecurrence,
    ContextMismatch,
    IterationBoundExceeded,
    Matrix,
    NotIrreducible,
    NotMonic,
    PeriodReport,
    Poly,
    ScanBoundExceeded,
    ShapeMismatch,
    SplitInstance,
    bases_formula,
    block_companion,
    build_extension,
    build_field,
    census_singer,
    char_poly,
    count_splitting_bases,
    enumerate_recurrences,
    euler_phi,
    field_from_order,
    fiber_count,
    fiber_histogram,
    find_irreducibles,
    gaussian_binomial,
    gl_order,
    is_primitive_recurrence,
    nofiber_formula,
    period_preperiod,
    pvrc_formula,
    simulate,
    ssc_formula,
    step,
    vec_mat,
)
from splitlab import fields, integers, linalg, polys
from sampling import random_base, random_invertible, random_matrix

F2 = build_field(2)
F3 = build_field(3)


def scalar_rec(ctx, *codes):
    return BlockRecurrence(ctx, 1, tuple(Matrix(ctx, ((c,),)) for c in codes))


def all_states(ctx, m, n):
    q = ctx.size
    words = list(itertools.product(range(q), repeat=m))
    return [tuple(s) for s in itertools.product(words, repeat=n)]


FIB = scalar_rec(F2, 1, 1)  # s_{i+2} = s_i + s_{i+1}


def table_period(rec, init):
    """Oracle for period_preperiod: walk once, remembering the step at
    which each state was first seen; the first repeat closes the cycle."""
    seen = {}
    state = tuple(tuple(w) for w in init)
    while state not in seen:
        seen[state] = len(seen)
        state = step(rec, state)
    mu = seen[state]
    return mu, len(seen) - mu


def primitive_by_periods(rec):
    """Oracle for is_primitive_recurrence, from the definition: every
    nonzero state is purely periodic with period q**(mn) - 1."""
    full = rec.ctx.size ** (rec.m * rec.n) - 1
    zero = tuple((rec.ctx.zero,) * rec.m for _ in range(rec.n))
    return all(
        table_period(rec, state) == (0, full)
        for state in all_states(rec.ctx, rec.m, rec.n)
        if state != zero
    )


def test_simulate_golden_sequence():
    assert simulate(FIB, ((0,), (1,)), 6) == [(0,), (1,), (1,), (0,), (1,), (1,)]
    assert simulate(FIB, ((0,), (0,)), 4) == [(0,)] * 4


def test_step_advances_the_window():
    assert step(FIB, ((0,), (1,))) == ((1,), (1,))
    assert step(FIB, ((1,), (1,))) == ((1,), (0,))


def test_period_of_golden_sequence():
    rep = period_preperiod(FIB, ((0,), (1,)))
    assert (rep.preperiod, rep.period) == (0, 3)
    assert rep.periodic


def test_period_of_zero_state():
    rep = period_preperiod(FIB, ((0,), (0,)))
    assert (rep.preperiod, rep.period) == (0, 1)


def test_preperiod_of_collapsing_recurrence():
    rec = scalar_rec(F2, 0)  # s_{i+1} = 0
    rep = period_preperiod(rec, ((1,),))
    assert (rep.preperiod, rep.period) == (1, 1)
    assert not rep.periodic


def test_period_report_validation():
    with pytest.raises(BadArgs):
        PeriodReport(-1, 3)
    with pytest.raises(BadArgs):
        PeriodReport(0, 0)


def test_cycle_detection_paths_agree():
    """Brent's method must give what the table walk gives, on every state."""
    recs = [
        scalar_rec(F3, 0, 1),  # s_{i+2} = s_{i+1}, collapses to a constant
        FIB,
        scalar_rec(F2, 0),  # s_{i+1} = 0
        scalar_rec(F3, 2, 1),
        *enumerate_recurrences(F2, 2, 2),
    ]
    for rec in recs:
        for init in all_states(rec.ctx, rec.m, rec.n):
            brent = period_preperiod(rec, init)
            assert (brent.preperiod, brent.period) == table_period(rec, init), (rec, init)


def test_iteration_bound_is_enforced(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "2")
    with pytest.raises(IterationBoundExceeded):
        period_preperiod(FIB, ((0,), (1,)))


def test_recurrence_validation():
    with pytest.raises(BadArgs):
        BlockRecurrence(F2, 0, (Matrix(F2, ((1,),)),))
    with pytest.raises(BadArgs):
        BlockRecurrence(F2, 1, ())
    with pytest.raises(ShapeMismatch):
        BlockRecurrence(F2, 2, (Matrix(F2, ((1, 0),)),))
    with pytest.raises(ContextMismatch):
        BlockRecurrence(F2, 1, (Matrix(F3, ((1,),)),))
    with pytest.raises(ShapeMismatch):
        step(FIB, ((0,),))


def test_block_companion_layout():
    c0 = Matrix(F2, ((1, 0), (0, 1)))
    c1 = Matrix(F2, ((0, 1), (1, 0)))
    rec = BlockRecurrence(F2, 2, (c0, c1))
    assert str(block_companion(rec)) == "0,0,1,0;0,0,0,1;1,0,0,1;0,1,1,0"
    assert str(block_companion(FIB)) == "0,1;1,1"


def test_step_is_multiplication_by_block_companion():
    for ctx, m, n in ((F2, 1, 2), (F2, 2, 2), (F3, 1, 2)):
        for rec in enumerate_recurrences(ctx, m, n):
            T = block_companion(rec)
            for state in all_states(ctx, m, n):
                flat = tuple(c for word in state for c in word)
                after = step(rec, state)
                flat_after = tuple(c for word in after for c in word)
                assert vec_mat(flat, T) == flat_after, (rec, state)


def test_char_poly_of_block_companion_m1_is_the_recurrence():
    # for m = 1 the block companion is the classic companion matrix
    rec = scalar_rec(F2, 1, 1)
    assert char_poly(block_companion(rec)) == Poly(F2, (1, 1, 1))


def test_purely_periodic_iff_leading_block_invertible():
    for rec in enumerate_recurrences(F2, 2, 2):
        invertible = rec.C[0].det() != 0
        pure = all(
            period_preperiod(rec, state).periodic for state in all_states(F2, 2, 2)
        )
        assert pure == invertible, rec


def test_primitivity_routes_agree():
    count = 0
    for rec in enumerate_recurrences(F2, 2, 2):
        by_order = is_primitive_recurrence(rec)
        by_periods = primitive_by_periods(rec)
        assert by_order == by_periods, rec
        count += by_order
    assert count == 16


def primitive_by_matrix_powers(rec):
    """The order test before the one-vector test, kept as its oracle:
    C_0 invertible, T**N = I and T**(N/l) != I for every prime l | N,
    T the block companion and N = q**(mn) - 1."""
    ctx = rec.ctx
    mn = rec.m * rec.n
    N = ctx.size**mn - 1
    if rec.C[0].det() == ctx.zero:
        return False
    T = block_companion(rec)
    ident = Matrix.identity(ctx, mn)
    if T**N != ident:
        return False
    for ell in integers.factorize(N):
        if T ** (N // ell) == ident:
            return False
    return True


# every shape with q**(m*m*n) <= 4096; F_8 and F_9 also over a random
# other modulus (x**2 + x + 1 is the only modulus of F_4).  Over F_p the
# order test takes the byte-slot product when mn * (p - 1)**2 < 256:
# F_7 up to mn = 7, F_11 and F_13 on one side of the bound and the other,
# and F_17 never, its 1 x 1 square 16 * 16 = 256 at the bound itself.
ORDER_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 17)
    for m in (1, 2, 3)
    for n in range(1, 13)
    if q ** (m * m * n) <= 4096
]
ORDER_CASES = [(q, m, n, False) for q, m, n in ORDER_SHAPES] + [
    (q, m, n, True) for q, m, n in ORDER_SHAPES if q in (8, 9)
]


def order_field(q, m, n, random_modulus):
    if random_modulus:
        return random_base(q, random.Random(f"order/{q},{m},{n}"), other=True)
    return field_from_order(q)


@pytest.mark.parametrize("q, m, n, random_modulus", ORDER_CASES)
def test_order_on_one_vector_equals_matrix_powers(q, m, n, random_modulus):
    """Every recurrence of the shape: singular C_0, periodic but not
    primitive, and primitive, as many of each as the counts say."""
    ctx = order_field(q, m, n, random_modulus)
    kinds = Counter()
    for rec in enumerate_recurrences(ctx, m, n):
        verdict = is_primitive_recurrence(rec)
        assert verdict == primitive_by_matrix_powers(rec), rec
        kinds["singular" if rec.C[0].det() == ctx.zero else verdict] += 1
    periodic = gl_order(m, q) * q ** (m * m * (n - 1))
    assert kinds["singular"] == q ** (m * m * n) - periodic > 0
    assert kinds[True] == pvrc_formula(m, n, q)
    assert kinds[False] == periodic - kinds[True]
    assert kinds[False] > 0 or (q, m, n) == (2, 1, 1)


@pytest.mark.parametrize(
    "q, m, n, random_modulus", [c for c in ORDER_CASES if c[0] ** (c[1] * c[2]) <= 16]
)
def test_order_on_one_vector_equals_every_period(q, m, n, random_modulus):
    """Against the definition, on the shapes with at most 16 states."""
    ctx = order_field(q, m, n, random_modulus)
    for rec in enumerate_recurrences(ctx, m, n):
        assert is_primitive_recurrence(rec) == primitive_by_periods(rec), rec


@pytest.mark.parametrize("q, m, n, slots", [
    (3, 2, 3, True), (7, 1, 7, True), (13, 1, 1, True), (13, 1, 2, False), (17, 1, 1, False),
    (9, 2, 2, False),
])
def test_the_order_test_squares_in_byte_slots_below_the_bound(monkeypatch, q, m, n, slots):
    """The order test takes linalg._slot_product over F_p exactly when
    mn * (p - 1)**2 < 256, and never over GF(9), whose scalars are codes;
    either way it agrees with the matrix powers, on random recurrences
    with invertible C_0."""
    calls, product = [], linalg._slot_product
    monkeypatch.setattr(linalg, "_slot_product", lambda *args: calls.append(args) or product(*args))
    ctx, rng = field_from_order(q), random.Random(f"order/slots/{q},{m},{n}")
    for _ in range(3):
        C = [random_invertible(ctx, m, rng)] + [random_matrix(ctx, m, m, rng) for _ in range(n - 1)]
        rec = BlockRecurrence(ctx, m, C)
        assert is_primitive_recurrence(rec) == primitive_by_matrix_powers(rec), rec
    assert bool(calls) == slots


def test_primitive_recurrence_has_maximal_periods():
    c0 = Matrix(F2, ((0, 1), (1, 0)))
    c1 = Matrix(F2, ((0, 0), (0, 1)))
    rec = BlockRecurrence(F2, 2, (c0, c1))
    assert is_primitive_recurrence(rec)
    report = period_preperiod(rec, ((1, 0), (0, 0)))
    assert (report.preperiod, report.period) == (0, 15)


def test_singer_census_fixtures():
    assert census_singer(1, 2, 2) == 1
    assert census_singer(2, 1, 2) == 2
    assert census_singer(2, 2, 2) == 16
    for m, n, q in ((1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3)):
        assert census_singer(m, n, q) == pvrc_formula(m, n, q)


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (3, 2, 2)])
def test_singer_census_tests_each_characteristic_polynomial_once(monkeypatch, q, m, n):
    ctx = field_from_order(q)
    seen = {
        char_poly(block_companion(rec))
        for rec in enumerate_recurrences(ctx, m, n)
        if rec.C[0].det() != ctx.zero
    }
    tested = []
    is_primitive = polys.is_primitive

    def counting_is_primitive(f):
        tested.append(f)
        return is_primitive(f)

    monkeypatch.setattr(polys, "is_primitive", counting_is_primitive)
    assert census_singer(m, n, q) == pvrc_formula(m, n, q)
    assert 0 < len(tested) <= len(seen)
    assert len(set(tested)) == len(tested)


def test_singer_census_tests_each_leading_block_once(monkeypatch):
    """The scan repeats each C_0 over q**(m*m*(n-1)) tuples; its
    invertibility is tested once per C_0, q**(m*m) times in all."""
    det = Matrix.det
    tested = []

    def counting_det(mat):
        tested.append(mat.rows)
        return det(mat)

    monkeypatch.setattr(Matrix, "det", counting_det)
    assert census_singer(2, 3, 2) == pvrc_formula(2, 3, 2)
    assert len(tested) == len(set(tested)) == 2**4


def test_pvrc_formula_fixtures():
    assert pvrc_formula(2, 2, 2) == 16
    assert pvrc_formula(1, 2, 2) == 1
    assert pvrc_formula(2, 1, 2) == 2
    for m, n, q in ((1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3)):
        mn = m * n
        expected = euler_phi(q**mn - 1) // mn * nofiber_formula(m, n, q)
        assert pvrc_formula(m, n, q) == expected


def test_nofiber_formula_fixtures():
    assert nofiber_formula(2, 2, 2) == 8
    assert nofiber_formula(1, 2, 2) == 1
    assert nofiber_formula(2, 1, 2) == 2
    assert nofiber_formula(2, 1, 3) == 6


def test_enumerate_recurrences_counts_and_bound(monkeypatch):
    recs = list(enumerate_recurrences(F2, 1, 2))
    assert len(recs) == 4  # q ** (m*m*n)
    assert all(rec.m == 1 and rec.n == 2 for rec in recs)
    assert len(list(enumerate_recurrences(F2, 2, 2))) == 256
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "100")
    with pytest.raises(ScanBoundExceeded):
        enumerate_recurrences(F2, 2, 4)


def test_fiber_count_fixtures():
    quad = Poly(F2, (1, 1, 1))
    assert fiber_histogram(F2, 2, 1)[quad] == 2
    assert nofiber_formula(2, 1, 2) == 2
    assert fiber_count(quad, 2, 1) == 2
    assert fiber_histogram(F2, 1, 2)[quad] == 1
    assert nofiber_formula(2, 2, 2) == 8
    hist = fiber_histogram(F2, 2, 2)
    for f in find_irreducibles(F2, 4):
        assert hist[f] == 8, f
        assert fiber_count(f, 2, 2) == 8, f
    # the bridge takes the product route; the direct scan of every
    # ordered tuple on the tower of f, and the recurrence scan, agree
    for q, m, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1), (4, 1, 2), (4, 2, 1)):
        ctx = field_from_order(q)
        hist = fiber_histogram(ctx, m, n)
        units = q ** (m * n) - 1
        for f in find_irreducibles(ctx, m * n):
            inst = SplitInstance(build_extension(ctx, m * n, f), m, n)
            bridge = fiber_count(f, m, n)
            assert bridge * units == count_splitting_bases(inst, "direct"), (q, m, n, f)
            assert bridge == hist[f], (q, m, n, f)


def test_fiber_count_never_enumerates_tuples(monkeypatch):
    """Whatever the scan bound, the bridge scans subspaces, never the
    q**(m*mn) ordered tuples of tower elements.  A bound of [4, 2]_2 =
    35 subspaces is enough: the bridge scans the [3, 1]_2 = 7 through
    1."""
    def no_tuples(self):
        raise AssertionError("the bridge enumerated tower elements")

    monkeypatch.setattr(fields.TowerCtx, "elements", no_tuples)
    f = Poly(F2, (1, 1, 0, 0, 1))  # x**4 + x + 1
    assert fiber_count(f, 2, 2) == 8
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(gaussian_binomial(4, 2, 2)))
    assert fiber_count(f, 2, 2) == 8


def test_fiber_bridge_is_bases_over_units():
    f = Poly(F2, (1, 1, 0, 0, 1))
    assert fiber_count(f, 2, 2) == bases_formula(2, 2, 2) // 15
    assert ssc_formula(2, 2, 2) * linalg.gl_order(2, 2) == 120


def test_fiber_partition():
    hist = fiber_histogram(F2, 2, 2)
    total = 0
    for tail in itertools.product(range(2), repeat=4):
        total += hist[Poly(F2, tail + (1,))]
    assert total == 2**8

    hist = fiber_histogram(F3, 2, 1)
    total = 0
    for tail in itertools.product(range(3), repeat=2):
        total += hist[Poly(F3, tail + (1,))]
    assert total == 3**4


# every shape whose full recurrence scan has at most 4096 candidates,
# and GF(9) at m = 2
HISTOGRAM_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 13)
    if q ** (m * m * n) <= 4096
] + [(9, 2, 1)]


def per_polynomial_fibers(ctx, m, n):
    """The per-polynomial scan, for every monic f of degree mn: walk all
    recurrences and count those whose companion has characteristic
    polynomial f.  Each recurrence's polynomial is computed once up
    front rather than once per f."""
    chars = [char_poly(block_companion(rec)).coeffs for rec in enumerate_recurrences(ctx, m, n)]
    out = {}
    for tail in itertools.product(linalg.raw_scalars(ctx), repeat=m * n):
        f = Poly(ctx, tail + (ctx.one,))
        out[f] = chars.count(f.coeffs)
    return out


def monic_irreducibles(ctx, d):
    """The monic polynomials of degree d that are no product of two
    monic polynomials of positive degree: a sieve, not Rabin's test."""
    scalars = linalg.raw_scalars(ctx)

    def monic(k):
        return [Poly(ctx, tail + (ctx.one,)) for tail in itertools.product(scalars, repeat=k)]

    reducible = {g * h for k in range(1, d // 2 + 1) for g in monic(k) for h in monic(d - k)}
    return [f for f in monic(d) if f not in reducible]


@pytest.mark.parametrize("q, m, n", HISTOGRAM_SHAPES)
def test_fiber_histogram_matches_the_per_polynomial_scan(q, m, n):
    ctx = field_from_order(q)
    hist = fiber_histogram(ctx, m, n)
    oracle = per_polynomial_fibers(ctx, m, n)
    assert set(hist) <= set(oracle)
    assert {f: hist[f] for f in oracle} == oracle
    assert sum(hist.values()) == q ** (m * m * n)
    per_fiber = nofiber_formula(m, n, q)
    for f in monic_irreducibles(ctx, m * n):
        assert hist[f] == per_fiber, f


def test_find_irreducibles_over_f4_matches_the_sieve():
    ctx = field_from_order(4)
    for d in range(1, 7):
        found = find_irreducibles(ctx, d)
        assert len(found) == len(set(found))
        assert set(found) == set(monic_irreducibles(ctx, d)), d


def test_fiber_count_validation():
    with pytest.raises(NotMonic):
        fiber_count(Poly(F3, (1, 0, 2)), 2, 1)
    with pytest.raises(BadArgs):
        fiber_count(Poly(F2, (1, 1, 1)), 2, 2)  # degree 2 != m*n = 4
    with pytest.raises(NotIrreducible):
        fiber_count(Poly(F2, (0, 0, 0, 0, 1)), 2, 2)


def test_simulate_count_validation():
    with pytest.raises(BadArgs):
        simulate(FIB, ((0,), (1,)), -1)
    assert simulate(FIB, ((0,), (1,)), 0) == []

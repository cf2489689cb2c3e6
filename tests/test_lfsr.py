"""Word-oriented linear recurrences: periods, primitivity, fibers."""

import itertools

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
    bases_formula,
    block_companion,
    build_field,
    census_singer,
    char_poly,
    enumerate_recurrences,
    euler_phi,
    fiber_count,
    find_irreducibles,
    is_primitive_recurrence,
    nofiber_formula,
    period_preperiod,
    pvrc_formula,
    simulate,
    ssc_formula,
    step,
    vec_mat,
)
from splitlab import linalg

F2 = build_field(2)
F3 = build_field(3)


def scalar_rec(ctx, *codes):
    return BlockRecurrence(ctx, 1, tuple(Matrix(ctx, ((c,),)) for c in codes))


def all_states(ctx, m, n):
    q = ctx.size
    words = list(itertools.product(range(q), repeat=m))
    return [tuple(s) for s in itertools.product(words, repeat=n)]


FIB = scalar_rec(F2, 1, 1)  # s_{i+2} = s_i + s_{i+1}


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


def test_cycle_detection_paths_agree(monkeypatch):
    """Brent's fallback must return the same answer as the table walk."""
    rec = scalar_rec(F3, 0, 1)  # s_{i+2} = s_{i+1}, collapses to a constant
    for init in all_states(F3, 1, 2):
        table = period_preperiod(rec, init)
        with monkeypatch.context() as mp:
            mp.setenv("SPLITLAB_SCAN_BOUND", "8")  # below 9 states: Brent
            brent = period_preperiod(rec, init)
        assert (table.preperiod, table.period) == (brent.preperiod, brent.period), init


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
        by_order = is_primitive_recurrence(rec, "order")
        by_periods = is_primitive_recurrence(rec, "definitional")
        assert by_order == by_periods, rec
        count += by_order
    assert count == 16


def test_primitive_recurrence_has_maximal_periods():
    c0 = Matrix(F2, ((1, 1), (1, 0)))
    c1 = Matrix(F2, ((0, 1), (1, 1)))
    rec = BlockRecurrence(F2, 2, (c0, c1))
    if is_primitive_recurrence(rec):
        report = period_preperiod(rec, ((1, 0), (0, 0)))
        assert (report.preperiod, report.period) == (0, 15)


def test_singer_census_fixtures():
    assert census_singer(1, 2, 2) == 1
    assert census_singer(2, 1, 2) == 2
    assert census_singer(2, 2, 2) == 16
    for m, n, q in ((1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 2, 3)):
        assert census_singer(m, n, q) == pvrc_formula(m, n, q)


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
    assert fiber_count(quad, 2, 1, "scan") == 2
    assert nofiber_formula(2, 1, 2) == 2
    assert fiber_count(quad, 2, 1, "bridge") == 2
    assert fiber_count(quad, 1, 2, "scan") == 1
    assert nofiber_formula(2, 2, 2) == 8
    for f in find_irreducibles(F2, 4):
        assert fiber_count(f, 2, 2, "scan") == 8, f
        assert fiber_count(f, 2, 2, "bridge") == 8, f


def test_fiber_bridge_is_bases_over_units():
    f = Poly(F2, (1, 1, 0, 0, 1))
    assert fiber_count(f, 2, 2, "bridge") == bases_formula(2, 2, 2) // 15
    assert ssc_formula(2, 2, 2) * linalg.gl_order(2, 2) == 120


def test_fiber_partition():
    total = 0
    for tail in itertools.product(range(2), repeat=4):
        total += fiber_count(Poly(F2, tail + (1,)), 2, 2, "scan")
    assert total == 2**8

    total = 0
    for tail in itertools.product(range(3), repeat=2):
        total += fiber_count(Poly(F3, tail + (1,)), 2, 1, "scan")
    assert total == 3**4


def test_fiber_count_validation():
    with pytest.raises(NotMonic):
        fiber_count(Poly(F3, (1, 0, 2)), 2, 1)
    with pytest.raises(BadArgs):
        fiber_count(Poly(F2, (1, 1, 1)), 2, 2)  # degree 2 != m*n = 4
    with pytest.raises(NotIrreducible):
        fiber_count(Poly(F2, (0, 0, 0, 0, 1)), 2, 2, "bridge")
    with pytest.raises(BadArgs):
        fiber_count(Poly(F2, (1, 1, 1)), 2, 1, "bogus")


def test_simulate_count_validation():
    with pytest.raises(BadArgs):
        simulate(FIB, ((0,), (1,)), -1)
    assert simulate(FIB, ((0,), (1,)), 0) == []

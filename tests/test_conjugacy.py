"""Conjugacy classes of M_m(F_q) and the recurrence scans up to
simultaneous conjugation, against oracles that never call the class
enumerator: the class counts of Feit–Fine and Kung, the orbits under all
of GL_m(F_q) by brute force, and full scans of every coefficient tuple."""

import random
from collections import Counter

import pytest

from splitlab import (
    Matrix,
    Poly,
    VerificationJob,
    block_companion,
    build_field,
    char_poly,
    conjugacy_classes,
    enumerate_class_recurrences,
    enumerate_matrices,
    enumerate_recurrences,
    fiber_histogram,
    field_from_order,
    gl_order,
    integers,
    is_irreducible,
    is_primitive_recurrence,
    verify,
)
from splitlab import fields

# (q, m) of the class-count oracles
COUNT_POINTS = [(q, 1) for q in (2, 3, 4)] + [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9)] + [
    (2, 3),
    (3, 3),
]


def class_counts(q, m):
    """(#classes of M_m(F_q), #classes of GL_m(F_q)): the x**m
    coefficients of prod 1/(1 - q x**i) and prod (1 - x**i)/(1 - q x**i)
    over i >= 1 (Macdonald, Symmetric Functions, ch. IV), written out."""
    return {
        1: (q, q - 1),
        2: (q**2 + q, q**2 - 1),
        3: (q**3 + q**2 + q, q**3 - q),
    }[m]


def random_base(q, rng):
    """F_q = F_p[x]/(f) for a random monic irreducible f of degree e."""
    p, e = integers.prime_power_split(q)
    prime = build_field(p)
    while True:
        modulus = tuple(rng.randrange(p) for _ in range(e)) + (1,)
        if is_irreducible(Poly(prime, modulus)):
            return fields.FieldCtx(p, e, modulus)


def check_class_counts(ctx, m):
    q = ctx.size
    classes = conjugacy_classes(ctx, m)
    sizes = [size for _, size in classes]
    invertible = [rows for rows, _ in classes if Matrix(ctx, rows, m).det() != ctx.zero]
    assert sum(sizes) == q ** (m * m)
    assert (len(classes), len(invertible)) == class_counts(q, m)


@pytest.mark.parametrize("q, m", COUNT_POINTS)
def test_class_counts_match_feit_fine_and_kung(q, m):
    check_class_counts(field_from_order(q), m)


@pytest.mark.parametrize("q", (4, 8, 9))
def test_class_counts_over_random_moduli(q):
    rng = random.Random(f"classes/{q}")
    for _ in range(2):
        check_class_counts(random_base(q, rng), 2)


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_classes_are_the_orbits_under_all_of_gl(q, m):
    """Each class is the orbit of its representative under every
    invertible P, the representative is the orbit's first matrix in
    enumeration order, and the orbits partition M_m(F_q)."""
    ctx = field_from_order(q)
    order = {A: i for i, A in enumerate(enumerate_matrices(ctx, m, m))}
    group = [(P, P.inverse()) for P in order if P.det() != ctx.zero]
    covered = set()
    for rows, size in conjugacy_classes(ctx, m):
        R = Matrix(ctx, rows, m)
        orbit = {P * R * P_inv for P, P_inv in group}
        assert len(orbit) == size, R
        assert min(order[A] for A in orbit) == order[R], R
        assert not orbit & covered, R
        covered |= orbit
    assert len(covered) == q ** (m * m)


@pytest.mark.parametrize("q, m, n", [(2, 2, 2), (3, 2, 1), (4, 2, 1), (2, 3, 1), (2, 1, 3)])
def test_class_scan_visits_one_head_per_class(q, m, n):
    ctx = field_from_order(q)
    classes = conjugacy_classes(ctx, m)
    tails = q ** (m * m * (n - 1))
    recs = list(enumerate_class_recurrences(ctx, m, n))
    assert len(recs) == len(classes) * tails
    assert sum(w for _, w in recs) == q ** (m * m * n)
    assert [rec.C[0].rows for rec, _ in recs[::tails]] == [rows for rows, _ in classes]
    periodic = list(enumerate_class_recurrences(ctx, m, n, invertible=True))
    assert all(rec.C[0].det() != ctx.zero for rec, _ in periodic)
    assert sum(w for _, w in periodic) == gl_order(m, q) * tails


# every shape with q**(m*m*n) <= 4096 and m >= 2, where classes are not
# single matrices, GF(9) at m = 2, and the scalar shapes up to 256 tuples
PVRC_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 9)
    if q ** (m * m * n) <= (4096 if m >= 2 else 256)
] + [(9, 2, 1)]


@pytest.mark.parametrize("q, m, n", PVRC_SHAPES)
def test_reduced_pvrc_equals_the_full_scan(q, m, n):
    ctx = field_from_order(q)
    full = sum(is_primitive_recurrence(rec) for rec in enumerate_recurrences(ctx, m, n))
    (point,) = verify(VerificationJob("PVRC", grid=((q, m, n),))).points
    assert point.verdict == "match"
    assert point.brute == full


@pytest.mark.parametrize("q", (4, 8, 9))
def test_reduced_scans_equal_full_scans_over_random_moduli(q):
    """The histogram and the primitive count up to conjugation against
    the loops over every tuple, at (q, 2, 1) over random moduli."""
    rng = random.Random(f"reduced/{q}")
    ctx = random_base(q, rng)
    full = list(enumerate_recurrences(ctx, 2, 1))
    assert fiber_histogram(ctx, 2, 1) == Counter(char_poly(block_companion(rec)) for rec in full)
    primitive = sum(
        w for rec, w in enumerate_class_recurrences(ctx, 2, 1, invertible=True)
        if is_primitive_recurrence(rec)
    )
    assert primitive == sum(is_primitive_recurrence(rec) for rec in full)

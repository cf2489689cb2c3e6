"""Conjugacy classes of M_m(F_q) and the recurrence scans up to
simultaneous conjugation, against oracles that never call the class
enumerator: the class counts of Feit–Fine and Kung, the orbits under all
of GL_m(F_q) by brute force, Burnside's lemma over centralizers found by
row reduction, and full scans of every coefficient tuple."""

import array
import functools
import itertools
import random
from collections import Counter

import pytest

from splitlab import (
    BadArgs,
    Matrix,
    SizeExceeded,
    VerificationJob,
    block_companion,
    build_extension,
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
    is_primitive_recurrence,
    rref,
    subspace_from_rows,
    verify,
)
from splitlab import lfsr, linalg
from sampling import random_base, random_invertible
from test_lfsr import HISTOGRAM_SHAPES, per_polynomial_fibers

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


def class_rows(ctx, m):
    """conjugacy_classes read as one (representative rows, class size)
    per class, in class order."""
    mats, conj, classes = conjugacy_classes(ctx, m)
    return [(mats[x].rows, len(conj) // len(stab)) for x, stab in classes]


def check_class_counts(ctx, m):
    q = ctx.size
    classes = class_rows(ctx, m)
    sizes = [size for _, size in classes]
    invertible = [rows for rows, _ in classes if Matrix(ctx, rows, m).det() != ctx.zero]
    assert sum(sizes) == q ** (m * m)
    assert (len(classes), len(invertible)) == class_counts(q, m)


@functools.lru_cache(maxsize=None)
def centralizer_sizes(ctx, m):
    """(|C(g)|, |C(g) ∩ GL_m|) for every g in GL_m(F_q), C(g) the m x m
    matrices commuting with g: the left null space of X -> gX - Xg, read
    off the row reduction of [L | I], its units counted by brute force
    once per distinct null space."""
    q, mm = ctx.size, m * m
    basis = [
        Matrix(ctx, [[ctx.one if r * m + c == k else ctx.zero for c in range(m)]
                     for r in range(m)])
        for k in range(mm)
    ]
    units = {}
    out = []
    for g in enumerate_matrices(ctx, m, m):
        if g.det() == ctx.zero:
            continue
        rows = [
            sum((g * E - E * g).rows, ()) + tuple(ctx.one if j == k else ctx.zero for j in range(mm))
            for k, E in enumerate(basis)
        ]
        reduced, _ = rref(Matrix(ctx, rows))
        kernel = [r[mm:] for r in reduced.rows if all(x == ctx.zero for x in r[:mm])]
        space = subspace_from_rows(ctx, mm, kernel)
        if space not in units:
            units[space] = sum(
                Matrix(ctx, [v[i * m : (i + 1) * m] for i in range(m)]).det() != ctx.zero
                for v in space.vectors()
            )
        out.append((q ** len(kernel), units[space]))
    return out


def burnside(ctx, m, n, invertible=False):
    """The orbits of GL_m(F_q) on n-tuples of m x m matrices (C_0
    invertible with invertible) under simultaneous conjugation, by
    Burnside's lemma: the tuples g fixes, averaged over g."""
    fixed = sum(
        (units if invertible else size) * size ** (n - 1)
        for size, units in centralizer_sizes(ctx, m)
    )
    order = gl_order(m, ctx.size)
    assert fixed % order == 0
    return fixed // order


def heads(recs):
    """The distinct C_0 of a walk's recurrences, in walk order."""
    return list(dict.fromkeys(rec.C[0].rows for rec, _ in recs))


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
    for rows, size in class_rows(ctx, m):
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
    classes = class_rows(ctx, m)
    tails = q ** (m * m * (n - 1))
    recs = list(enumerate_class_recurrences(ctx, m, n))
    assert len(recs) == burnside(ctx, m, n)
    assert sum(w for _, w in recs) == q ** (m * m * n)
    assert heads(recs) == [rows for rows, _ in classes]
    periodic = list(enumerate_class_recurrences(ctx, m, n, invertible=True))
    assert all(rec.C[0].det() != ctx.zero for rec, _ in periodic)
    assert sum(w for _, w in periodic) == gl_order(m, q) * tails


# every shape with q**(m*m*n) <= 4096, and GF(9) at m = 2
PVRC_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 13)
    if q ** (m * m * n) <= 4096
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


# every shape with q**(m*m*n) <= 4096, and four past it where the chain
# runs deeper: three positions at (2,2,4), a group of order 168 at (2,3,2)
WALK_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 13)
    if q ** (m * m * n) <= 4096
] + [(2, 2, 4), (3, 2, 2), (4, 2, 2), (2, 3, 2)]
WALK_CASES = [(q, m, n, False) for q, m, n in WALK_SHAPES] + [
    (q, m, n, True) for q, m, n in WALK_SHAPES if q in (4, 8, 9)
]


@pytest.mark.parametrize("q, m, n, random_modulus", WALK_CASES)
def test_orbit_walk_visits_one_tuple_per_orbit(q, m, n, random_modulus):
    """As many leaves as Burnside's lemma counts orbits, weights summing
    to every tuple, and the conjugacy classes as the first level, with
    and without a singular C_0."""
    rng = random.Random(f"walk/{q},{m},{n}")
    ctx = random_base(q, rng) if random_modulus else field_from_order(q)
    classes = class_rows(ctx, m)
    units = [rows for rows, _ in classes if Matrix(ctx, rows, m).det() != ctx.zero]
    tails = q ** (m * m * (n - 1))
    for invertible, total, first in (
        (False, q ** (m * m * n), [rows for rows, _ in classes]),
        (True, gl_order(m, q) * tails, units),
    ):
        recs = list(enumerate_class_recurrences(ctx, m, n, invertible))
        assert len(recs) == burnside(ctx, m, n, invertible), invertible
        assert sum(w for _, w in recs) == total, invertible
        assert heads(recs) == first, invertible


@pytest.mark.parametrize("q, m, n, random_modulus", WALK_CASES)
def test_fiber_histogram_computes_one_polynomial_per_orbit(monkeypatch, q, m, n, random_modulus):
    """The histogram takes whole tuples up to conjugation from the orbit
    walk: the kernel computes as many polynomials as Burnside's lemma
    counts orbits, and their weights sum to every tuple."""
    rng = random.Random(f"walk/{q},{m},{n}")
    ctx = random_base(q, rng) if random_modulus else field_from_order(q)
    computed = []
    kernel = lfsr._char_polys
    monkeypatch.setattr(
        lfsr, "_char_polys", lambda *args: (computed.append(out) or out for out in kernel(*args))
    )
    hist = fiber_histogram(ctx, m, n)
    assert len(computed) == burnside(ctx, m, n)
    assert sum(hist.values()) == q ** (m * m * n)


@pytest.mark.parametrize("q, m, n", [shape for shape in HISTOGRAM_SHAPES if shape[0] in (4, 8, 9)])
def test_fiber_histogram_matches_the_per_polynomial_scan_over_a_random_modulus(q, m, n):
    """test_lfsr checks the canonical fields."""
    ctx = random_base(q, random.Random(f"histogram/{q},{m},{n}"))
    assert fiber_histogram(ctx, m, n) == per_polynomial_fibers(ctx, m, n)


@pytest.mark.parametrize(
    "q, m, n", [(q, m, n) for q, m, n, random_modulus in WALK_CASES
                if random_modulus and q ** (m * m * n) <= 4096]
)
def test_weighted_pvrc_equals_the_full_scan_over_random_moduli(q, m, n):
    """PVRC_SHAPES check the canonical fields through verify."""
    ctx = random_base(q, random.Random(f"walk/{q},{m},{n}"))
    primitive = sum(
        w for rec, w in enumerate_class_recurrences(ctx, m, n, invertible=True)
        if is_primitive_recurrence(rec)
    )
    assert primitive == sum(is_primitive_recurrence(rec) for rec in enumerate_recurrences(ctx, m, n))


@pytest.mark.parametrize("q, m, n", [(2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_walk_leaves_are_the_orbits_under_all_of_gl(q, m, n):
    """Each leaf's weight is the size of its tuple's orbit under every
    invertible P, and the orbits of the leaves partition all tuples."""
    ctx = field_from_order(q)
    group = [(P, P.inverse()) for P in enumerate_matrices(ctx, m, m) if P.det() != ctx.zero]
    covered = set()
    for rec, weight in enumerate_class_recurrences(ctx, m, n):
        orbit = {tuple(P * C * P_inv for C in rec.C) for P, P_inv in group}
        assert len(orbit) == weight, rec
        assert not orbit & covered, rec
        covered |= orbit
    assert len(covered) == q ** (m * m * n)


def primitive_scalar(ctx):
    """The first nonzero scalar whose q - 1 powers are pairwise distinct."""
    q = ctx.size
    for g in linalg.raw_scalars(ctx)[1:]:
        if len({ctx.power(g, k) for k in range(1, q)}) == q - 1:
            return g
    raise AssertionError(f"no primitive element in {ctx}")


def classes_by_union_find(ctx, m):
    """The independent oracle for conjugacy_classes: a union-find over
    all q**(m*m) matrices joins each A with its conjugates by the
    transvections I + E_ij (i != j) and, for q > 2, by diag(g, 1, ..., 1)
    with g primitive, which together generate GL_m(F_q).  One
    (representative rows, class size) per class, the representative the
    class's least matrix in enumeration order."""
    q, mm = ctx.size, m * m
    scalars = linalg.raw_scalars(ctx)
    rank = {x: i for i, x in enumerate(scalars)}
    add, sub, mul = ctx.add, ctx.sub, ctx.mul

    def transvection(i, j):
        def conj(A):
            for c in range(m):
                A[i * m + c] = add(A[i * m + c], A[j * m + c])
            for r in range(m):
                A[r * m + j] = sub(A[r * m + j], A[r * m + i])
            return A

        return conj

    def scaling(g):
        g_inv = ctx.inv(g)

        def conj(A):
            for c in range(1, m):
                A[c] = mul(g, A[c])
            for r in range(1, m):
                A[r * m] = mul(g_inv, A[r * m])
            return A

        return conj

    gens = [transvection(i, j) for i in range(m) for j in range(m) if i != j]
    if q > 2:
        gens.append(scaling(primitive_scalar(ctx)))
    parent = array.array("q", range(q**mm))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for a, flat in enumerate(itertools.product(scalars, repeat=mm)):
        for conj in gens:
            b = 0
            for x in conj(list(flat)):
                b = b * q + rank[x]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    sizes = Counter(find(a) for a in range(q**mm))
    out = []
    for r in sorted(sizes):
        flat = [scalars[d] for d in integers.to_digits(r, q, mm)[::-1]]
        out.append((tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(m)), sizes[r]))
    return out


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16))
def test_scalar_classes_equal_the_union_find(q):
    ctx = field_from_order(q)
    assert class_rows(ctx, 1) == classes_by_union_find(ctx, 1)


@pytest.mark.parametrize("q", [q for q, m in COUNT_POINTS if m == 2])
def test_union_find_oracle_reproduces_the_classes_at_m_2(q):
    ctx = field_from_order(q)
    assert classes_by_union_find(ctx, 2) == class_rows(ctx, 2)


@pytest.mark.parametrize("q", [q for q, m in COUNT_POINTS if m == 3])
def test_union_find_oracle_reproduces_the_classes_at_m_3(q):
    ctx = field_from_order(q)
    assert classes_by_union_find(ctx, 3) == class_rows(ctx, 3)


@pytest.mark.parametrize("q", (4, 8, 9))
def test_union_find_oracle_reproduces_the_classes_over_a_random_modulus(q):
    ctx = random_base(q, random.Random(f"union-find/{q}"))
    assert classes_by_union_find(ctx, 2) == class_rows(ctx, 2)


@pytest.mark.parametrize("q, m, n", [(2, 2, 2), (3, 2, 2), (2, 1, 3), (3, 1, 2)])
def test_each_scan_builds_the_group_once(monkeypatch, q, m, n):
    """The class pass builds the conjugations and the orbit walk and the
    histogram reuse them; at m = 1 the group modulo the scalars is
    trivial and none is built."""
    builds = []
    build = linalg._conjugations
    monkeypatch.setattr(linalg, "_conjugations", lambda *a: builds.append(a) or build(*a))
    ctx = field_from_order(q)
    expected = 1 if m > 1 else 0
    for scan in (
        lambda: list(enumerate_class_recurrences(ctx, m, n)),
        lambda: list(enumerate_class_recurrences(ctx, m, n, invertible=True)),
        lambda: fiber_histogram(ctx, m, n),
    ):
        builds.clear()
        scan()
        assert len(builds) == expected


@pytest.mark.parametrize("q", (11, 13))
def test_union_find_oracle_reproduces_the_classes_past_the_lane_sums_of_small_q(q):
    """At m = 2 the lanes of q = 11 and 13 sum up to 40 and 48; a digit
    times a packed image would reach 400 and 576 there and carry."""
    ctx = field_from_order(q)
    assert classes_by_union_find(ctx, 2) == class_rows(ctx, 2)


@pytest.mark.parametrize("q, m", [(q, 2) for q in (2, 4, 8, 9, 11)] + [(2, 3), (4, 3)])
def test_sampled_conjugations_equal_the_matrix_products(q, m):
    """conj(x) is the index of P X P**-1 for sampled invertible P and
    matrices X, over random moduli; an index is read off the entry
    codes, first entry most significant."""
    rng = random.Random(f"conjugations/{q},{m}")
    ctx = random_base(q, rng)
    group = [random_invertible(ctx, m, rng) for _ in range(8)]
    scalars = linalg.raw_scalars(ctx)
    rank = {x: i for i, x in enumerate(scalars)}
    for P, conj in zip(group, linalg._conjugations(ctx, m, group), strict=True):
        for _ in range(25):
            x = rng.randrange(q ** (m * m))
            flat = [scalars[d] for d in integers.to_digits(x, q, m * m)[::-1]]
            X = Matrix(ctx, [flat[i * m : (i + 1) * m] for i in range(m)], m)
            image = sum((P * X * P.inverse()).rows, ())
            assert conj(x) == functools.reduce(lambda y, a: y * q + rank[a], image, 0), (P, X)


def test_classes_past_the_lane_bound_are_refused_before_any_matrix(monkeypatch):
    """67**4 matrices fit a raised scan bound, but 4 * 66 lane sums
    would carry a byte: the refusal comes before any matrix is built."""

    def enumerated(*args):
        raise AssertionError("the matrices were enumerated")

    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**8))
    monkeypatch.setattr(linalg, "enumerate_matrices", enumerated)
    monkeypatch.setattr(linalg, "raw_scalars", enumerated)
    with pytest.raises(SizeExceeded, match=r"e\*m\*m\*\(p-1\) < 256"):
        conjugacy_classes(build_field(67), 2)


def test_classes_over_a_tower_are_refused():
    tower = build_extension(build_field(2), 2)
    with pytest.raises(BadArgs, match="FieldCtx"):
        conjugacy_classes(tower, 2)

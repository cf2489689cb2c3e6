"""The matrix kernels on FieldCtx.dot against the add/mul loops they
replace: Matrix.__mul__, vec_mat, char_poly and Matrix.__pow__ (square
and multiply on raw rows), over prime fields, table fields and the tower
above the table cap, plus hypothesis property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlab import (
    Matrix,
    Poly,
    build_extension,
    build_field,
    char_poly,
    companion_matrix,
    vec_mat,
)
from splitlab import fields, integers, linalg
from sampling import random_invertible, random_matrix

# (p, e): prime fields, p = 2 and odd-p tables, and two fields above
# fields._TABLE_MAX that run on the private tower
FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 8), (3, 5), (2, 17), (257, 2)]
CTXS = {pe: build_field(*pe) for pe in FIELDS}


def field_id(pe):
    return f"GF({pe[0]}^{pe[1]})"


# -- oracles: the add/mul loops the kernels replaced ------------------------

def oracle_dot(ctx, xs, ys):
    acc = ctx.zero
    for x, y in zip(xs, ys):
        if x != ctx.zero and y != ctx.zero:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def oracle_vec_mat(vec, mat):
    ctx = mat.ctx
    out = [ctx.zero] * mat.ncols
    for i, v in enumerate(vec):
        if v == ctx.zero:
            continue
        out = [ctx.add(x, ctx.mul(v, b)) for x, b in zip(out, mat.rows[i])]
    return tuple(out)


def oracle_mul(a, b):
    return Matrix(a.ctx, [oracle_vec_mat(row, b) for row in a.rows], b.ncols)


def oracle_pow(mat, k):
    result = Matrix.identity(mat.ctx, mat.nrows)
    base = mat
    while k:
        if k & 1:
            result = oracle_mul(result, base)
        k >>= 1
        if k:
            base = oracle_mul(base, base)
    return result


def oracle_char_poly(mat):
    ctx, n, A = mat.ctx, mat.nrows, mat.rows
    if n == 0:
        return Poly.one(ctx)
    zero, add, mul, neg = ctx.zero, ctx.add, ctx.mul, ctx.neg
    coeffs = [ctx.one, neg(A[n - 1][n - 1])]
    for k in range(2, n + 1):
        i0 = n - k
        row = A[i0][i0 + 1:]
        sub_rows = [A[i][i0 + 1:] for i in range(i0 + 1, n)]
        s = [ctx.one, neg(A[i0][i0])]
        v = tuple(A[i][i0] for i in range(i0 + 1, n))
        for t in range(2, k + 1):
            s.append(neg(oracle_dot(ctx, row, v)))
            if t < k:
                v = tuple(oracle_dot(ctx, srow, v) for srow in sub_rows)
        new = []
        for i in range(k + 1):
            acc = zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = add(acc, mul(s[i - j], coeffs[j]))
            new.append(acc)
        coeffs = new
    return Poly(ctx, tuple(reversed(coeffs)))


# -- matrix sizes -------------------------------------------------------------

def side(ctx):
    """Matrix size for a field: small above the table cap, where every
    scalar op runs on digit tuples."""
    return 2 if ctx.size > fields._TABLE_MAX else 4


@pytest.mark.parametrize("pe", FIELDS, ids=field_id)
def test_dot_matches_the_fold(pe):
    ctx = CTXS[pe]
    rng = random.Random(f"dot/{pe}")
    for length in (0, 1, 2, 5, 9):
        for _ in range(20):
            xs = [rng.randrange(ctx.size) for _ in range(length)]
            ys = [rng.randrange(ctx.size) for _ in range(length)]
            assert ctx.dot(xs, ys) == oracle_dot(ctx, xs, ys), (xs, ys)
    assert ctx.dot((), ()) == ctx.zero
    assert ctx.dot([0] * 6, [rng.randrange(ctx.size) for _ in range(6)]) == ctx.zero
    assert ctx.dot([ctx.size - 1] * 3, [0] * 3) == ctx.zero


@pytest.mark.parametrize("pe", FIELDS, ids=field_id)
def test_mul_and_vec_mat_match_the_loops(pe):
    ctx = CTXS[pe]
    rng = random.Random(f"mul/{pe}")
    s = side(ctx)
    for nrows, inner, ncols in ((s, s, s), (1, s, 2), (s, 1, s), (2, s + 1, 3)):
        a = random_matrix(ctx, nrows, inner, rng)
        b = random_matrix(ctx, inner, ncols, rng)
        assert a * b == oracle_mul(a, b)
        for row in a.rows:
            assert vec_mat(row, b) == oracle_vec_mat(row, b)
        zero_vec = (ctx.zero,) * inner
        assert vec_mat(zero_vec, b) == oracle_vec_mat(zero_vec, b) == (ctx.zero,) * ncols


@pytest.mark.parametrize("pe", FIELDS, ids=field_id)
def test_char_poly_matches_the_loops(pe):
    ctx = CTXS[pe]
    rng = random.Random(f"charpoly/{pe}")
    for n in range(1, side(ctx) + 2):
        for _ in range(3):
            mat = random_matrix(ctx, n, n, rng)
            assert char_poly(mat) == oracle_char_poly(mat), mat


@pytest.mark.parametrize("pe", FIELDS, ids=field_id)
def test_powers_match_square_and_multiply_from_the_identity(pe):
    ctx = CTXS[pe]
    rng = random.Random(f"pow/{pe}")
    n = min(side(ctx), 3)
    mat = random_invertible(ctx, n, rng)
    full = ctx.size ** n - 1
    for k in (0, 1, 2, 3, 10, full):
        assert mat**k == oracle_pow(mat, k), k
    inv = mat.inverse()
    for k in (1, 2, 5):
        assert mat**-k == oracle_pow(inv, k)
        assert mat**-k * mat**k == Matrix.identity(ctx, n)
    singular = Matrix(ctx, [mat.rows[0], mat.rows[0]] + list(mat.rows[2:]), n)
    for k in (0, 1, 2, full):
        assert singular**k == oracle_pow(singular, k)


def test_packed_f2_powers_reach_the_group_order():
    """Over F_2 the powers give T**(2**6 - 1) = I exactly for the
    companion of a primitive sextic, and no proper divisor does."""
    F2 = CTXS[(2, 1)]
    T = companion_matrix(Poly(F2, (1, 1, 0, 0, 0, 0, 1)))  # x**6 + x + 1, primitive
    ident = Matrix.identity(F2, 6)
    assert T**63 == ident == oracle_pow(T, 63)
    assert T**21 != ident and T**9 != ident


def slot_product(p, a_rows, b_rows):
    """linalg._slot_product on tuple rows, its rows back as tuples."""
    rows = linalg._slot_product(integers.byte_residues(p), list(map(bytes, a_rows)),
                                list(map(bytes, b_rows)))
    return list(map(tuple, rows))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_slot_product_matches_the_generic_product(p):
    """Squares and vector products as the odd-p order test takes them,
    at sizes up to the largest n with n * (p - 1)**2 < 256."""
    ctx, rng = build_field(p), random.Random(f"slots/{p}")
    top = 255 // (p - 1) ** 2
    for n in sorted({1, 2, (top + 1) // 2, top}):
        b = random_matrix(ctx, n, n, rng).rows
        for a in (b, random_matrix(ctx, n, n, rng).rows, random_matrix(ctx, 1, n, rng).rows):
            assert slot_product(p, a, b) == linalg._product(ctx, a, b, n), (n, a, b)


@pytest.mark.parametrize("n", [63, 64])
def test_the_slot_product_on_the_worst_case_at_its_bound(n):
    """All-2 matrices over F_3: every byte of a product row sums n * 4
    products, 252 at n = 63, where the slot product is exact, and 256 at
    n = 64, where a byte carries and the product is wrong, so the bound
    n * (p - 1)**2 < 256 cannot be widened."""
    F3 = CTXS[(3, 1)]
    rows = [(2,) * n] * n
    for a in (rows, rows[:1]):
        assert (slot_product(3, a, rows) == linalg._product(F3, a, rows, n)) == (n == 63)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_the_slot_elimination_matches_rows_are_independent(p):
    """linalg._slot_independent on random n x d matrices over every F_p
    with p * (p - 1) < 256, n = 1 and d = 0 included, some with a zero
    row, a row repeating another or a row that is a random combination
    of the others: its verdict is rows_are_independent's."""
    ctx, rng = build_field(p), random.Random(f"slot-rows/{p}")
    seen = set()
    for n in range(1, 6):
        for d in range(7):
            for _ in range(40):
                rows = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
                kind = rng.choice(("random", "zero", "repeat", "combination")[: 4 if n > 1 else 2])
                i = rng.randrange(n)
                others = rows[:i] + rows[i + 1 :]
                if kind == "zero":
                    rows[i] = [0] * d
                elif kind == "repeat":
                    rows[i] = rng.choice(others)[:]
                elif kind == "combination":
                    weights = [rng.randrange(p) for _ in others]
                    rows[i] = [sum(w * row[j] for w, row in zip(weights, others)) % p
                               for j in range(d)]
                expect = linalg.rows_are_independent(ctx, rows)
                assert linalg._slot_independent(p, list(map(bytes, rows))) == expect, rows
                assert kind == "random" or not expect
                seen.add((n, d, expect))
    assert linalg._slot_independent(p, []) is True
    # one empty row is dependent; d >= n answers both ways
    assert (1, 0, False) in seen and (1, 0, True) not in seen
    assert {(n, d, v) for n in range(1, 6) for d in range(n, 7) for v in (True, False)} <= seen


@pytest.mark.parametrize("pe", FIELDS, ids=field_id)
def test_empty_and_one_by_one_matrices(pe):
    ctx = CTXS[pe]
    empty = Matrix(ctx, (), 0)
    assert empty * empty == oracle_mul(empty, empty) == empty
    for k in (0, 1, 2, -1):
        assert empty**k == empty
    assert char_poly(empty) == Poly.one(ctx)
    assert vec_mat((), empty) == ()
    wide = Matrix(ctx, (), 3)
    assert vec_mat((), wide) == (ctx.zero,) * 3
    assert Matrix(ctx, [()] * 2, 0) * wide == Matrix.zero(ctx, 2, 3)
    rng = random.Random(f"one/{pe}")
    for _ in range(5):
        a, b = random_matrix(ctx, 1, 1, rng), random_matrix(ctx, 1, 1, rng)
        assert a * b == oracle_mul(a, b)
        assert char_poly(a) == oracle_char_poly(a)
        for k in (0, 1, 2, ctx.size - 1):
            assert a**k == oracle_pow(a, k)


def test_matrices_over_a_tower_use_the_fold():
    base = CTXS[(2, 1)]
    tower = build_extension(base, 3)
    rng = random.Random("tower")

    def rand_entry():
        return tuple(rng.randrange(2) for _ in range(3))

    a = Matrix(tower, [[rand_entry() for _ in range(3)] for _ in range(2)], 3)
    b = Matrix(tower, [[rand_entry() for _ in range(2)] for _ in range(3)], 2)
    assert a * b == oracle_mul(a, b)
    sq = Matrix(tower, [[rand_entry() for _ in range(3)] for _ in range(3)], 3)
    for k in (0, 1, 2, 7):
        assert sq**k == oracle_pow(sq, k)
    assert char_poly(sq) == oracle_char_poly(sq)


# -- properties ---------------------------------------------------------------

# prime fields, and table fields of characteristic 2 and odd
PROPERTY_FIELDS = [build_field(p, e) for p, e in
                   ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 8))]
PROPERTIES = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def square_matrices(draw):
    ctx = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(0, 4))
    entry = st.integers(0, ctx.size - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix(ctx, rows, n)


@st.composite
def vector_triples(draw):
    ctx = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(0, 8))
    vec = st.lists(st.integers(0, ctx.size - 1), min_size=n, max_size=n)
    return ctx, draw(vec), draw(vec), draw(vec), draw(st.integers(0, ctx.size - 1))


@PROPERTIES
@given(square_matrices(), st.integers(0, 40), st.integers(0, 40))
def test_powers_add_exponents(mat, a, b):
    assert mat ** (a + b) == mat**a * mat**b


@PROPERTIES
@given(vector_triples())
def test_dot_is_symmetric_and_bilinear(triple):
    ctx, x, y, z, c = triple
    dot = ctx.dot
    assert dot(x, y) == dot(y, x)
    xy = [ctx.add(u, v) for u, v in zip(x, y)]
    assert dot(xy, z) == ctx.add(dot(x, z), dot(y, z))
    cx = [ctx.mul(c, u) for u in x]
    assert dot(cx, z) == ctx.mul(c, dot(x, z))

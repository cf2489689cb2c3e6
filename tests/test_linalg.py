"""Exact linear algebra over finite fields."""

import itertools

import pytest

from splitlab import (
    BadArgs,
    Matrix,
    Poly,
    ScanBoundExceeded,
    Singular,
    build_extension,
    build_field,
    char_poly,
    companion_matrix,
    count_nilpotent,
    enumerate_matrices,
    enumerate_subspaces,
    gaussian_binomial,
    gl_order,
    matrix_order,
    rref,
    subspace_from_rows,
    vec_mat,
)
from splitlab import linalg

F2 = build_field(2)
F3 = build_field(3)


def span_size(ctx, rows):
    """Size of the row space, by listing every linear combination
    instead of eliminating."""
    width = len(rows[0]) if rows else 0
    vecs = set()
    for coeffs in itertools.product(linalg.raw_scalars(ctx), repeat=len(rows)):
        v = (ctx.zero,) * width
        for c, row in zip(coeffs, rows):
            v = tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row))
        vecs.add(v)
    return len(vecs)


def all_matrices(ctx, nrows, ncols):
    q = ctx.size
    for flat in itertools.product(range(q), repeat=nrows * ncols):
        yield Matrix(ctx, tuple(flat[i * ncols:(i + 1) * ncols] for i in range(nrows)))


def test_matrix_basics():
    m = Matrix(F2, ((1, 1), (0, 1)))
    assert m.nrows == 2 and m.ncols == 2
    assert str(m) == "1,1;0,1"
    assert m.transpose().rows == ((1, 0), (1, 1))
    assert m.trace() == 0
    assert m.det() == 1
    assert Matrix.identity(F3, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert Matrix.zero(F2, 2, 3).rows == ((0, 0, 0), (0, 0, 0))


def test_matrix_shape_validation():
    with pytest.raises(BadArgs):
        Matrix(F2, ((1, 0), (1,)))
    with pytest.raises(BadArgs):
        Matrix(F2, (), None)
    assert Matrix(F2, (), 3).nrows == 0
    assert Matrix(F2, (), 3).ncols == 3


def test_matrix_multiplication_agrees_with_vec_mat():
    a = Matrix(F3, ((1, 2), (0, 1)))
    b = Matrix(F3, ((2, 1), (1, 1)))
    prod = a * b
    for i in range(2):
        assert prod.rows[i] == vec_mat(a.rows[i], b)


def test_vec_mat_picks_out_rows():
    m = Matrix(F3, ((1, 2, 0), (0, 1, 1), (2, 0, 1)))
    assert vec_mat((1, 0, 0), m) == (1, 2, 0)
    assert vec_mat((0, 0, 1), m) == (2, 0, 1)
    assert vec_mat((0, 1, 1), m) == (2, 1, 2)


def test_matrix_power():
    m = Matrix(F2, ((0, 1), (1, 1)))
    assert (m**0).rows == Matrix.identity(F2, 2).rows
    assert (m**1).rows == m.rows
    acc = Matrix.identity(F2, 2)
    for k in range(8):
        assert (m**k).rows == acc.rows
        acc = acc * m
    assert (m**-1).rows == m.inverse().rows
    assert (m**-3 * m**3).rows == Matrix.identity(F2, 2).rows


def test_inverse_round_trip():
    eye = Matrix.identity(F3, 2)
    count = 0
    for m in all_matrices(F3, 2, 2):
        if m.det() != 0:
            count += 1
            assert (m * m.inverse()).rows == eye.rows
            assert (m.inverse() * m).rows == eye.rows
        else:
            with pytest.raises(Singular):
                m.inverse()
    assert count == gl_order(2, 3)


def test_rref_fixture_keeps_shape():
    m = Matrix(F2, ((1, 1), (1, 1)))
    r, rank = rref(m)
    assert rank == 1
    assert r.rows == ((1, 1), (0, 0))


def test_rref_is_idempotent_and_canonical():
    """Matrices with the same row space reduce to the same echelon form."""
    by_space = {}
    for m in all_matrices(F2, 2, 3):
        r, rank = rref(m)
        assert r.nrows == 2 and r.ncols == 3
        assert rref(r)[0].rows == r.rows
        space = frozenset(
            tuple((a * x + b * y) % 2 for x, y in zip(m.rows[0], m.rows[1]))
            for a in range(2)
            for b in range(2)
        )
        by_space.setdefault(space, set()).add(r.rows)
        assert rank == len([row for row in r.rows if any(row)])
    assert all(len(forms) == 1 for forms in by_space.values())


def test_rank_matches_span_oracle():
    for ctx, nrows, ncols in ((F2, 3, 3), (F3, 2, 3)):
        for m in all_matrices(ctx, nrows, ncols):
            rank = rref(m)[1]
            assert ctx.size**rank == span_size(ctx, m.rows), m
            assert linalg.rows_are_independent(ctx, m.rows) == (rank == nrows), m
            if m.is_square:
                assert (m.det() != 0) == (rank == nrows)


def test_rank_over_tower_elements():
    # exercises the generic elimination path with non-integer entries
    tower = build_extension(F2, 2)
    a = tower.alpha.raw
    one = tower.one
    zero = tower.zero
    assert rref(Matrix(tower, ((one, a), (a, tower.mul(a, a)))))[1] == 1
    assert rref(Matrix(tower, ((one, zero), (a, one))))[1] == 2
    for m in enumerate_matrices(tower, 2, 2):
        rank = rref(m)[1]
        assert tower.size**rank == span_size(tower, m.rows), m
        assert linalg.rows_are_independent(tower, m.rows) == (rank == 2), m


def test_subspace_from_rows():
    sb = subspace_from_rows(F2, 4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)))
    assert sb.dim == 2
    assert sb.ambient == 4
    assert sb.contains((1, 1, 1, 1))
    assert not sb.contains((1, 0, 0, 0))
    assert len(list(sb.vectors())) == 4
    assert sorted(sb.vectors()) == sorted(
        {(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)}
    )


def test_enumerate_subspaces_counts():
    for q, ctx in ((2, F2), (3, F3)):
        for ambient in range(5):
            for dim in range(ambient + 1):
                seen = {sb.rows for sb in enumerate_subspaces(ctx, ambient, dim)}
                assert len(seen) == gaussian_binomial(ambient, dim, q), (q, ambient, dim)


def test_enumerate_subspaces_respects_bound(monkeypatch):
    # the bound check fires at the call, before any subspace is produced
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(10**6))
    with pytest.raises(ScanBoundExceeded):
        enumerate_subspaces(F2, 30, 15)


def test_gaussian_binomial_fixtures():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(3, 3, 5) == 1


def test_gaussian_binomial_symmetry():
    for n in range(7):
        for k in range(n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_gaussian_binomial_rejects_bad_range():
    with pytest.raises(BadArgs):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(BadArgs):
        gaussian_binomial(3, -1, 2)


def test_gl_order_matches_brute_count():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    for m, ctx in ((1, F2), (2, F2), (1, F3), (2, F3)):
        brute = sum(1 for mat in all_matrices(ctx, m, m) if mat.det() != 0)
        assert gl_order(m, ctx.size) == brute


def test_count_nilpotent(monkeypatch):
    assert count_nilpotent(2, 2) == 4
    assert count_nilpotent(2, 3) == 9
    assert count_nilpotent(3, 2) == 64
    for m, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        assert count_nilpotent(m, q, "brute") == count_nilpotent(m, q, "closed"), (m, q)
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "100")
    with pytest.raises(ScanBoundExceeded):
        count_nilpotent(3, 2, "brute")


def test_char_poly_fixtures():
    m = Matrix(F2, ((0, 1), (1, 1)))
    assert char_poly(m) == Poly(F2, (1, 1, 1))
    eye = Matrix.identity(F3, 2)
    assert char_poly(eye) == Poly(F3, (1, 1, 1))  # (x - 1)^2 = x^2 + x + 1 mod 3
    assert char_poly(Matrix.zero(F2, 3, 3)) == Poly(F2, (0, 0, 0, 1))


def test_char_poly_of_companion_is_the_polynomial():
    for ctx, deg in ((F2, 2), (F2, 3), (F2, 4), (F3, 2)):
        q = ctx.size
        for tail in itertools.product(range(q), repeat=deg):
            f = Poly(ctx, tail + (1,))
            assert char_poly(companion_matrix(f)) == f, f


def test_cayley_hamilton():
    for ctx in (F2, F3):
        for m in all_matrices(ctx, 2, 2):
            f = char_poly(m)
            acc = Matrix.zero(ctx, 2, 2)
            power = Matrix.identity(ctx, 2)
            for c in f.coeffs:
                acc = Matrix(ctx, tuple(
                    tuple(ctx.add(a, ctx.mul(c, b)) for a, b in zip(ra, rp))
                    for ra, rp in zip(acc.rows, power.rows)
                ))
                power = power * m
            assert not any(any(row) for row in acc.rows), m


def test_matrix_order_fixtures():
    assert matrix_order(Matrix(F2, ((0, 1), (1, 1)))) == 3
    assert matrix_order(companion_matrix(Poly(F2, (1, 1, 1, 1, 1)))) == 5
    assert matrix_order(companion_matrix(Poly(F2, (1, 1, 0, 0, 1)))) == 15
    assert matrix_order(Matrix.identity(F3, 2)) == 1
    with pytest.raises(Singular):
        matrix_order(Matrix.zero(F2, 2, 2))


def test_matrix_order_matches_brute():
    eye = Matrix.identity(F3, 2)
    for m in all_matrices(F3, 2, 2):
        if m.det() == 0:
            continue
        acc, k = m, 1
        while acc.rows != eye.rows:
            acc = acc * m
            k += 1
        assert matrix_order(m) == k, m


def test_enumerate_matrices_count():
    assert sum(1 for _ in enumerate_matrices(F2, 2, 3)) == 2**6
    assert sum(1 for _ in enumerate_matrices(F3, 2, 2)) == 3**4

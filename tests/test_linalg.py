"""Exact linear algebra over finite fields."""

import itertools
import random
import tracemalloc

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
    field_from_order,
    gaussian_binomial,
    gl_order,
    rref,
    subspace_from_rows,
    vec_mat,
)
from splitlab import linalg
from sampling import random_base, random_tower

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


def reference_rref_rows(ctx, rows, ncols):
    """The Gauss-Jordan loop _rref_rows ran before it inserted rows
    through _echelon_insert: column by column, swap a pivot row up,
    scale it to lead 1 and clear its column from every other row."""
    work = [list(r) for r in rows]
    zero = ctx.zero
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(work)) if work[r][col] != zero), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        pinv = ctx.inv(work[top][col])
        work[top] = [ctx.mul(pinv, x) for x in work[top]]
        for r in range(len(work)):
            f = work[r][col]
            if r != top and f != zero:
                work[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[r], work[top])]
        pivots.append(col)
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def rref_cases(ctx, rng):
    """Row lists over ctx: empty, zero, rank-deficient (combinations of
    fewer rows than the matrix has), wide, tall and square random ones."""
    scalars = linalg.raw_scalars(ctx)

    def rand_rows(nrows, ncols):
        return [tuple(rng.choice(scalars) for _ in range(ncols)) for _ in range(nrows)]

    def combinations(nrows, ncols, rank):
        basis = rand_rows(rank, ncols)
        out = []
        for _ in range(nrows):
            v = [ctx.zero] * ncols
            for row in basis:
                c = rng.choice(scalars)
                v = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row)]
            out.append(tuple(v))
        return out

    yield [], 3
    yield [(ctx.zero,) * 4] * 3, 4
    for _ in range(6):
        yield combinations(5, 4, rng.randrange(1, 4)), 4
        yield rand_rows(3, 7), 7
        yield rand_rows(7, 3), 3
        yield rand_rows(4, 4), 4


@pytest.mark.parametrize("kind", ["F2", "F3", "GF4", "GF9", "tower"])
def test_rref_rows_matches_the_gauss_jordan_loop(kind):
    rng = random.Random(f"rref/{kind}")
    ctx = {
        "F2": lambda: F2,
        "F3": lambda: F3,
        "GF4": lambda: random_base(4, rng),
        "GF9": lambda: random_base(9, rng),
        "tower": lambda: random_tower(random_base(4, rng), 2, rng),
    }[kind]()
    for rows, ncols in rref_cases(ctx, rng):
        want = reference_rref_rows(ctx, rows, ncols)
        assert linalg._rref_rows(ctx, rows) == want, rows
        if rows:
            reduced, rank = rref(Matrix(ctx, rows))
            assert reduced.rows[:rank] == want[0] and rank == len(want[1])


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


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_vectors_follow_the_product_order_of_the_coefficients(q):
    """W.vectors() is sum c_i * row_i for every coefficient tuple in
    itertools.product order, the first coefficient slowest, on random
    subspaces of every dimension over a random modulus."""
    rng = random.Random(f"vectors/{q}")
    ctx = random_base(q, rng)
    scalars = linalg.raw_scalars(ctx)
    for dim, ambient in ((0, 3), (1, 3), (2, 4), (3, 4), (2, 5)):
        if q**dim > 400:
            continue
        while True:
            rows = [tuple(rng.choice(scalars) for _ in range(ambient)) for _ in range(dim)]
            W = subspace_from_rows(ctx, ambient, rows)
            if W.dim == dim:
                break
        expected = []
        for coeffs in itertools.product(scalars, repeat=dim):
            v = (ctx.zero,) * ambient
            for c, row in zip(coeffs, W.rows):
                v = tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row))
            expected.append(v)
        assert list(W.vectors()) == expected, (ctx, W.rows)


def test_subspace_basis_is_an_immutable_value():
    """Fields read back, assignment fails, equality and hashing follow
    the subspace, and a SubspaceBasis never equals the plain tuple it
    is built on, from either side."""
    rows, pivots = ((1, 0, 2, 0), (0, 1, 1, 0)), (0, 1)
    W = linalg.SubspaceBasis(F3, 4, rows, pivots)
    (U,) = [U for U in enumerate_subspaces(F3, 4, 2) if U.rows == rows]
    assert (W.ctx, W.ambient, W.rows, W.pivots, W.dim) == (F3, 4, rows, pivots, 2)
    assert W == U and not W != U and hash(W) == hash(U)
    assert W == subspace_from_rows(F3, 4, [(1, 1, 0, 0), (0, 1, 1, 0)])
    assert W != linalg.SubspaceBasis(F3, 4, rows[:1], pivots[:1])
    assert W != linalg.SubspaceBasis(F2, 4, ((1, 0, 0, 0), (0, 1, 1, 0)), pivots)
    assert repr(W) == "SubspaceBasis(dim 2 of GF(3)^4)"
    for name in ("ctx", "ambient", "rows", "pivots", "other"):
        with pytest.raises(AttributeError):
            setattr(W, name, None)
    plain = (F3, 4, rows, pivots)
    assert not W == plain and not plain == W
    assert W != plain and plain != W
    assert len({W, U, plain}) == 2
    for misuse in (lambda: list(W), lambda: rows[0] in W):
        with pytest.raises(TypeError):
            misuse()
    assert W.contains(rows[0])


def test_enumerate_subspaces_counts():
    """[ambient, dim]_q bases, none repeated, each in reduced echelon
    form: row i is zero before its pivot, and at pivot j holds one if
    i = j and zero otherwise."""
    for q, top in ((2, 5), (3, 5), (4, 4), (5, 4), (9, 3)):
        ctx = field_from_order(q)
        zero, one = ctx.zero, ctx.one
        for ambient in range(top + 1):
            for dim in range(ambient + 1):
                subspaces = list(enumerate_subspaces(ctx, ambient, dim))
                bases = {W.rows for W in subspaces}
                assert len(subspaces) == len(bases) == gaussian_binomial(ambient, dim, q), (
                    q, ambient, dim)
                for W in subspaces:
                    assert list(W.pivots) == sorted(set(W.pivots)) and len(W.pivots) == dim
                    for i, row in enumerate(W.rows):
                        assert row[:W.pivots[i]] == (zero,) * W.pivots[i], (q, W.rows)
                        for j, pivot in enumerate(W.pivots):
                            assert row[pivot] == (one if i == j else zero), (q, W.rows)


def test_a_line_scan_streams_its_rows():
    """At dim 1 there is no tail to list the first rows under, so the
    rows are streamed: the first line of F_2^16 is drawn without
    building the 2**15 rows of its pivot profile (about 6 MB as
    tuples)."""
    tracemalloc.start()
    try:
        W = next(enumerate_subspaces(F2, 16, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.rows == ((1,) + (0,) * 15,)
    assert peak < 1 << 20


def template_subspaces(ctx, ambient, dim):
    """(rows, pivots) of every echelon basis, each candidate's rows
    filled into a fresh list-of-lists template, in the order
    enumerate_subspaces must keep: one product over the free entries of
    rows 1, ..., dim - 1 and then row 0, so the first row varies
    fastest."""
    zero, one = ctx.zero, ctx.one
    for pivots in itertools.combinations(range(ambient), dim):
        free = [
            (i, j)
            for i in sorted(range(dim), key=lambda i: i == 0)
            for j in range(ambient)
            if j > pivots[i] and j not in pivots
        ]
        for filling in itertools.product(linalg.raw_scalars(ctx), repeat=len(free)):
            rows = [[zero] * ambient for _ in range(dim)]
            for i in range(dim):
                rows[i][pivots[i]] = one
            for (i, j), val in zip(free, filling):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows), pivots


@pytest.mark.parametrize(
    "q, ambient, dim", ((2, 6, 3), (3, 4, 2), (4, 4, 2), (8, 3, 1), (2, 5, 0), (2, 5, 5))
)
def test_enumerate_subspaces_matches_the_template_order(q, ambient, dim):
    ctx = field_from_order(q)
    got = [(W.rows, W.pivots) for W in enumerate_subspaces(ctx, ambient, dim)]
    assert got == list(template_subspaces(ctx, ambient, dim))


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
    with pytest.raises(BadArgs, match="6 is not a prime power"):
        gaussian_binomial(4, 2, 6)


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


# (m, q): the slot product exactly when q is prime and m * (q - 1)**2 < 256,
# so (2, 11) and (3, 3) take it and (2, 13) and (1, 17) do not; F_4 and
# F_8 on packed ints, F_9 on ctx.dot
NILPOTENT_CASES = [(m, q) for q in (2, 3, 4, 5, 7, 8, 9) for m in (1, 2)] + [
    (3, 2), (3, 3), (2, 11), (1, 13), (2, 13), (1, 17)]


@pytest.mark.parametrize("m, q", NILPOTENT_CASES)
def test_the_packed_nilpotent_test_matches_matrix_powers(monkeypatch, m, q):
    """The packed T ** m == 0 against Matrix.__pow__ on every m x m
    matrix, in enumerate_matrices order, over a random modulus, and the
    kernel it takes for its m - 1 products."""
    ctx = random_base(q, random.Random(f"nilpotent/{m},{q}"))
    entered = set()
    for name in ("_packed_product", "_slot_product", "_product"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, name=name, kernel=kernel, **k:
                            entered.add(name) or kernel(*a, **k))
    zero = Matrix.zero(ctx, m, m)
    verdicts = list(linalg._nilpotent_verdicts(ctx, m))
    monkeypatch.undo()
    assert verdicts == [mat**m == zero for mat in enumerate_matrices(ctx, m, m)]
    assert sum(verdicts) == q ** (m * (m - 1))
    p = ctx.p
    kernel = ("_packed_product" if p == 2 else
              "_slot_product" if ctx.e == 1 and m * (p - 1) ** 2 < 256 else "_product")
    assert entered == (set() if m == 1 else {kernel})


def test_the_nilpotent_scan_builds_no_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a Matrix was built")

    monkeypatch.setattr(linalg, "Matrix", no_matrix)
    for m, q in ((3, 2), (2, 3), (2, 4), (2, 9)):
        assert count_nilpotent(m, q, "brute") == q ** (m * (m - 1))


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


def test_enumerate_matrices_count():
    assert sum(1 for _ in enumerate_matrices(F2, 2, 3)) == 2**6
    assert sum(1 for _ in enumerate_matrices(F3, 2, 2)) == 3**4

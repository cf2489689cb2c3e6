"""Dense linear algebra over finite field contexts.

Matrices hold raw context scalars and act on row vectors: a vector v is
mapped to v * M.  The independence test takes bare sequences of
coordinate tuples so that hot scanning loops can avoid Matrix objects;
over F_2 it switches to a bit-packed elimination.  rref gives the rank.

Subspaces are represented by their reduced row echelon basis, which is
unique, so SubspaceBasis equality is subspace equality and enumeration
by pivot profile visits every subspace exactly once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from . import config, fields, integers, polys
from .errors import (
    BadArgs,
    ContextMismatch,
    DimensionMismatch,
    IterationBoundExceeded,
    NotSquare,
    ShapeMismatch,
    Singular,
)


def raw_scalars(ctx) -> list:
    """All raw scalars of a context, in rank order."""
    return [e.raw for e in ctx.elements()]


class Matrix:
    """Immutable matrix of raw context scalars.  nrows may be zero,
    which represents the empty list of rows of a given width."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx, rows: Iterable[Sequence], ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeMismatch("rows of unequal length")
            if ncols is not None and ncols != width:
                raise ShapeMismatch(f"rows have {width} entries, expected {ncols}")
            ncols = width
        elif ncols is None:
            raise BadArgs("a matrix with no rows needs an explicit column count")
        elif ncols < 0:
            raise BadArgs("column count must be >= 0")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, ctx, nrows: int, ncols: int) -> Matrix:
        z = ctx.zero
        return cls(ctx, [(z,) * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ctx, n: int) -> Matrix:
        z, o = ctx.zero, ctx.one
        return cls(ctx, [tuple(o if i == j else z for j in range(n)) for i in range(n)], n)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _check(self, other: Matrix) -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different contexts")

    def __add__(self, other: Matrix) -> Matrix:
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix shapes differ")
        add = self.ctx.add
        return Matrix(
            self.ctx,
            [tuple(add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        neg = self.ctx.neg
        return Matrix(self.ctx, [tuple(neg(a) for a in r) for r in self.rows], self.ncols)

    def scale(self, c) -> Matrix:
        mul = self.ctx.mul
        return Matrix(self.ctx, [tuple(mul(c, a) for a in r) for r in self.rows], self.ncols)

    def __mul__(self, other: Matrix) -> Matrix:
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ctx = self.ctx
        zero = ctx.zero
        add, mul = ctx.add, ctx.mul
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for k, a in enumerate(row):
                if a == zero:
                    continue
                orow = other.rows[k]
                acc = [add(x, mul(a, b)) for x, b in zip(acc, orow)]
            out.append(tuple(acc))
        return Matrix(ctx, out, other.ncols)

    def __pow__(self, k: int) -> Matrix:
        if not self.is_square:
            raise NotSquare("only square matrices have powers")
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.ctx, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def transpose(self) -> Matrix:
        return Matrix(self.ctx, list(zip(*self.rows)) if self.rows else [], self.nrows)

    def trace(self):
        if not self.is_square:
            raise NotSquare("trace needs a square matrix")
        acc = self.ctx.zero
        for i in range(self.nrows):
            acc = self.ctx.add(acc, self.rows[i][i])
        return acc

    def det(self):
        if not self.is_square:
            raise NotSquare("determinant needs a square matrix")
        ctx = self.ctx
        zero = ctx.zero
        n = self.nrows
        work = [list(r) for r in self.rows]
        out = ctx.one
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != zero), None)
            if piv is None:
                return zero
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                out = ctx.neg(out)
            pval = work[col][col]
            out = ctx.mul(out, pval)
            pinv = ctx.inv(pval)
            prow = work[col]
            for r in range(col + 1, n):
                f = ctx.mul(work[r][col], pinv)
                if f == zero:
                    continue
                work[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[r], prow)]
        return out

    def inverse(self) -> Matrix:
        if not self.is_square:
            raise NotSquare("only square matrices can be inverted")
        n = self.nrows
        z, o = self.ctx.zero, self.ctx.one
        aug = [
            tuple(row) + tuple(o if i == j else z for j in range(n))
            for i, row in enumerate(self.rows)
        ]
        reduced, pivots = _rref_rows(self.ctx, aug, 2 * n)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise Singular("matrix is not invertible")
        return Matrix(self.ctx, [r[n:] for r in reduced], n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.ncols, self.rows))

    def __str__(self) -> str:
        def ent(x) -> str:
            if isinstance(x, int):
                return str(x)
            return "(" + ",".join(str(c) for c in x) + ")"

        return ";".join(",".join(ent(x) for x in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.ctx}: {self})"


def vec_mat(vec: Sequence, mat: Matrix) -> tuple:
    """Row vector times matrix."""
    if len(vec) != mat.nrows:
        raise ShapeMismatch(f"vector of length {len(vec)} times {mat.nrows}-row matrix")
    ctx = mat.ctx
    zero = ctx.zero
    add, mul = ctx.add, ctx.mul
    out = [zero] * mat.ncols
    for i, v in enumerate(vec):
        if v == zero:
            continue
        row = mat.rows[i]
        out = [add(x, mul(v, b)) for x, b in zip(out, row)]
    return tuple(out)


def rref(mat: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form of a matrix and its rank.

    The result has the same shape as the input; rows of zeros sink to
    the bottom.
    """
    reduced, pivots = _rref_rows(mat.ctx, mat.rows, mat.ncols)
    rank = len(pivots)
    zero_row = (mat.ctx.zero,) * mat.ncols
    rows = reduced + (zero_row,) * (mat.nrows - rank)
    return Matrix(mat.ctx, rows, mat.ncols), rank


def _rref_rows(ctx, rows: Iterable[Sequence], ncols: int | None = None):
    """Row-level reduced echelon form.  Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if ncols is None:
        if not work:
            raise BadArgs("cannot infer width of an empty row list")
        ncols = len(work[0])
    zero = ctx.zero
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        piv = next((r for r in range(top, len(work)) if work[r][col] != zero), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        pinv = ctx.inv(work[top][col])
        work[top] = [ctx.mul(pinv, x) for x in work[top]]
        prow = work[top]
        for r in range(len(work)):
            if r == top:
                continue
            f = work[r][col]
            if f == zero:
                continue
            work[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[r], prow)]
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def _pack_bits(row: Sequence[int]) -> int:
    v = 0
    for j, x in enumerate(row):
        if x:
            v |= 1 << j
    return v


def _is_bit_ctx(ctx, rows: list) -> bool:
    return getattr(ctx, "size", 0) == 2 and bool(rows) and isinstance(rows[0][0], int)


def rows_are_independent(ctx, rows: Iterable[Sequence]) -> bool:
    """Whether the given row vectors are linearly independent.  Stops at
    the first dependent row."""
    rows = list(rows)
    if not rows:
        return True
    if _is_bit_ctx(ctx, rows):
        basis: dict[int, int] = {}
        for r in rows:
            v = _pack_bits(r)
            while v:
                h = v.bit_length() - 1
                b = basis.get(h)
                if b is None:
                    basis[h] = v
                    break
                v ^= b
            if not v:
                return False
        return True
    zero = ctx.zero
    echelon: list[tuple[int, list]] = []
    for r in rows:
        v = list(r)
        for col, prow in echelon:
            c = v[col]
            if c != zero:
                v = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(v, prow)]
        lead = next((j for j, x in enumerate(v) if x != zero), None)
        if lead is None:
            return False
        pinv = ctx.inv(v[lead])
        echelon.append((lead, [ctx.mul(pinv, x) for x in v]))
    return True


class SubspaceBasis:
    """A subspace of the coordinate space ctx^ambient, held as its
    reduced row echelon basis.  Two SubspaceBasis objects are equal
    exactly when they describe the same subspace."""

    __slots__ = ("ctx", "ambient", "rows", "pivots")

    def __init__(self, ctx, ambient: int, rows, pivots):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(vec)} in ambient {self.ambient}")
        ctx = self.ctx
        zero = ctx.zero
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c != zero:
                v = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(v, row)]
        return all(x == zero for x in v)

    def vectors(self) -> Iterator[tuple]:
        """All vectors of the subspace (q ** dim of them)."""
        ctx = self.ctx
        zero = ctx.zero
        add, mul = ctx.add, ctx.mul
        scalars = raw_scalars(ctx)
        for coeffs in itertools.product(scalars, repeat=self.dim):
            v = [zero] * self.ambient
            for c, row in zip(coeffs, self.rows):
                if c == zero:
                    continue
                v = [add(x, mul(c, y)) for x, y in zip(v, row)]
            yield tuple(v)

    def matrix(self) -> Matrix:
        return Matrix(self.ctx, self.rows, self.ambient)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dim} of {self.ctx}^{self.ambient})"


def subspace_from_rows(ctx, ambient: int, rows: Iterable[Sequence]) -> SubspaceBasis:
    """Span of the given vectors as a canonical SubspaceBasis."""
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != ambient:
            raise DimensionMismatch(f"row of length {len(r)} in ambient {ambient}")
    if not rows:
        return SubspaceBasis(ctx, ambient, (), ())
    reduced, pivots = _rref_rows(ctx, rows, ambient)
    return SubspaceBasis(ctx, ambient, reduced, pivots)


def enumerate_subspaces(ctx, ambient: int, dim: int) -> Iterator[SubspaceBasis]:
    """All dim-dimensional subspaces of ctx^ambient, each exactly once,
    via reduced echelon bases grouped by pivot profile."""
    total = gaussian_binomial(ambient, dim, ctx.size)
    config.check_scan(total, "subspace scan")
    return _subspace_gen(ctx, ambient, dim)


def _subspace_gen(ctx, ambient: int, dim: int) -> Iterator[SubspaceBasis]:
    zero, one = ctx.zero, ctx.one
    scalars = raw_scalars(ctx)
    for pivots in itertools.combinations(range(ambient), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(ambient)
            if j > pivots[i] and j not in pivot_set
        ]
        for filling in itertools.product(scalars, repeat=len(free)):
            rows = [[zero] * ambient for _ in range(dim)]
            for i in range(dim):
                rows[i][pivots[i]] = one
            for (i, j), val in zip(free, filling):
                rows[i][j] = val
            yield SubspaceBasis(ctx, ambient, tuple(tuple(r) for r in rows), pivots)


def enumerate_matrices(ctx, nrows: int, ncols: int) -> Iterator[Matrix]:
    """All nrows x ncols matrices over the context (q ** (nrows*ncols))."""
    scalars = raw_scalars(ctx)
    for flat in itertools.product(scalars, repeat=nrows * ncols):
        rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        yield Matrix(ctx, rows, ncols)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over
    a field with q elements."""
    if q < 2:
        raise BadArgs(f"q must be at least 2, got {q}")
    if k < 0 or k > n:
        raise BadArgs(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(m: int, q: int) -> int:
    """Order of the group of invertible m x m matrices over F_q."""
    if m < 0:
        raise BadArgs(f"matrix size must be >= 0, got {m}")
    qm = q**m
    out = 1
    for i in range(m):
        out *= qm - q**i
    return out


def count_nilpotent(m: int, q: int, method: str = "closed") -> int:
    """Number of nilpotent m x m matrices over F_q, q a prime power.

    The closed route is q ** (m * (m - 1)); the brute route scans all
    q ** (m * m) matrices and tests T ** m == 0.
    """
    if m < 1:
        raise BadArgs(f"matrix size must be >= 1, got {m}")
    p, e = integers.prime_power_split(q)
    if method == "closed":
        return q ** (m * (m - 1))
    if method == "brute":
        ctx = fields.build_field(p, e)
        config.check_scan(q ** (m * m), "matrix scan")
        zero_mat = Matrix.zero(ctx, m, m)
        return sum(1 for mat in enumerate_matrices(ctx, m, m) if mat**m == zero_mat)
    raise BadArgs(f"unknown method {method!r}")


def char_poly(mat: Matrix) -> polys.Poly:
    """Characteristic polynomial det(x*I - M), monic, by a division-free
    expansion over principal trailing submatrices."""
    if not mat.is_square:
        raise NotSquare("characteristic polynomial needs a square matrix")
    ctx = mat.ctx
    n = mat.nrows
    if n == 0:
        return polys.Poly.one(ctx)
    A = mat.rows
    zero = ctx.zero
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    # Leading-first coefficient vector for the 1x1 trailing submatrix.
    coeffs: list = [ctx.one, neg(A[n - 1][n - 1])]
    for k in range(2, n + 1):
        i0 = n - k
        a = A[i0][i0]
        row = A[i0][i0 + 1 :]
        col = tuple(A[i][i0] for i in range(i0 + 1, n))
        sub_rows = [A[i][i0 + 1 :] for i in range(i0 + 1, n)]
        s: list = [ctx.one, neg(a)]
        v = col
        for t in range(2, k + 1):
            dot = zero
            for x, y in zip(row, v):
                if x != zero and y != zero:
                    dot = add(dot, mul(x, y))
            s.append(neg(dot))
            if t < k:
                v = tuple(
                    _dot(ctx, srow, v) for srow in sub_rows
                )
        new = []
        for i in range(k + 1):
            acc = zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                sv = s[i - j]
                cv = coeffs[j]
                if sv != zero and cv != zero:
                    acc = add(acc, mul(sv, cv))
            new.append(acc)
        coeffs = new
    return polys.Poly(ctx, tuple(reversed(coeffs)))


def _dot(ctx, xs: Sequence, ys: Sequence):
    zero = ctx.zero
    acc = zero
    for x, y in zip(xs, ys):
        if x != zero and y != zero:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def companion_matrix(f: polys.Poly) -> Matrix:
    """Companion matrix of a monic polynomial, in the row convention:
    its characteristic polynomial is f."""
    from .errors import DegreeZero, NotMonic

    if f.is_zero or f.degree < 1:
        raise DegreeZero("companion matrix needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("companion matrix needs a monic polynomial")
    ctx = f.ctx
    m = f.degree
    z = ctx.zero
    rows = []
    for i in range(m):
        row = [z] * m
        if i >= 1:
            row[i - 1] = ctx.one
        row[m - 1] = ctx.neg(f.coeffs[i])
        rows.append(tuple(row))
    return Matrix(ctx, rows, m)


def matrix_order(mat: Matrix) -> int:
    """Multiplicative order of an invertible matrix.

    When the characteristic polynomial is irreducible the order is found
    by exponent dropping inside the cyclic group of size q**n - 1;
    otherwise powers are walked directly, capped by the process scan
    bound (IterationBoundExceeded past it).
    """
    if not mat.is_square:
        raise NotSquare("order needs a square matrix")
    n = mat.nrows
    ctx = mat.ctx
    if n == 0:
        return 1
    if mat.det() == ctx.zero:
        raise Singular("a singular matrix has no multiplicative order")
    f = char_poly(mat)
    if n == 1 or polys.is_irreducible(f):
        group = ctx.size**n - 1
        if group == 1:
            return 1
        factors = integers.factorize(group)
        return integers.order_from_factored(group, factors, lambda k: mat**k)
    ident = Matrix.identity(ctx, n)
    cap = config.scan_bound()
    power = mat
    order = 1
    while power != ident:
        power = power * mat
        order += 1
        if order > cap:
            raise IterationBoundExceeded(
                f"order exceeds {cap} iterations (raise it via SPLITLAB_SCAN_BOUND)"
            )
    return order

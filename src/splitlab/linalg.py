"""Dense linear algebra over finite field contexts.

Matrices hold raw context scalars and act on row vectors: a vector v is
mapped to v * M.  Products, vec_mat and char_poly take every entry as
one ctx.dot; powers square and multiply raw rows.  The order test of
lfsr.is_primitive_recurrence and the nilpotent census take their
products from one choice, _square_kernel: _packed_product over F_{2^e}
on rows packed into ints, _slot_product over small odd F_p, one big-int
multiply in byte slots, and _product elsewhere, the oracle of both.

Row reduction has one step, _echelon_insert, which extends an echelon
basis by more rows without changing it, so the splitting scan can
extend one basis by each of several candidate rows.  That is the
generic elimination over every field; the packed F_2 kernel of the
splitting scan is tested against it.  rows_are_independent runs on it,
taking bare sequences of coordinate tuples so that hot scanning loops
can avoid Matrix objects, and so does _rref_rows, under rref (which
gives the rank), Matrix.inverse and subspace_from_rows.  Its last part,
_reduced_echelon, also serves the splitting scan, which reduces an
echelon basis it already holds.  Matrix.det and
SubspaceBasis.contains keep their own loops, which run faster than the
insert step would.

Subspaces are represented by their reduced row echelon basis, which is
unique, so SubspaceBasis equality is subspace equality and enumeration
by pivot profile visits every subspace exactly once.

One group action serves the recurrence scans up to conjugation.
_conjugations maps X -> P X P**-1 on the indices of M_m(F_q), over every
field one byte-lane sum of per-digit images per matrix, and _orbits
finds the orbits of any subgroup of those maps, each with its least
index and its stabilizer.  conjugacy_classes is one orbit pass of
GL_m(F_q) modulo the scalars; the orbit walk of lfsr goes on below each
class with the same maps.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, Sequence

from . import config, fields, integers, polys
from .errors import (
    BadArgs,
    ContextMismatch,
    DimensionMismatch,
    NotSquare,
    ShapeMismatch,
    Singular,
    SizeExceeded,
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

    def __mul__(self, other: Matrix) -> Matrix:
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        rows = _product(self.ctx, self.rows, other.rows, other.ncols)
        return Matrix(self.ctx, rows, other.ncols)

    def __pow__(self, k: int) -> Matrix:
        """Square-and-multiply on raw rows, one Matrix at the end."""
        if not self.is_square:
            raise NotSquare("only square matrices have powers")
        if k < 0:
            return self.inverse() ** (-k)
        ctx, n = self.ctx, self.nrows
        base = self.rows
        step = functools.partial(_product, ctx, ncols=n)
        result = None
        while k:
            if k & 1:
                result = base if result is None else step(result, base)
            k >>= 1
            if k:
                base = step(base, base)
        if result is None:
            return Matrix.identity(ctx, n)
        return Matrix(ctx, result, n)

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
        reduced, pivots = _rref_rows(self.ctx, aug)
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
    return _product(mat.ctx, (vec,), mat.rows, mat.ncols)[0]


def _product(ctx, a_rows, b_rows, ncols: int) -> list[tuple]:
    """Rows of A * B from raw rows: B is transposed once and each entry
    is one ctx.dot of a row of A with a column of B."""
    cols = tuple(zip(*b_rows)) if b_rows else ((),) * ncols
    dot = ctx.dot
    return [tuple(dot(row, col) for col in cols) for row in a_rows]


def _packed_product(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """A * B over F_2 on rows packed into ints: row i of the product is
    the XOR of the rows of B at the set bits of row i of A."""
    out = []
    for a in a_rows:
        acc = 0
        while a:
            low = a & -a
            acc ^= b_rows[low.bit_length() - 1]
            a ^= low
        out.append(acc)
    return out


def _slot_product(mod_p: bytes, a_rows: list[bytes], b_rows: list[bytes]) -> list[bytes]:
    """A * B over F_p for an n x n B, on rows of residues held as bytes,
    with n * (p - 1)**2 < 256 and mod_p = integers.byte_residues(p): one
    big-int product.  With W = (2n - 1) * n, A[i][j] goes at byte
    i * W + j * n and B[j][k] at (n - 1 - j) * n + k, so every product
    A[i][j] * B[j][k] lands at byte i * W + (n - 1) * n + k, and the
    products of other pairs of entries land elsewhere in row i's W bytes.
    Each byte is a sum of at most n products below (p - 1)**2, so none
    carries, and one bytes.translate reduces them all: row i of A * B is
    n bytes from i * W + (n - 1) * n."""
    n = len(b_rows)
    W = (2 * n - 1) * n
    a = bytearray(len(a_rows) * W)
    for i, row in enumerate(a_rows):
        a[i * W : i * W + n * n : n] = row
    b = int.from_bytes(b"".join(reversed(b_rows)), "little")
    product = (int.from_bytes(a, "little") * b).to_bytes(len(a), "little").translate(mod_p)
    return [product[s : s + n] for s in range((n - 1) * n, len(a), W)]


def rref(mat: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form of a matrix and its rank.

    The result has the same shape as the input; rows of zeros sink to
    the bottom.
    """
    reduced, pivots = _rref_rows(mat.ctx, mat.rows)
    rank = len(pivots)
    zero_row = (mat.ctx.zero,) * mat.ncols
    rows = reduced + (zero_row,) * (mat.nrows - rank)
    return Matrix(mat.ctx, rows, mat.ncols), rank


def _rref_rows(ctx, rows: Iterable[Sequence]):
    """Row-level reduced echelon form.  Returns (nonzero rows, pivot columns).

    Each row is inserted into an echelon basis by _echelon_insert, and a
    row that depends on those before it is skipped; _reduced_echelon
    turns the basis into the reduced form.
    """
    echelon: list = []
    for r in rows:
        extended = _echelon_insert(ctx, echelon, (r,))
        if extended is not None:
            echelon = extended
    return _reduced_echelon(ctx, echelon)


def _reduced_echelon(ctx, echelon: Sequence[tuple[int, list]]):
    """(rows, pivot columns) of the reduced echelon form of the span of
    an echelon basis as _echelon_insert builds it, which is left as it
    is.  Sorted by leading column, every row is zero left of its pivot;
    clearing each pivot column from the rows above, last pivot first,
    makes the form reduced."""
    echelon = sorted(echelon, key=lambda entry: entry[0])
    zero, sub, mul = ctx.zero, ctx.sub, ctx.mul
    for k in range(len(echelon) - 1, 0, -1):
        col, prow = echelon[k]
        for i, (lead, row) in enumerate(echelon[:k]):
            c = row[col]
            if c != zero:
                echelon[i] = lead, [sub(x, mul(c, y)) for x, y in zip(row, prow)]
    return tuple(tuple(r) for _, r in echelon), tuple(col for col, _ in echelon)


def rows_are_independent(ctx, rows: Iterable[Sequence]) -> bool:
    """Whether the given row vectors are linearly independent.  Stops at
    the first dependent row."""
    return _echelon_insert(ctx, (), rows) is not None


def _echelon_insert(ctx, echelon: Sequence[tuple[int, list]], rows: Iterable[Sequence]):
    """The echelon basis of independent rows, extended by more rows: a
    new list of (leading column, row scaled to lead 1), or None at the
    first row that depends on those before it.  The given echelon is
    left as it is, so a caller can extend one basis several ways."""
    zero, sub, mul = ctx.zero, ctx.sub, ctx.mul
    echelon = list(echelon)
    for v in rows:
        for col, prow in echelon:
            c = v[col]
            if c != zero:
                v = [sub(x, mul(c, y)) for x, y in zip(v, prow)]
        for lead, x in enumerate(v):
            if x != zero:
                break
        else:
            return None
        pinv = ctx.inv(x)
        echelon.append((lead, [mul(pinv, y) for y in v]))
    return echelon


class SubspaceBasis(tuple):
    """A subspace of the coordinate space ctx^ambient, held as its
    reduced row echelon basis.  Two SubspaceBasis objects are equal
    exactly when they describe the same subspace.

    Underneath it is the tuple (ctx, ambient, rows, pivots), so a scan
    builds each candidate with one allocation.  Iterating it and `in`
    raise TypeError (W.contains tests membership), and it never equals
    a plain tuple."""

    __slots__ = ()

    ctx = property(operator.itemgetter(0))
    ambient = property(operator.itemgetter(1))
    rows = property(operator.itemgetter(2))
    pivots = property(operator.itemgetter(3))

    def __new__(cls, ctx, ambient: int, rows, pivots):
        return tuple.__new__(cls, (ctx, ambient, rows, pivots))

    def __iter__(self):
        raise TypeError("SubspaceBasis is not iterable; use .rows or .vectors()")

    def __contains__(self, vec):
        raise TypeError("use SubspaceBasis.contains(vec) to test membership")

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
        """All vectors of the subspace (q ** dim of them), in the order
        of itertools.product over the coefficients of the rows, the
        first coefficient varying slowest.  The span is built one row at
        a time from the row's multiples, taking the vector itself for
        coefficient 0 and the row itself for coefficient 1."""
        ctx = self.ctx
        zero, one, add, mul = ctx.zero, ctx.one, ctx.add, ctx.mul
        scalars = raw_scalars(ctx)
        span = [(zero,) * self.ambient]
        for row in self.rows:
            multiples = [
                None if c == zero else row if c == one else tuple(mul(c, y) for y in row)
                for c in scalars
            ]
            span = [v if r is None else tuple(map(add, v, r)) for v in span for r in multiples]
        return iter(span)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __ne__(self, other) -> bool:
        return not self == other

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
    reduced, pivots = _rref_rows(ctx, rows)
    return SubspaceBasis(ctx, ambient, reduced, pivots)


def enumerate_subspaces(ctx, ambient: int, dim: int) -> Iterator[SubspaceBasis]:
    """All dim-dimensional subspaces of ctx^ambient, each exactly once,
    via reduced echelon bases grouped by pivot profile.  Within a
    profile the rows run in product order with the first row varying
    fastest: rows[1:] (the tail) in itertools.product order, and under
    each tail every first row, whose free coordinates run in product
    order too.  The first row has the most free coordinates, so each
    tail carries the most candidates."""
    total = gaussian_binomial(ambient, dim, ctx.size)
    config.check_scan(total, "subspace scan")
    if dim == 0:
        return iter((SubspaceBasis(ctx, ambient, (), ()),))
    return _subspace_gen(ctx, ambient, dim)


def _subspace_gen(ctx, ambient: int, dim: int) -> Iterator[SubspaceBasis]:
    new = tuple.__new__
    zero, one = ctx.zero, ctx.one
    scalars = raw_scalars(ctx)

    def echelon_rows(p, pivots):
        free = [j for j in range(p + 1, ambient) if j not in pivots]
        row = [zero] * ambient
        row[p] = one
        for filling in itertools.product(scalars, repeat=len(free)):
            for j, val in zip(free, filling):
                row[j] = val
            yield tuple(row)

    for pivots in itertools.combinations(range(ambient), dim):
        # the first pivot's rows, the most numerous, vary fastest; they
        # are listed once per profile, or streamed when there is no tail
        firsts = echelon_rows(pivots[0], pivots)
        rest = [list(echelon_rows(p, pivots)) for p in pivots[1:]]
        if rest:
            firsts = list(firsts)
        for tail in itertools.product(*rest):
            for first in firsts:
                yield new(SubspaceBasis, (ctx, ambient, (first, *tail), pivots))


def enumerate_matrices(ctx, nrows: int, ncols: int) -> Iterator[Matrix]:
    """All nrows x ncols matrices over the context (q ** (nrows*ncols))."""
    scalars = raw_scalars(ctx)
    for flat in itertools.product(scalars, repeat=nrows * ncols):
        rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        yield Matrix(ctx, rows, ncols)


def conjugacy_classes(ctx, m: int) -> tuple[list, list, list[tuple[int, tuple]]]:
    """The conjugacy classes of M_m(F_q) under X -> P X P**-1, P in
    GL_m(F_q), as (mats, conj, classes): mats every m x m matrix in
    enumerate_matrices order, conj the conjugations on their indices by
    every P modulo the scalars, the P whose first nonzero entry is 1
    (_conjugations), and one (x, stabilizer) per class from one orbit
    pass of the whole group (_orbits).  x is the class's least index,
    classes come in the order of x, and the class size is
    len(conj) // len(stabilizer).  At m = 1 every matrix commutes with
    every P, so the group modulo the scalars is trivial: conj is the
    identity alone and no group is built.  ctx must be a FieldCtx, and
    at m > 1 the lanes of _conjugations must not carry.
    """
    if m < 1:
        raise BadArgs(f"matrix size must be >= 1, got {m}")
    if not isinstance(ctx, fields.FieldCtx):
        raise BadArgs(f"conjugacy classes need a FieldCtx, got {ctx!r}")
    config.check_scan(ctx.size ** (m * m), "conjugacy class scan")
    if m > 1 and ctx.e * m * m * (ctx.p - 1) > 255:
        raise SizeExceeded(f"conjugating M_{m}(F_{ctx.size}) needs e*m*m*(p-1) < 256")
    mats = list(enumerate_matrices(ctx, m, m))
    if m == 1:
        return mats, [lambda x: x], [(x, (0,)) for x in range(len(mats))]
    conj = _conjugations(ctx, m, [  # codes: zero is 0 and one is 1
        P for P in mats if next((x for row in P.rows for x in row if x), 0) == 1 and P.det()
    ])
    return mats, conj, _orbits(conj, tuple(range(len(conj))), len(mats))


def _conjugations(ctx, m: int, group: list) -> list:
    """X -> P X P**-1 on the indices of the m x m matrices in
    enumerate_matrices order, one map per invertible P in group.

    The map is F_p-linear on the base-p digits of an index, which are
    the digits of its matrix's entry codes.  digits[x] holds them one
    per byte, entry by entry and each code little-endian, and index maps
    those bytes back to x; both serve every map.  Entry (i, s) of the
    image of digit b of entry (r, c) set to d is P[i][r] * P**-1[c][s]
    times the code d * p**b, whose digits scaled[P[i][r]][P**-1[c][s]]
    lists for every (b, d).  Per map, images[t][d] packs the digits of
    that image for t = (r * m + c) * e + b, one byte lane each, so
    sum(map(getitem, images, digits[x])) holds every digit sum of the
    image of x, at most e * m * m * (p - 1) < 256 (conjugacy_classes
    checks it), and one bytes.translate reduces them modulo p."""
    p, e, mul = ctx.p, ctx.e, ctx.mul
    scalars = raw_scalars(ctx)
    code_digits = [bytes(integers.to_digits(c, p, e)) for c in scalars]
    scaled = [[tuple(code_digits[mul(mul(a, c), d * p**b)] for b in range(e) for d in range(p))
               for c in scalars] for a in scalars]
    digits = [b"".join(flat) for flat in itertools.product(code_digits, repeat=m * m)]
    index = {key: x for x, key in enumerate(digits)}
    mod_p = integers.byte_residues(p)
    getitem, size = operator.getitem, e * m * m

    def conjugation(P, P_inv):
        images = []
        for r in range(m):
            left = [scaled[row[r]] for row in P]
            for c in range(m):
                packed = [
                    int.from_bytes(b"".join(lanes), "little")
                    for lanes in zip(*[by[x] for by in left for x in P_inv[c]])
                ]
                images += [packed[b * p : b * p + p] for b in range(e)]
        return lambda x: index[
            sum(map(getitem, images, digits[x])).to_bytes(size, "little").translate(mod_p)
        ]

    return [conjugation(P.rows, P.inverse().rows) for P in group]


def _orbits(conj: list, stab: tuple, size: int) -> list[tuple[int, tuple]]:
    """(x, stabilizer of x in stab) for each orbit of the group stab (its
    indices into conj) on the matrix indices 0, ..., size - 1, x the
    orbit's least index: the images of x under stab are its orbit."""
    seen = bytearray(size)
    out = []
    for x in range(size):
        if seen[x]:
            continue
        fixing = []
        for g in stab:
            y = conj[g](x)
            seen[y] = 1
            if y == x:
                fixing.append(g)
        out.append((x, tuple(fixing)))
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over
    a field with q elements; q must be a prime power."""
    integers.prime_power_split(q)
    if k < 0 or k > n:
        raise BadArgs(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(m: int, q: int) -> int:
    """Order of the group of invertible m x m matrices over F_q, q a
    prime power."""
    integers.prime_power_split(q)
    if m < 0:
        raise BadArgs(f"matrix size must be >= 0, got {m}")
    qm = q**m
    out = 1
    for i in range(m):
        out *= qm - q**i
    return out


def count_nilpotent(m: int, q: int, method: str = "closed") -> int:
    """Number of nilpotent m x m matrices over F_q, q a prime power.

    The closed route is q ** (m * (m - 1)); the brute route tests
    T ** m == 0 on all q ** (m * m) matrices (_nilpotent_verdicts).
    """
    if m < 1:
        raise BadArgs(f"matrix size must be >= 1, got {m}")
    p, e = integers.prime_power_split(q)
    if method == "closed":
        return q ** (m * (m - 1))
    if method == "brute":
        ctx = fields.build_field(p, e)
        config.check_scan(q ** (m * m), "matrix scan")
        return sum(_nilpotent_verdicts(ctx, m))
    raise BadArgs(f"unknown method {method!r}")


def _nilpotent_verdicts(ctx, m: int) -> Iterator[bool]:
    """Whether T ** m == 0, for every m x m matrix T over a FieldCtx in
    enumerate_matrices order.  Each row is packed once by the square
    kernel (_square_kernel), each matrix is the list of its packed rows,
    and its m-th power takes m - 1 products; no Matrix is built."""
    pack, times = _square_kernel(ctx, m)
    rows = [pack([row]) for row in itertools.product(raw_scalars(ctx), repeat=m)]
    zero = pack([(ctx.zero,) * m] * m)
    for choice in itertools.product(rows, repeat=m):
        T = [x for row in choice for x in row]
        power = T
        for _ in range(m - 1):
            power = times(power, T)
        yield power == zero


def _square_kernel(ctx, n: int):
    """(pack, times) for the n x n matrices over a context: pack(rows) is
    a list of raw rows in the kernel's form, and times(A, B) the packed
    rows of A * B for packed rows A and a packed n x n matrix B.  Row 0
    of the packed identity is the packed e_0.

    Over F_{2**e} a vector packs into one int, e bits a coordinate (the
    bits of its code), and v -> vB is F_2-linear on it: a matrix packs
    as the en rows y**b times row i of B, at e*i + b, y the class of the
    field's variable, and products are XORs of rows (_packed_product).
    Over F_p with n * (p - 1)**2 < 256 rows are bytes of residues and
    each product is one big-int multiply in byte slots that cannot carry
    (_slot_product).  Elsewhere rows stay raw and each entry is one
    ctx.dot (_product).  lfsr.is_primitive_recurrence and the nilpotent
    census take their products here."""
    if isinstance(ctx, fields.FieldCtx) and ctx.p == 2:
        e, mul, lshift, shifts = ctx.e, ctx.mul, operator.lshift, range(0, ctx.e * n, ctx.e)

        def pack(rows):
            if e > 1:
                rows = [[mul(1 << b, x) for x in row] for row in rows for b in range(e)]
            return [sum(map(lshift, row, shifts)) for row in rows]

        return pack, _packed_product
    if isinstance(ctx, fields.FieldCtx) and ctx.e == 1 and n * (ctx.p - 1) ** 2 < 256:
        return lambda rows: list(map(bytes, rows)), functools.partial(
            _slot_product, integers.byte_residues(ctx.p))
    return lambda rows: list(map(tuple, rows)), functools.partial(_product, ctx, ncols=n)


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
    neg, dot = ctx.neg, ctx.dot
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
            s.append(neg(dot(row, v)))
            if t < k:
                v = tuple(dot(srow, v) for srow in sub_rows)
        # new[i] = sum of coeffs[j] * s[i - j] over j <= min(i, k - 1),
        # with rs[k - i + j] = s[i - j]
        rs = s[::-1]
        coeffs = [dot(coeffs[: i + 1], rs[k - i :]) for i in range(k + 1)]
    return polys.Poly(ctx, tuple(reversed(coeffs)))


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

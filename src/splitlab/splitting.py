"""Splitting subspace counts and the closed forms they are checked against.

Fix a tower F_{q^{mn}} = F_q(alpha) and view it as the coordinate space
F_q^{mn}.  An m-dimensional subspace W splits the tower with respect to
alpha when the mn vectors alpha^j w_i (0 <= j < n, with w_1, ..., w_m a
basis of W) are linearly independent, i.e. when W, alpha W, ...,
alpha^{n-1} W together span everything with no overlap.  This is
T-splitting for T the matrix of multiplication by alpha, so a
SplitInstance holds the powers T^0, ..., T^(n-1) of that matrix and
every membership test and scan runs on them.  This module provides the membership test,
exhaustive counts over all subspaces, the ordered-basis variant, the
pointed refinement, the endomorphism variant, and the closed forms for
each.

The scan route is one walk: _verdicts takes the candidates, each a
tuple of rows, and yields whether each one splits.  The scans yield
candidates in product order over shared rows with the first row varying
fastest, so consecutive candidates mostly differ only in their first
row, the one with the most free coordinates: the walk groups them by
head, the rows after the first, builds one state per head in one call
from the translates of all its rows (rejecting at once every candidate
under a dependent head), and tests each first row against that state
with one call that leaves it as it is.  Every candidate is still
tested, once, and the subspace scans pull every one from
linalg.enumerate_subspaces.  Where the instance's T multiplies by a
generator, a scan can take only the subspaces through 1 = e_0 and
rescale (_count_through_one): multiplication by a nonzero element
commutes with T, so every nonzero point lies on as many splitting
subspaces as 1, and the count is that number times
(q^mn - 1)/(q^m - 1).  _steps picks the head and test steps once per
scan.  Over F_2 they are packed: a state is an int echelon basis,
one reduction loop builds and tests, and a row's translates are
bitmasks, one XOR of row images, kept per row value under a nonempty
head, unless the scan has one head.  Elsewhere a head's rows stack
their images under columns of the powers taken once per scan, once
per row value, into one linalg._echelon_insert, the generic
elimination the tests check the packed one against, and the head's
state is the columns of the quotient F_q^{mn}/U of its span U
(_quotient_columns), built once per live head: a tested row splits
exactly when its n translates are independent in that quotient, an
n x n matrix against those columns.  Over fields whose byte lanes
cannot carry (_lane_last) that matrix is one packed sum of per-head
lane tables.  Under a nonempty head it has full rank exactly when its
first n - 1 rows are independent and its last row lies outside their
span: one lookup of those rows' bytes in a memo kept per scan, which
gives the span as a set of digit-byte vectors, or None when the rows
are dependent, and one membership test of the last row's bytes
(_span_memos, each span built once, a row at a time).  Under the empty
head (m = 1) and under the one head (e_0,) of a scan through 1 at
m = 2, where those rows never repeat, and over wider fields and towers
the matrix is eliminated whole, and no memo is kept: the walk keeps a
memo only where its keys can repeat.
count_splitting, count_pointed, pointed_consistency, count_T_splitting,
weak_ssc_check and the direct ordered-basis route over every tuple
scan every subspace or tuple through the walk; the product
ordered-basis route, the fiber bridge's, scans the subspaces through 1,
as verify's SSC, LOWER_BOUND and M2_THEOREM do; is_alpha_splitting and
is_T_splitting answer through _splitter, the walk of one candidate.
The closed forms never call either.

Scan results are exact.  The splitting subspace count ssc_formula holds
for all (q, m, n) (Chen and Tseng, "The splitting subspace conjecture",
Finite Fields Appl. 24, 2013), and the other closed forms here follow
from it or were proved before, so a report carries its two routes and
nothing else, apart from the verdicts of count_splitting and
pointed_consistency.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import xor

from . import config, fields, integers, linalg, polys
from .errors import (
    BadArgs,
    ContextMismatch,
    DimensionMismatch,
    SingularMoebius,
    SplitLabError,
    ZeroBasePoint,
    ZeroDenominator,
    ZeroElement,
)


def _check_params(q: int, m: int, n: int) -> None:
    integers.prime_power_split(q)
    if m < 1 or n < 1:
        raise BadArgs(f"need m >= 1 and n >= 1, got m={m}, n={n}")


def ssc_formula(q: int, m: int, n: int) -> int:
    """Closed form for the number of m-dimensional splitting subspaces
    of F_q^{mn}: (q**(mn) - 1) / (q**m - 1) * q**(m*(m-1)*(n-1))."""
    _check_params(q, m, n)
    mn = m * n
    lead = (q**mn - 1) // (q**m - 1)
    return lead * q ** (m * (m - 1) * (n - 1))


def splitting_lower_bound(q: int, m: int, n: int) -> int:
    """Proved lower bound (q**(mn) - 1) / (q**m - 1) on the number of
    m-dimensional splitting subspaces."""
    _check_params(q, m, n)
    return (q ** (m * n) - 1) // (q**m - 1)


def pointed_formula(q: int, m: int, n: int) -> int:
    """Closed form q**(m*(m-1)*(n-1)) for the number of splitting
    subspaces through a fixed nonzero point."""
    _check_params(q, m, n)
    return q ** (m * (m - 1) * (n - 1))


def bases_formula(q: int, m: int, n: int) -> int:
    """Closed form for the number of ordered m-tuples whose stacked
    power-translates form a basis: the subspace count times |GL_m|."""
    return ssc_formula(q, m, n) * linalg.gl_order(m, q)


def nobases_formula(q: int, n: int) -> int:
    """Proved count of splitting-basis pairs at m = 2:
    (q**(2n) - q**(2n-1)) * (q**(2n) - 1)."""
    _check_params(q, 2, n)
    return (q ** (2 * n) - q ** (2 * n - 1)) * (q ** (2 * n) - 1)


def m2_subtraction(q: int) -> int:
    """The m = n = 2 count as a difference of subspace counts: all
    planes of a 4-dimensional space minus one plane per line."""
    return linalg.gaussian_binomial(4, 2, q) - linalg.gaussian_binomial(4, 1, q)


def multiplication_matrix(tower: fields.TowerCtx, gamma: fields.FieldElement) -> linalg.Matrix:
    """Matrix of multiplication by gamma in the coordinate basis
    1, alpha, ..., alpha^(d-1); row vectors act as v |-> v * M."""
    if gamma.ctx != tower:
        raise ContextMismatch("element does not belong to the given tower")
    alpha_raw = tower.alpha.raw
    rows = []
    power = tower.one
    for _ in range(tower.d):
        rows.append(tower.mul(gamma.raw, power))
        power = tower.mul(power, alpha_raw)
    return linalg.Matrix(tower.base, rows, tower.d)


def transform_subspace(
    tower: fields.TowerCtx, beta: fields.FieldElement, W: linalg.SubspaceBasis
) -> linalg.SubspaceBasis:
    """Image of a subspace of the coordinate space under multiplication
    by a nonzero tower element."""
    if beta.ctx != tower:
        raise ContextMismatch("element does not belong to the given tower")
    if beta.is_zero:
        raise ZeroElement("multiplication by zero collapses every subspace")
    mat = multiplication_matrix(tower, beta)
    rows = [linalg.vec_mat(r, mat) for r in W.rows]
    return linalg.subspace_from_rows(tower.base, tower.d, rows)


def _powers(T: linalg.Matrix, m: int, n: int) -> tuple[linalg.Matrix, ...]:
    """T^0, ..., T^(n-1), after checking that T is an endomorphism of
    the mn-dimensional coordinate space."""
    if not T.is_square:
        raise DimensionMismatch("T must be square")
    if m < 1 or n < 1:
        raise BadArgs(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if T.nrows != m * n:
        raise DimensionMismatch(f"T is {T.nrows}x{T.ncols}, expected {m * n}")
    out = [linalg.Matrix.identity(T.ctx, T.nrows), T]
    while len(out) < n:
        out.append(out[-1] * T)
    return tuple(out[:n])


def _check_subspace(ctx, W: linalg.SubspaceBasis, m: int, n: int) -> None:
    if W.ctx != ctx:
        raise ContextMismatch("subspace lives over a different field than T")
    if W.ambient != m * n or W.dim != m:
        raise DimensionMismatch(
            f"subspace is {W.dim}-dimensional in ambient {W.ambient}, "
            f"expected {m} in {m * n}"
        )


def _splitter(ctx, powers):
    """The one-call test splits(rows) -> bool: whether the rows and
    their images rows * T^k under powers = (T^0, ..., T^(n-1)) are
    independent.  is_alpha_splitting and is_T_splitting answer through
    it, as do the tests for calls of any length: a call is one
    candidate walked by _verdicts, and a call with no rows splits."""

    def splits(rows) -> bool:
        rows = tuple(map(tuple, rows))
        return not rows or next(_verdicts(ctx, powers, (rows,)))

    return splits


def _verdicts(ctx, powers, candidates, one_head=False):
    """Yield, for each candidate in turn (a tuple of rows, each a tuple
    of raw scalars), whether its rows and their translates under
    powers = (T^0, ..., T^(n-1)) are independent.  Every candidate is
    tested, once.

    The scans yield candidates in product order over shared rows with
    the first row varying fastest, so consecutive candidates mostly
    differ only in their first row.  The walk groups them by head, the
    rows after the first, and builds each head's state once with
    head_state of _steps, from the translates of all its rows.  Under a
    live head every first row, the widest one, is one call of the test
    last(state) builds, which leaves the state as it is; under a dead
    head, whose state is None, every candidate is rejected without a
    test.  Row order never changes a verdict.  one_head says that every
    candidate of the scan shares one head, so that no tested row and no
    quotient prefix repeats: _steps then keeps no memo of either."""
    head_state, last = _steps(ctx, powers, one_head)
    for head, group in itertools.groupby(candidates, operator.itemgetter(slice(1, None))):
        state = head_state(head)
        if state is None:
            for _ in group:
                yield False
        else:
            yield from map(last(state), map(operator.itemgetter(0), group))


def _steps(ctx, powers, one_head):
    """(head_state, last) for _verdicts, built once per scan: the one
    place the scan route stacks translates.  head_state(head) returns
    the state of a head's rows, built in one call from the n translates
    of each, or None when they are dependent.  last(state) returns the
    test row -> bool of whether a row's translates are independent of
    the head, which the test leaves as it is; the walk builds the state
    of a candidate's rows after the first and tests the first, which
    varies fastest in a scan.

    Over F_2 a state is an int echelon basis, pivots[h] having leading
    bit h - 1.  images[j] stacks e_j T^0, ..., e_j T^(n-1) as bitmasks
    (e_j T^k from bit k*width), so a row's n translates are one XOR of
    the images at its nonzero coordinates, split once per row value and
    kept for the scan, but not under the empty head (m = 1) nor in a
    scan with one head, whose tested rows never repeat.  One reduction
    loop builds and tests: it reduces vectors into a copy of a basis,
    the empty one for a head and the head's for a tested row.

    Elsewhere a state is the columns _quotient_columns gives for the
    head's span U, after one linalg._echelon_insert, the generic
    elimination the tests check the packed one against, of the head's
    rows and their images w * T^k, each entry one ctx.dot of w with a
    column of T^k taken once per scan, stacked once per row value and
    kept for the scan, as over F_2.  A row's translates are
    independent of U exactly when their images in the quotient
    F_q^width / U are, the n x d matrix of entries ctx.dot(w, col), one
    row per translate, d = width - dim U.  Under a scan's head d = n.
    Over a field whose lane sums cannot carry, _lane_last computes that
    matrix as one packed sum and, under a nonempty head, tests its last
    row against the memoized span of its first n - 1 rows; over other
    fields and over towers each row costs n * d dots, and there, under
    the empty head and in a scan with one head one elimination of the
    matrix."""
    width, n = powers[0].nrows, len(powers)
    if not (isinstance(ctx, fields.FieldCtx) and ctx.size == 2):
        dot = ctx.dot
        columns = [tuple(zip(*P.rows)) for P in powers[1:]]

        translates = _Table(lambda w: (w, *([dot(w, col) for col in cols] for cols in columns)))

        def head_state(head):
            stacked = itertools.chain.from_iterable(map(translates.__getitem__, head))
            echelon = linalg._echelon_insert(ctx, (), stacked)
            return None if echelon is None else _quotient_columns(ctx, powers, echelon)

        if isinstance(ctx, fields.FieldCtx) and width * (ctx.p - 1) < 256:
            return head_state, _lane_last(ctx, powers, one_head)

        def last_generic(quotient):
            def splits(w) -> bool:
                images = ([dot(w, col) for col in cols] for cols in quotient)
                return linalg.rows_are_independent(ctx, images)

            return splits

        return head_state, last_generic
    images = tuple(
        sum(x << (k * width + i) for k, P in enumerate(powers) for i, x in enumerate(P.rows[j]))
        for j in range(width)
    )
    mask = (1 << width) - 1
    empty = [0] * (width + 1)

    def split(row):
        stack = reduce(xor, compress(images, row), 0)
        return tuple((stack >> (k * width)) & mask for k in range(n))

    memo = split if one_head else _Table(split).__getitem__

    def reduced(pivots, vectors):
        basis = pivots[:]
        for v in vectors:
            while v:
                h = v.bit_length()
                b = basis[h]
                if not b:
                    basis[h] = v
                    break
                v ^= b
            else:
                return None
        return basis

    def head_state(head):
        return reduced(empty, itertools.chain.from_iterable(map(memo, head)))

    def last(pivots):
        translates = memo if any(pivots) else split

        def splits(row) -> bool:
            return reduced(pivots, translates(row)) is not None

        return splits

    return head_state, last


def _quotient_columns(ctx, powers, echelon):
    """cols[k][l] for the subspace U spanned by an echelon basis (as
    linalg._echelon_insert builds it) and each column l without a pivot:
    the column whose ctx.dot with w is coordinate l of w * T^k reduced
    modulo U, powers = (T^0, ..., T^(n-1)).  cols[k][l] is T^k r_l for
    the reducers r_l of U (_reducers)."""
    dot = ctx.dot
    reducers = _reducers(ctx, echelon, powers[0].nrows)
    cols = [reducers]
    cols.extend([[dot(row, r) for row in P.rows] for r in reducers] for P in powers[1:])
    return cols


def _reducers(ctx, echelon, width: int) -> tuple:
    """r_l for the span U of an echelon basis (as
    linalg._echelon_insert builds it) and each column l without a pivot,
    in order: ctx.dot(v, r_l) is coordinate l of v reduced modulo U.

    With U's basis in reduced form, v reduced modulo U is v - sum of
    v[lead] * row, and its coordinate l is ctx.dot(v, r_l) for r_l with
    1 at l and -row[l] at each row's lead.  So v lies in U exactly when
    every ctx.dot(v, r_l) is zero."""
    zero, one, neg = ctx.zero, ctx.one, ctx.neg
    rows, leads = linalg._reduced_echelon(ctx, echelon)
    reducers = []
    for l in range(width):
        if l not in leads:
            r = [zero] * width
            r[l] = one
            for lead, row in zip(leads, rows):
                r[lead] = neg(row[l])
            reducers.append(tuple(r))
    return tuple(reducers)


class _Table(dict):
    """A dict that builds a missing value with build(key) and keeps it."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _lane_last(ctx, powers, one_head):
    """last(quotient) for the generic walk over a FieldCtx F_{p^e} with
    width * (p - 1) < 256, built once per scan, quotient a head's state:
    the columns _quotient_columns gives for its span.

    Codes add digit by digit modulo p, and the quotient matrix of a row
    w, entries ctx.dot(w, col) over those columns, is the sum over
    coordinates j of w[j] times coordinate j of each column.  Per head,
    lanes[j][c] packs the base-p digits of c times coordinate j of every
    column into one byte lane each, entry by entry and row by row, so
    sum(map(getitem, lanes, w)) holds every digit sum, at most width * (p - 1) < 256, and one bytes.translate
    reduces them modulo p: that is the matrix, n rows of d entries of e
    bytes.  It has independent rows exactly when its first n - 1 rows
    are independent and its last row lies outside their span, so under
    a nonempty head the test is one lookup of the bytes of those rows in
    the scan's span memo (_span_memos) and one membership test of the
    last row's bytes in the span it returns.  Under the empty head
    (m = 1) the first row is w itself, and in a scan with one head
    (one_head) every w is another row, so within such a scan no prefix
    repeats: there the n x d matrix is eliminated whole by
    linalg.rows_are_independent, which builds no span.  A head packs
    lanes[j][c] on first use, and digits and codes are converted on
    first use, so no table grows with q up front."""
    e, mul = ctx.e, ctx.mul
    width, n = powers[0].nrows, len(powers)
    getitem = operator.getitem
    mod_p = integers.byte_residues(ctx.p)
    digits, decode = _codec(ctx)
    memos = _span_memos(ctx, n)

    def last(quotient):
        d = len(quotient[0])
        size, cut = n * d * e, (n - 1) * d * e
        whole = one_head or d == width
        span_of = memos[d].__getitem__
        lanes = []
        for j in range(width):
            column = [col[j] for cols in quotient for col in cols]
            lanes.append(_Table(lambda c, column=column: int.from_bytes(
                b"".join([digits[mul(c, x)] for x in column]), "little")))

        def splits(w) -> bool:
            mat = sum(map(getitem, lanes, w)).to_bytes(size, "little").translate(mod_p)
            if whole:
                flat = decode(mat)
                return linalg.rows_are_independent(ctx, [flat[k * d : k * d + d] for k in range(n)])
            span = span_of(mat[:cut])
            return span is not None and mat[cut:] not in span

        return splits

    return last


def _codec(ctx):
    """(digits, decode) for a FieldCtx F_{p^e}: digits[c] is the bytes
    of the e base-p digits of code c, lowest first, and decode(chunk)
    the codes of a string of such digit bytes, e per code.  Each code
    and chunk is converted on first use."""
    p, e = ctx.p, ctx.e
    digits = _Table(lambda c: bytes(integers.to_digits(c, p, e)))
    code_of = _Table(lambda chunk: integers.from_digits(chunk, p))

    def decode(chunk):
        if e == 1:
            return chunk
        return [code_of[chunk[s : s + e]] for s in range(0, len(chunk), e)]

    return digits, decode


def _span_memos(ctx, n):
    """memos[d][prefix], built once per scan, for the n x d quotient
    matrices of _lane_last in digit bytes (_codec), prefix the bytes of
    a matrix's first n - 1 rows: their span, a frozenset of the digit
    bytes of its vectors, or None when those rows are dependent.  The
    matrix has independent rows exactly when the span is not None and
    the bytes of its last row are not in it.

    A miss builds its span one row at a time (_span) from the zero span
    through a table kept for the scan, extensions[span, row]: None when
    the row lies in the span, and otherwise the span with c * row added
    to each vector for every nonzero scalar c, digit sums reduced by one
    bytes.translate, as one shared copy of each distinct span.  So a
    scan builds at most sum_k [d, k]_q * q^d extensions per d, and the
    memo, at most q^((n - 1) d) entries per d, shares their spans."""
    e, q, mul = ctx.e, ctx.size, ctx.mul
    mod_p = integers.byte_residues(ctx.p)
    digits, decode = _codec(ctx)
    spans: dict = {}  # one copy of each span

    def extend(key):
        span, row = key
        if row in span:
            return None
        size, codes = len(row), decode(row)
        vectors = [int.from_bytes(v, "little") for v in span]
        out = set(span)
        for c in range(1, q):
            t = int.from_bytes(b"".join([digits[mul(c, x)] for x in codes]), "little")
            out.update([(v + t).to_bytes(size, "little").translate(mod_p) for v in vectors])
        out = frozenset(out)
        return spans.setdefault(out, out)

    extensions = _Table(extend)

    def memo(d):
        w = d * e
        zero = frozenset([bytes(w)])
        return _Table(lambda prefix: _span(
            extensions, zero, [prefix[k * w : k * w + w] for k in range(n - 1)]))

    return _Table(memo)


def _span(extensions, span, rows):
    """The span of span and rows, each row added through
    extensions[span, row] (_span_memos), or None when a row lies in the
    span of span and the rows before it."""
    for row in rows:
        span = extensions[span, row]
        if span is None:
            break
    return span


def _splitting_scan(ctx, powers, m: int):
    """The m-dimensional subspaces that split with respect to T, given
    powers = (T^0, ..., T^(n-1)), in scan order."""
    candidates, walked = itertools.tee(linalg.enumerate_subspaces(ctx, m * len(powers), m))
    return compress(candidates, _verdicts(ctx, powers, map(operator.attrgetter("rows"), walked)))


def _count_scan(ctx, powers, m: int) -> int:
    """The number of m-dimensional subspaces that split with respect to
    T, given powers = (T^0, ..., T^(n-1))."""
    candidates = linalg.enumerate_subspaces(ctx, m * len(powers), m)
    return sum(_verdicts(ctx, powers, map(operator.attrgetter("rows"), candidates)))


def _count_through_one(ctx, powers, m: int) -> int:
    """The number of m-dimensional subspaces that split with respect to
    T, given powers = (T^0, ..., T^(n-1)) for T the matrix of
    multiplication by a generator alpha of a tower, from a scan of the
    [mn - 1, m - 1]_q subspaces through 1 = e_0 alone.

    Multiplication by a nonzero beta of the tower commutes with alpha,
    so it maps the splitting subspaces through x to those through
    beta x: every nonzero point lies on the same number pi of them, and
    counting the pairs (nonzero point, splitting subspace) both ways
    gives pi * (q^mn - 1) / (q^m - 1).  A subspace holds e_0 exactly
    when it is <e_0> + W' for one (m - 1)-dimensional W' of coordinates
    1, ..., mn - 1: an echelon basis of linalg.enumerate_subspaces(ctx,
    mn - 1, m - 1) with a zero coordinate put in front of each row.  The
    walk takes (W' row 0, e_0, W' rows 1, ...), so e_0 leads every head
    and W''s widest row is the tested one; at m = 1 the one candidate
    is (e_0,).  At m = 2 the scan has one head, (e_0,), under which no
    tested row repeats, so the walk keeps no memo (one_head)."""
    width, q, zero = m * len(powers), ctx.size, ctx.zero
    e0 = (ctx.one,) + (zero,) * (width - 1)
    candidates = linalg.enumerate_subspaces(ctx, width - 1, m - 1)
    padded = (tuple((zero, *row) for row in W.rows) for W in candidates)
    through_one = ((*rows[:1], e0, *rows[1:]) for rows in padded)
    pointed = sum(_verdicts(ctx, powers, through_one, m <= 2))
    return pointed * (q**width - 1) // (q**m - 1)


class SplitInstance:
    """A concrete splitting problem: the tower, the shape (m, n), and
    the generator whose powers translate the candidate subspaces.
    mats holds T^0, ..., T^(n-1) for T the matrix of multiplication by
    the generator.

    Construction refuses an element that does not generate the tower,
    so every instance meets the closed forms' hypothesis.  The scans
    would still run for an element of degree d < mn over F_q: when
    d < n every stacked family is dependent and the count is 0, and for
    n <= d < mn the counts are census values, not closed forms (at
    (2,2,2) an element of F_4 gives 30, a generator 20).
    """

    __slots__ = ("tower", "m", "n", "alpha_elt", "mats")

    def __init__(
        self,
        tower: fields.TowerCtx,
        m: int,
        n: int,
        alpha_elt: fields.FieldElement | None = None,
    ):
        if not isinstance(tower, fields.TowerCtx):
            raise BadArgs("SplitInstance needs a tower extension context")
        if alpha_elt is None:
            alpha_elt = tower.alpha
        mats = _powers(multiplication_matrix(tower, alpha_elt), m, n)
        if not fields.generates(tower, alpha_elt):
            raise BadArgs("the chosen element does not generate the tower")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha_elt", alpha_elt)
        object.__setattr__(self, "mats", mats)

    def __setattr__(self, name, value):
        raise AttributeError("SplitInstance is immutable")

    @property
    def base(self) -> fields.FieldCtx:
        return self.tower.base

    @property
    def q(self) -> int:
        return self.tower.q

    @property
    def defining_literal(self) -> str:
        return ",".join(str(c) for c in self.tower.defining_poly.coeffs)

    @property
    def alpha_literal(self) -> str:
        return ",".join(str(c) for c in self.alpha_elt.coords)

    def __repr__(self) -> str:
        return (
            f"SplitInstance(q={self.q} m={self.m} n={self.n} "
            f"poly={self.defining_literal} alpha={self.alpha_literal})"
        )


def split_instance(
    q: int,
    m: int,
    n: int,
    *,
    defining_poly=None,
    element=None,
) -> SplitInstance:
    """Build a SplitInstance over F_q with the canonical (or given)
    defining polynomial and generator."""
    _check_params(q, m, n)
    base = fields.field_from_order(q)
    poly = defining_poly
    if poly is not None and not isinstance(poly, polys.Poly):
        poly = polys.Poly(base, poly)
    tower = fields.build_extension(base, m * n, poly)
    elem = element
    if elem is not None and not isinstance(elem, fields.FieldElement):
        elem = tower.element(elem)
    return SplitInstance(tower, m, n, elem)


def is_alpha_splitting(inst: SplitInstance, W: linalg.SubspaceBasis) -> bool:
    """Whether the m-dimensional subspace W splits the instance's tower
    with respect to its generator."""
    _check_subspace(inst.base, W, inst.m, inst.n)
    return _splitter(inst.base, inst.mats)(W.rows)


@dataclass(frozen=True)
class SplitCountReport:
    """Outcome of one splitting count, carrying both routes when run."""

    q: int
    m: int
    n: int
    defining_poly: str
    alpha: str
    brute: int | None
    formula: int
    verdict: str
    seconds: float


def _verdict(brute: int | None, formula: int) -> str:
    if brute is None:
        return "skipped"
    return "match" if brute == formula else "mismatch"


def count_splitting(inst: SplitInstance, *, formula_only: bool = False) -> SplitCountReport:
    """Count the m-dimensional splitting subspaces of the instance by
    exhaustive scan and compare with the closed form."""
    start = time.perf_counter()
    q, m, n = inst.q, inst.m, inst.n
    formula = ssc_formula(q, m, n)
    brute = None if formula_only else _count_scan(inst.base, inst.mats, inst.m)
    return SplitCountReport(
        q=q,
        m=m,
        n=n,
        defining_poly=inst.defining_literal,
        alpha=inst.alpha_literal,
        brute=brute,
        formula=formula,
        verdict=_verdict(brute, formula),
        seconds=time.perf_counter() - start,
    )


def count_pointed(inst: SplitInstance, x: fields.FieldElement) -> int:
    """Number of splitting subspaces containing the nonzero point x."""
    if x.ctx != inst.tower:
        raise ContextMismatch("base point does not belong to the instance's tower")
    if x.is_zero:
        raise ZeroBasePoint("the base point must be nonzero")
    coords = x.coords
    return sum(1 for W in _splitting_scan(inst.base, inst.mats, inst.m) if W.contains(coords))


@dataclass(frozen=True)
class PointedReport:
    """Histogram summary of splitting subspaces through each nonzero
    point, with the shared count and the identity tying it to the
    total."""

    q: int
    m: int
    n: int
    splitting_count: int
    uniform: bool
    common: int | None
    identity_holds: bool
    formula: int
    verdict: str


def _point_keys(ctx, m: int, width: int):
    """(points, zero) for the tally of pointed_consistency: points(W)
    gives one key per vector of an m-dimensional subspace W of
    ctx^width, the zero vector's among them, and zero is that key.

    Over a FieldCtx F_{p^e} with m * (p - 1) < 256 a key is the digit
    bytes of a vector (_codec).  The span of W's rows r_0, ..., r_(m-1)
    is one int of q**m slots of width * e bytes, the vector
    sum_i c_i * r_i in slot sum_i c_i * q**i.  placed[r_i, i] holds
    c * r_i in slot c * q**i for every nonzero scalar c, built once per
    row value and position, as _span_memos keeps c * row; others[i] has
    a 1 in every slot whose digit at i is 0, so their product adds
    c * r_i to every slot whose digit at i is c.  The span takes m
    products, each digit is a sum of at most m residues, below 256, and
    one bytes.translate reduces them all.  Elsewhere a key is a tuple
    of raw scalars from SubspaceBasis.vectors."""
    if not (isinstance(ctx, fields.FieldCtx) and m * (ctx.p - 1) < 256):
        return linalg.SubspaceBasis.vectors, (ctx.zero,) * width
    q, mul, size = ctx.size, ctx.mul, width * ctx.e
    bits, total = 8 * size, size * q**m
    mod_p = integers.byte_residues(ctx.p)
    digits, _ = _codec(ctx)
    spread = [sum(1 << bits * c * q**i for c in range(q)) for i in range(m)]
    others = [reduce(operator.mul, spread[:i] + spread[i + 1 :], 1) for i in range(m)]
    slots = [slice(s, s + size) for s in range(0, total, size)]

    def place(key):
        row, i = key
        return sum(
            int.from_bytes(b"".join([digits[mul(c, x)] for x in row]), "little") << bits * c * q**i
            for c in range(1, q)
        )

    placed = _Table(place)

    def points(W):
        span = sum(map(operator.mul, map(placed.__getitem__, zip(W.rows, range(m))), others))
        return map(span.to_bytes(total, "little").translate(mod_p).__getitem__, slots)

    return points, bytes(size)


def pointed_consistency(inst: SplitInstance) -> PointedReport:
    """Scan once, tally how many splitting subspaces pass through each
    nonzero point (_point_keys), and check uniformity against the closed
    form."""
    q, m, n = inst.q, inst.m, inst.n
    mn = m * n
    points, zero = _point_keys(inst.base, m, mn)
    hist: Counter = Counter()
    total = 0
    for W in _splitting_scan(inst.base, inst.mats, m):
        total += 1
        hist.update(points(W))
    del hist[zero]
    uniform = len(hist) == q**mn - 1 and len(set(hist.values())) == 1
    common = next(iter(hist.values())) if uniform else None
    identity_holds = uniform and total * (q**m - 1) == common * (q**mn - 1)
    formula = pointed_formula(q, m, n)
    verdict = "match" if identity_holds and common == formula else "mismatch"
    return PointedReport(
        q=q,
        m=m,
        n=n,
        splitting_count=total,
        uniform=uniform,
        common=common,
        identity_holds=identity_holds,
        formula=formula,
        verdict=verdict,
    )


def count_splitting_bases(inst: SplitInstance, method: str) -> int:
    """Number of ordered m-tuples (v_1, ..., v_m) of tower elements whose
    stacked power-translates form a basis of the coordinate space.

    The direct route scans all q**(m*n*m) tuples, the reference of
    SPLITANDBASES and NOBASES; the product route, the fiber bridge's,
    multiplies the subspace count by |GL_m| (each splitting subspace
    contributes one tuple per ordered basis), scanning only the
    subspaces through 1 and rescaling (_count_through_one).  The scan
    bound refuses a route, it never picks one.
    """
    if method not in {"direct", "product"}:
        raise BadArgs(f"unknown method {method!r}")
    q, m, n = inst.q, inst.m, inst.n
    if method == "product":
        return _count_through_one(inst.base, inst.mats, m) * linalg.gl_order(m, q)
    config.check_scan((q ** (m * n)) ** m, "ordered basis scan")
    vecs = [e.raw for e in inst.tower.elements()]
    # product varies the last position fastest; the walk tests the first
    tuples = ((t[-1], *t[:-1]) for t in itertools.product(vecs, repeat=m))
    return sum(_verdicts(inst.base, inst.mats, tuples))


def is_T_splitting(
    T: linalg.Matrix, W: linalg.SubspaceBasis, m: int, n: int
) -> bool:
    """Whether W splits the space with respect to the endomorphism T,
    i.e. the vectors w*T^j (0 <= j < n, w over a basis of W) are
    independent."""
    powers = _powers(T, m, n)
    _check_subspace(T.ctx, W, m, n)
    return _splitter(T.ctx, powers)(W.rows)


def count_T_splitting(T: linalg.Matrix, m: int, n: int) -> int:
    """Number of m-dimensional subspaces splitting with respect to T."""
    return _count_scan(T.ctx, _powers(T, m, n), m)


def endo_formula(p_T: polys.Poly) -> int:
    """Closed form for the number of 1-dimensional T-splitting subspaces
    of a cyclic endomorphism with minimal polynomial p_T: the polynomial
    totient of p_T divided by q - 1."""
    q = p_T.ctx.size
    phi = polys.q_totient(p_T, "closed")
    if phi % (q - 1):
        raise SplitLabError("internal: polynomial totient not divisible by q - 1")
    return phi // (q - 1)


@dataclass(frozen=True)
class MoebiusReport:
    """Comparison of splitting counts for a generator and its image
    under a fractional linear transform of a Frobenius power."""

    q: int
    m: int
    n: int
    transform: str
    beta: str
    left: int
    right: int


def weak_ssc_check(
    inst: SplitInstance,
    a: int,
    b: int,
    c: int,
    d: int,
    r: int,
) -> MoebiusReport:
    """Move the generator to beta = (a*alpha^(q^r) + b) / (c*alpha^(q^r) + d)
    for an invertible coefficient matrix and compare the two counts."""
    base = inst.base
    q = base.size
    for name, code in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not 0 <= code < q:
            raise BadArgs(f"coefficient {name}={code} is not a code in [0, {q})")
    if r < 0:
        raise BadArgs(f"Frobenius power must be >= 0, got {r}")
    det = base.sub(base.mul(a, d), base.mul(b, c))
    if det == base.zero:
        raise SingularMoebius("coefficient matrix (a b; c d) is singular")
    tower = inst.tower
    g = tower.frobenius(inst.alpha_elt.raw, base.e * r)

    def scaled(code: int, vec: tuple) -> tuple:
        return tuple(base.mul(code, x) for x in vec)

    num = tower.add(scaled(a, g), tower.embed_base(b))
    den = tower.add(scaled(c, g), tower.embed_base(d))
    if den == tower.zero:
        raise ZeroDenominator("transform denominator vanishes at this generator")
    beta = tower.element_from_raw(tower.div(num, den))
    other = SplitInstance(tower, inst.m, inst.n, beta)
    left = _count_scan(inst.base, inst.mats, inst.m)
    right = _count_scan(other.base, other.mats, other.m)
    return MoebiusReport(
        q=q,
        m=inst.m,
        n=inst.n,
        transform=f"a={a} b={b} c={c} d={d} r={r}",
        beta=",".join(str(x) for x in beta.coords),
        left=left,
        right=right,
    )

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

The scan route is one kernel: _splitter prepares, once per scan, the
test of a basis and its translates for independence, and _splitting_scan
runs it over every m-dimensional subspace.  The scans yield candidates
in product order over shared rows, so consecutive candidates mostly
differ only in their last row: the splitter keeps the echelon state
after each prefix of its previous call's rows (_prefix_splitter) and
inserts only the translates of the rows that changed, rejecting at once
a candidate whose shared prefix is already dependent.  Every candidate
is still tested.  Over F_2 the insert step is packed: rows are int
bitmasks and translates XORs of row images.  Elsewhere it stacks the
images under columns of the powers taken once per scan for
linalg._echelon_insert, the generic elimination the tests check the
packed one against, except for the last row that can fit: once the rows
before it have translates spanning U of dimension mn - n, a row splits
exactly when its n translates are independent in the n-dimensional
quotient F_q^{mn}/U, an n x n elimination against columns built once
per such prefix (_quotient_columns).  is_alpha_splitting and
is_T_splitting build a fresh splitter per call; the direct ordered-basis
scan keeps one per scan; count_splitting, count_pointed,
pointed_consistency, count_T_splitting, weak_ssc_check and the product
ordered-basis route, the fiber bridge's, count through _splitting_scan.
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
import time
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
    """The test splits(rows) -> bool: whether the rows and their images
    rows * T^k under powers = (T^0, ..., T^(n-1)) are independent, built
    once per scan.  The one place the scan route stacks translates.

    A row's step inserts its n translates into an echelon basis, and
    _prefix_splitter keeps the basis after each prefix of the previous
    call's rows, so a call redoes only the rows after the prefix it
    shares with the one before.  Rows are immutable tuples of raw
    scalars, as every scan passes them; the splitter keeps its own
    tuple of them and compares them by value.

    Over F_2 the step is packed: images[j] stacks e_j T^0, ...,
    e_j T^(n-1) as bitmasks (e_j T^k from bit k*width), so a row's n
    translates are one XOR of the images at its nonzero coordinates,
    each inserted into an int echelon basis (pivots[h] has leading bit
    h - 1) until one is dependent.

    Elsewhere a state is (echelon, quotient).  A row inserted into a
    basis of fewer than width - n rows stacks its images w * T^k, each
    entry one ctx.dot of w with a column of T^k taken once per scan, for
    linalg._echelon_insert, the generic elimination the tests check the
    packed one against.  A row inserted into a basis of exactly
    width - n rows, spanning U, is the last one that can fit: its
    translates are independent of U exactly when their images in the
    n-dimensional quotient F_q^width / U are.  quotient holds, built
    the first time a last row arrives and kept for every later one,
    the columns _quotient_columns gives for U, so the last row costs an
    n x n elimination of the entries ctx.dot(w, col), one row of them
    per translate, stopping at the first dependent one.  It leaves the
    state full, into which no row fits."""
    width, n = powers[0].nrows, len(powers)
    if not (isinstance(ctx, fields.FieldCtx) and ctx.size == 2):
        dot = ctx.dot
        columns = [tuple(zip(*P.rows)) for P in powers[1:]]
        last = width - n  # basis rows before the last row that can fit
        full = None, None  # the state after it, spanning everything

        def insert_generic(state, w):
            if state is full:
                return None
            echelon, quotient = state
            if len(echelon) != last:
                stacked = [w]
                stacked.extend([dot(w, col) for col in cols] for cols in columns)
                echelon = linalg._echelon_insert(ctx, echelon, stacked)
                return None if echelon is None else (echelon, [])
            if not quotient:
                quotient.append(_quotient_columns(ctx, powers, echelon))
            images = ([dot(w, col) for col in cols] for cols in quotient[0])
            return full if linalg.rows_are_independent(ctx, images) else None

        return _prefix_splitter(insert_generic, ((), []))
    images = tuple(
        sum(x << (k * width + i) for k, P in enumerate(powers) for i, x in enumerate(P.rows[j]))
        for j in range(width)
    )
    mask = (1 << width) - 1

    def insert_packed(pivots, row):
        pivots = pivots[:]
        stack = reduce(xor, compress(images, row), 0)
        for _ in range(n):
            v = stack & mask
            stack >>= width
            while v:
                h = v.bit_length()
                b = pivots[h]
                if not b:
                    pivots[h] = v
                    break
                v ^= b
            else:
                return None
        return pivots

    return _prefix_splitter(insert_packed, [0] * (width + 1))


def _quotient_columns(ctx, powers, echelon):
    """cols[k][l] for the subspace U spanned by an echelon basis (as
    linalg._echelon_insert builds it) and each column l without a pivot:
    the column whose ctx.dot with w is coordinate l of w * T^k reduced
    modulo U, powers = (T^0, ..., T^(n-1)).

    With U's basis in reduced form, v reduced modulo U is v - sum of
    v[lead] * row, and its coordinate l is ctx.dot(v, r_l) for r_l with
    1 at l and -row[l] at each row's lead.  cols[k][l] is T^k r_l."""
    zero, one, neg, dot = ctx.zero, ctx.one, ctx.neg, ctx.dot
    rows, leads = linalg._reduced_echelon(ctx, echelon)
    width = powers[0].nrows
    reducers = []
    for l in range(width):
        if l not in leads:
            r = [zero] * width
            r[l] = one
            for lead, row in zip(leads, rows):
                r[lead] = neg(row[l])
            reducers.append(tuple(r))
    cols = [reducers]
    cols.extend([[dot(row, r) for row in P.rows] for r in reducers] for P in powers[1:])
    return cols


def _prefix_splitter(insert, empty):
    """splits(rows) -> bool from one step insert(state, row), which
    returns the echelon state extended by the row's translates (leaving
    its argument as it is) or None when they make it dependent.

    The splitter remembers the rows of its previous call, prefix, and
    states[k], the state after prefix[:k].  When prefix is dead (its
    last row made the state dependent) states is one shorter than
    prefix.  A call finds the longest run of leading rows equal to
    prefix: if that run is the whole dead prefix it rejects at once,
    otherwise it inserts only the rows after the run."""
    prefix: tuple = ()
    states = [empty]

    def splits(rows) -> bool:
        nonlocal prefix
        rows = tuple(rows)
        k = 0
        for a, b in zip(rows, prefix):
            if a != b:
                break
            k += 1
        if k == len(states):
            return False
        del states[k + 1 :]
        state = states[k]
        for row in rows[k:]:
            state = insert(state, row)
            if state is None:
                prefix = rows[: len(states)]
                return False
            states.append(state)
        prefix = rows
        return True

    return splits


def _splitting_scan(ctx, powers, m: int):
    """Yield the m-dimensional subspaces that split with respect to T,
    given powers = (T^0, ..., T^(n-1))."""
    candidates = linalg.enumerate_subspaces(ctx, m * len(powers), m)
    splits = _splitter(ctx, powers)
    for W in candidates:
        if splits(W.rows):
            yield W


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


def _count_scan(inst: SplitInstance) -> int:
    return sum(1 for _ in _splitting_scan(inst.base, inst.mats, inst.m))


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
    brute = None if formula_only else _count_scan(inst)
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


def pointed_consistency(inst: SplitInstance) -> PointedReport:
    """Scan once, tally how many splitting subspaces pass through each
    nonzero point, and check uniformity against the closed form."""
    q, m, n = inst.q, inst.m, inst.n
    mn = m * n
    zero_vec = (inst.base.zero,) * mn
    hist: dict[tuple, int] = {}
    total = 0
    for W in _splitting_scan(inst.base, inst.mats, m):
        total += 1
        for v in W.vectors():
            if v != zero_vec:
                hist[v] = hist.get(v, 0) + 1
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
    multiplies the scanned subspace count by |GL_m| (each splitting
    subspace contributes one tuple per ordered basis).  The scan bound
    refuses a route, it never picks one.
    """
    if method not in {"direct", "product"}:
        raise BadArgs(f"unknown method {method!r}")
    q, m, n = inst.q, inst.m, inst.n
    if method == "product":
        return _count_scan(inst) * linalg.gl_order(m, q)
    config.check_scan((q ** (m * n)) ** m, "ordered basis scan")
    splits = _splitter(inst.base, inst.mats)
    vecs = [e.raw for e in inst.tower.elements()]
    return sum(1 for combo in itertools.product(vecs, repeat=m) if splits(combo))


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
    return sum(1 for _ in _splitting_scan(T.ctx, _powers(T, m, n), m))


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
    left = _count_scan(inst)
    right = _count_scan(other)
    return MoebiusReport(
        q=q,
        m=inst.m,
        n=inst.n,
        transform=f"a={a} b={b} c={c} d={d} r={r}",
        beta=",".join(str(x) for x in beta.coords),
        left=left,
        right=right,
    )

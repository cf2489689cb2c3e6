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

The scan route is one kernel: _splits stacks the translates of a basis
and tests them for independence, and _splitting_scan runs it over every
m-dimensional subspace.  is_alpha_splitting, is_T_splitting,
count_pointed and the direct ordered-basis scan call _splits;
count_splitting, pointed_consistency, count_T_splitting,
weak_ssc_check and sweep_generators count through _splitting_scan.
The closed forms never call either.

Scan results are exact.  Closed forms carry a status flag saying whether
the equality with the scan is proved at those parameters or currently
conjectural, so reports distinguish verification from evidence.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from . import config, fields, linalg, polys
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


def conjecture_status(m: int, n: int) -> str:
    """Whether the splitting count equals its closed form by proof at
    these parameters ("proved") or only conjecturally ("conjectural")."""
    return "proved" if m <= 2 or n <= 1 else "conjectural"


def _check_params(q: int, m: int, n: int) -> None:
    if q < 2:
        raise BadArgs(f"q must be at least 2, got {q}")
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


def _splits(ctx, steps, rows) -> bool:
    """Whether the rows and their images rows * P, for P over steps =
    (T^1, ..., T^(n-1)), are linearly independent.  The one place the
    scan route stacks translates."""
    stacked = list(rows)
    for P in steps:
        stacked.extend(linalg.vec_mat(w, P) for w in rows)
    return linalg.rows_are_independent(ctx, stacked)


def _splitting_scan(ctx, powers, m: int):
    """Yield the m-dimensional subspaces that split with respect to T,
    given powers = (T^0, ..., T^(n-1))."""
    steps = powers[1:]
    for W in linalg.enumerate_subspaces(ctx, m * len(powers), m):
        if _splits(ctx, steps, W.rows):
            yield W


class SplitInstance:
    """A concrete splitting problem: the tower, the shape (m, n), and
    the generator whose powers translate the candidate subspaces.
    mats holds T^0, ..., T^(n-1) for T the matrix of multiplication by
    the generator.

    The generator requirement is enforced at construction; an element
    lying in a proper subfield would make every stacked family dependent
    and the counts meaningless.
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

    def describe(self) -> str:
        return (
            f"q={self.q} m={self.m} n={self.n} "
            f"poly={self.defining_literal} alpha={self.alpha_literal}"
        )

    def __repr__(self) -> str:
        return f"SplitInstance({self.describe()})"


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
    return _splits(inst.base, inst.mats[1:], W.rows)


def _count_scan(inst: SplitInstance) -> int:
    return sum(1 for _ in _splitting_scan(inst.base, inst.mats, inst.m))


@dataclass(frozen=True)
class SplitCountReport:
    """Outcome of one splitting count, carrying both routes when run."""

    description: str
    q: int
    m: int
    n: int
    defining_poly: str
    alpha: str
    brute: int | None
    formula: int | None
    status: str
    verdict: str
    seconds: float
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "defining_poly": self.defining_poly,
            "alpha": self.alpha,
            "brute": self.brute,
            "formula": self.formula,
            "status": self.status,
            "verdict": self.verdict,
            "seconds": self.seconds,
        }


def _verdict(brute: int | None, formula: int | None) -> str:
    if formula is None:
        return "formula_unavailable"
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
    notes: tuple[str, ...] = ()
    if m == 2 and n == 2:
        notes = ("ambient dimension is 4; parameters are reported as (m, n) = (2, 2)",)
    return SplitCountReport(
        description=f"splitting subspaces [{inst.describe()}]",
        q=q,
        m=m,
        n=n,
        defining_poly=inst.defining_literal,
        alpha=inst.alpha_literal,
        brute=brute,
        formula=formula,
        status=conjecture_status(m, n),
        verdict=_verdict(brute, formula),
        seconds=time.perf_counter() - start,
        notes=notes,
    )


def count_pointed(inst: SplitInstance, x: fields.FieldElement) -> int:
    """Number of splitting subspaces containing the nonzero point x."""
    if x.ctx != inst.tower:
        raise ContextMismatch("base point does not belong to the instance's tower")
    if x.is_zero:
        raise ZeroBasePoint("the base point must be nonzero")
    coords = x.coords
    base = inst.base
    steps = inst.mats[1:]
    return sum(
        1
        for W in linalg.enumerate_subspaces(base, inst.m * inst.n, inst.m)
        if W.contains(coords) and _splits(base, steps, W.rows)
    )


@dataclass(frozen=True)
class PointedReport:
    """Histogram summary of splitting subspaces through each nonzero
    point, with the shared count and the identity tying it to the
    total."""

    description: str
    q: int
    m: int
    n: int
    splitting_count: int
    uniform: bool
    common: int | None
    identity_holds: bool
    formula: int
    status: str
    verdict: str
    seconds: float


def pointed_consistency(inst: SplitInstance) -> PointedReport:
    """Scan once, tally how many splitting subspaces pass through each
    nonzero point, and check uniformity against the closed form."""
    start = time.perf_counter()
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
        description=f"pointed splitting counts [{inst.describe()}]",
        q=q,
        m=m,
        n=n,
        splitting_count=total,
        uniform=uniform,
        common=common,
        identity_holds=identity_holds,
        formula=formula,
        status=conjecture_status(m, n),
        verdict=verdict,
        seconds=time.perf_counter() - start,
    )


def count_splitting_bases(inst: SplitInstance, method: str = "auto") -> int:
    """Number of ordered m-tuples (v_1, ..., v_m) of tower elements whose
    stacked power-translates form a basis of the coordinate space.

    The direct route scans all q**(m*n*m) tuples; the product route
    multiplies the scanned subspace count by |GL_m| (each splitting
    subspace contributes one tuple per ordered basis).  "auto" picks
    direct when it fits the process scan bound.
    """
    if method not in {"direct", "product", "auto"}:
        raise BadArgs(f"unknown method {method!r}")
    q, m, n = inst.q, inst.m, inst.n
    tuples = (q ** (m * n)) ** m
    if method == "auto":
        method = "direct" if tuples <= config.scan_bound() else "product"
    if method == "product":
        return _count_scan(inst) * linalg.gl_order(m, q)
    config.check_scan(tuples, "ordered basis scan")
    base = inst.base
    steps = inst.mats[1:]
    vecs = [e.raw for e in inst.tower.elements()]
    return sum(
        1 for combo in itertools.product(vecs, repeat=m) if _splits(base, steps, combo)
    )


def is_T_splitting(
    T: linalg.Matrix, W: linalg.SubspaceBasis, m: int, n: int
) -> bool:
    """Whether W splits the space with respect to the endomorphism T,
    i.e. the vectors w*T^j (0 <= j < n, w over a basis of W) are
    independent."""
    powers = _powers(T, m, n)
    _check_subspace(T.ctx, W, m, n)
    return _splits(T.ctx, powers[1:], W.rows)


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

    description: str
    q: int
    m: int
    n: int
    transform: str
    beta: str
    left: int
    right: int
    status: str
    verdict: str
    seconds: float


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
    start = time.perf_counter()
    beta = tower.element_from_raw(tower.div(num, den))
    other = SplitInstance(tower, inst.m, inst.n, beta)
    left = _count_scan(inst)
    right = _count_scan(other)
    return MoebiusReport(
        description=f"generator transform [{inst.describe()}]",
        q=q,
        m=inst.m,
        n=inst.n,
        transform=f"a={a} b={b} c={c} d={d} r={r}",
        beta=",".join(str(x) for x in beta.coords),
        left=left,
        right=right,
        status="proved",
        verdict="match" if left == right else "mismatch",
        seconds=time.perf_counter() - start,
    )


def sweep_generators(q: int, m: int, n: int, *, defining_poly=None) -> dict[int, int]:
    """Splitting count histogram over every generator of the tower:
    maps each observed count to how many generators attain it."""
    inst = split_instance(q, m, n, defining_poly=defining_poly)
    tower = inst.tower
    out: dict[int, int] = {}
    for beta in tower.elements():
        if beta.is_zero or not fields.generates(tower, beta):
            continue
        count = _count_scan(SplitInstance(tower, m, n, beta))
        out[count] = out.get(count, 0) + 1
    return dict(sorted(out.items()))

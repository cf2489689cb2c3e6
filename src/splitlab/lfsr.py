"""Vector recurrences with matrix coefficients and their censuses.

A block recurrence of shape (m, n) over F_q produces a sequence of
words s_0, s_1, ... in F_q^m from n initial words via

    s_{i+n} = s_i * C_0 + s_{i+1} * C_1 + ... + s_{i+n-1} * C_{n-1},

with m x m coefficient matrices C_j acting on row vectors.  The state
(s_i, ..., s_{i+n-1}) evolves by one big block companion matrix, so the
sequence is eventually periodic; it is purely periodic exactly when C_0
is invertible, and the recurrence is primitive when every nonzero
initial state cycles through all q**(mn) - 1 of them.

The censuses count primitive recurrences, either by scanning all
coefficient tuples or by closed form, and slice the scan by the
characteristic polynomial of the companion matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import config, fields, integers, linalg, polys, splitting
from .errors import (
    BadArgs,
    ContextMismatch,
    IterationBoundExceeded,
    NotIrreducible,
    NotMonic,
    ShapeMismatch,
    SplitLabError,
)

_HASH_STATE_LIMIT = 1 << 20


def _check_shape(m: int, n: int, q: int) -> None:
    if q < 2:
        raise BadArgs(f"q must be at least 2, got {q}")
    if m < 1 or n < 1:
        raise BadArgs(f"need m >= 1 and n >= 1, got m={m}, n={n}")


class BlockRecurrence:
    """A length-n recurrence on words of F_q^m with matrix coefficients."""

    __slots__ = ("ctx", "m", "n", "C")

    def __init__(self, ctx, m: int, C: Sequence[linalg.Matrix]):
        C = tuple(C)
        if m < 1:
            raise BadArgs(f"word length must be >= 1, got {m}")
        if not C:
            raise BadArgs("a recurrence needs at least one coefficient matrix")
        for mat in C:
            if not isinstance(mat, linalg.Matrix):
                raise BadArgs("coefficients must be Matrix objects")
            if mat.ctx != ctx:
                raise ContextMismatch("coefficient matrix over a different field")
            if mat.nrows != m or mat.ncols != m:
                raise ShapeMismatch(
                    f"coefficient is {mat.nrows}x{mat.ncols}, expected {m}x{m}"
                )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", len(C))
        object.__setattr__(self, "C", C)

    def __setattr__(self, name, value):
        raise AttributeError("BlockRecurrence is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockRecurrence)
            and self.ctx == other.ctx
            and self.m == other.m
            and self.C == other.C
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.m, self.C))

    def __repr__(self) -> str:
        mats = " | ".join(str(mat) for mat in self.C)
        return f"BlockRecurrence(m={self.m}, n={self.n} over {self.ctx}: {mats})"


def _check_state(rec: BlockRecurrence, state) -> tuple[tuple, ...]:
    words = tuple(tuple(w) for w in state)
    if len(words) != rec.n or any(len(w) != rec.m for w in words):
        raise ShapeMismatch(
            f"state must be {rec.n} words of length {rec.m}, got {words!r}"
        )
    return words


def step(rec: BlockRecurrence, state) -> tuple[tuple, ...]:
    """Advance the state (s_i, ..., s_{i+n-1}) by one word."""
    words = _check_state(rec, state)
    ctx = rec.ctx
    add = ctx.add
    new = (ctx.zero,) * rec.m
    for word, mat in zip(words, rec.C):
        term = linalg.vec_mat(word, mat)
        new = tuple(add(x, y) for x, y in zip(new, term))
    return words[1:] + (new,)


def simulate(rec: BlockRecurrence, init, count: int) -> list[tuple]:
    """The first `count` words s_0, ..., s_{count-1} of the sequence."""
    if count < 0:
        raise BadArgs(f"word count must be >= 0, got {count}")
    state = _check_state(rec, init)
    out = list(state[:count])
    while len(out) < count:
        state = step(rec, state)
        out.append(state[-1])
    return out


@dataclass(frozen=True)
class PeriodReport:
    """Eventual period structure of one trajectory: s_{i+period} = s_i
    for all i >= preperiod, with both parameters minimal."""

    preperiod: int
    period: int

    def __post_init__(self):
        if self.period < 1 or self.preperiod < 0:
            raise BadArgs(
                f"need period >= 1 and preperiod >= 0, "
                f"got {self.period} and {self.preperiod}"
            )

    @property
    def periodic(self) -> bool:
        return self.preperiod == 0


def period_preperiod(rec: BlockRecurrence, init) -> PeriodReport:
    """Minimal preperiod and period of the trajectory from init.

    Small state spaces are walked once with a position table; larger
    ones fall back to Brent's cycle finding, which needs no memory but
    may take preperiod + 2*period steps.
    """
    state = _check_state(rec, init)
    bound = config.scan_bound()
    size = rec.ctx.size ** (rec.m * rec.n)
    if size <= min(_HASH_STATE_LIMIT, bound):
        seen: dict[tuple, int] = {}
        x = state
        i = 0
        while x not in seen:
            seen[x] = i
            x = step(rec, x)
            i += 1
        mu = seen[x]
        return PeriodReport(preperiod=mu, period=i - mu)

    steps = 0

    def advance(s):
        nonlocal steps
        steps += 1
        if steps > bound:
            raise IterationBoundExceeded(
                f"cycle search exceeded {bound} steps (raise it via SPLITLAB_SCAN_BOUND)"
            )
        return step(rec, s)

    power = lam = 1
    tortoise = state
    hare = advance(state)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = advance(hare)
        lam += 1
    tortoise = hare = state
    for _ in range(lam):
        hare = advance(hare)
    mu = 0
    while tortoise != hare:
        tortoise = advance(tortoise)
        hare = advance(hare)
        mu += 1
    return PeriodReport(preperiod=mu, period=lam)


def block_companion(rec: BlockRecurrence) -> linalg.Matrix:
    """The (mn) x (mn) state update matrix: flattened states evolve by
    S_{i+1} = S_i * T.  Block row 0 holds C_0 in the last block column;
    block row j >= 1 holds an identity in block column j - 1 and C_j in
    the last block column."""
    ctx, m, n = rec.ctx, rec.m, rec.n
    mn = m * n
    last = (n - 1) * m
    rows = [[ctx.zero] * mn for _ in range(mn)]
    for j, mat in enumerate(rec.C):
        for r in range(m):
            row = rows[j * m + r]
            if j > 0:
                row[(j - 1) * m + r] = ctx.one
            for c in range(m):
                row[last + c] = mat.rows[r][c]
    return linalg.Matrix(ctx, rows, mn)


def _states(ctx, m: int, n: int) -> Iterator[tuple[tuple, ...]]:
    scalars = linalg.raw_scalars(ctx)
    for flat in itertools.product(scalars, repeat=m * n):
        yield tuple(flat[j * m : (j + 1) * m] for j in range(n))


def is_primitive_recurrence(rec: BlockRecurrence, method: str = "order") -> bool:
    """Whether every nonzero initial state is purely periodic with the
    full period q**(mn) - 1.

    The order route tests that the block companion matrix has maximal
    multiplicative order; the definitional route walks every nonzero
    trajectory.  The two must agree.
    """
    ctx = rec.ctx
    q = ctx.size
    mn = rec.m * rec.n
    N = q**mn - 1
    if method == "order":
        if rec.C[0].det() == ctx.zero:
            return False
        T = block_companion(rec)
        ident = linalg.Matrix.identity(ctx, mn)
        if T**N != ident:
            return False
        for ell in integers.factorize(N):
            if T ** (N // ell) == ident:
                return False
        return True
    if method == "definitional":
        config.check_scan(q**mn, "state scan")
        zero_state = tuple(((ctx.zero,) * rec.m) for _ in range(rec.n))
        for state in _states(ctx, rec.m, rec.n):
            if state == zero_state:
                continue
            report = period_preperiod(rec, state)
            if not report.periodic or report.period != N:
                return False
        return True
    raise BadArgs(f"unknown method {method!r}")


def enumerate_recurrences(ctx, m: int, n: int) -> Iterator[BlockRecurrence]:
    """All q**(m*m*n) block recurrences of shape (m, n), in lexicographic
    order of the concatenated coefficient codes C_0, C_1, ..."""
    _check_shape(m, n, ctx.size)
    config.check_scan(ctx.size ** (m * m * n), "recurrence scan")
    return _recurrence_gen(ctx, m, n)


def _recurrence_gen(ctx, m: int, n: int) -> Iterator[BlockRecurrence]:
    scalars = linalg.raw_scalars(ctx)
    mm = m * m
    for flat in itertools.product(scalars, repeat=mm * n):
        mats = [
            linalg.Matrix(
                ctx,
                [flat[k * mm + i * m : k * mm + (i + 1) * m] for i in range(m)],
                m,
            )
            for k in range(n)
        ]
        yield BlockRecurrence(ctx, m, mats)


def nofiber_formula(m: int, n: int, q: int) -> int:
    """Closed form for the number of block companion matrices of shape
    (m, n) sharing one irreducible characteristic polynomial:
    q**(m*(m-1)*(n-1)) times the order of the affine part of GL_m."""
    _check_shape(m, n, q)
    qm = q**m
    out = q ** (m * (m - 1) * (n - 1))
    for i in range(1, m):
        out *= qm - q**i
    return out


def pvrc_formula(m: int, n: int, q: int) -> int:
    """Closed form for the number of primitive block recurrences of
    shape (m, n) over F_q: one fiber per primitive characteristic
    polynomial."""
    _check_shape(m, n, q)
    mn = m * n
    phi = integers.euler_phi(q**mn - 1)
    if phi % mn:
        raise SplitLabError(
            "internal: unit group totient not divisible by the extension degree"
        )
    return phi // mn * nofiber_formula(m, n, q)


def census_singer(m: int, n: int, q: int) -> int:
    """Number of (m, n) block companion matrices over F_q of maximal
    multiplicative order, i.e. with primitive characteristic polynomial,
    by scanning every coefficient tuple.  Its closed form is
    pvrc_formula."""
    _check_shape(m, n, q)
    ctx = fields.field_from_order(q)
    count = 0
    for rec in enumerate_recurrences(ctx, m, n):
        if rec.C[0].det() == ctx.zero:
            continue
        f = linalg.char_poly(block_companion(rec))
        if polys.is_primitive(f):
            count += 1
    return count


def fiber_count(f: polys.Poly, m: int, n: int, method: str = "scan") -> int:
    """Number of (m, n) block companion matrices whose characteristic
    polynomial is the monic degree-mn polynomial f.

    The scan route inspects every coefficient tuple.  The bridge route,
    for irreducible f, divides the ordered splitting-basis count of the
    tower defined by f by the number of nonzero tower elements.  The
    closed form shared by all irreducible f is nofiber_formula.
    """
    if not isinstance(f, polys.Poly):
        raise BadArgs("f must be a polynomial")
    _check_shape(m, n, f.ctx.size)
    if not f.is_monic:
        raise NotMonic("fiber counts need a monic polynomial")
    if f.degree != m * n:
        raise BadArgs(f"f has degree {f.degree}, expected m*n = {m * n}")
    q = f.ctx.size
    if method == "scan":
        ctx = f.ctx
        count = 0
        for rec in enumerate_recurrences(ctx, m, n):
            if linalg.char_poly(block_companion(rec)) == f:
                count += 1
        return count
    if method == "bridge":
        if not polys.is_irreducible(f):
            raise NotIrreducible("the bridge route needs an irreducible polynomial")
        tower = fields.build_extension(f.ctx, m * n, f)
        inst = splitting.SplitInstance(tower, m, n)
        bases = splitting.count_splitting_bases(inst, "auto")
        units = q ** (m * n) - 1
        if bases % units:
            raise SplitLabError(
                "internal: ordered-basis count not divisible by the unit group order"
            )
        return bases // units
    raise BadArgs(f"unknown method {method!r}")

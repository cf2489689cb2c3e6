"""Vector recurrences with matrix coefficients and their censuses.

A block recurrence of shape (m, n) over F_q produces a sequence of
words s_0, s_1, ... in F_q^m from n initial words via

    s_{i+n} = s_i * C_0 + s_{i+1} * C_1 + ... + s_{i+n-1} * C_{n-1},

with m x m coefficient matrices C_j acting on row vectors.  The state
(s_i, ..., s_{i+n-1}) evolves by one big block companion matrix, so the
sequence is eventually periodic; it is purely periodic exactly when C_0
is invertible, and the recurrence is primitive when every nonzero
initial state cycles through all q**(mn) - 1 of them.

Primitivity is tested as maximal multiplicative order of the block
companion matrix, on the period of one state over one chain of
squarings, and the period of one trajectory comes from Brent's cycle
finder.  The censuses count primitive recurrences, either by
scanning coefficient tuples or by closed form.  The companions with
one characteristic polynomial form a fiber: fiber_histogram sizes all
fibers in one scan, fiber_count an irreducible one by the bridge through
the splitting subspaces of the tower f defines (splitting's product route).

Conjugating every C_j by one P in GL_m(F_q) conjugates the block
companion by diag(P, ..., P), which keeps its characteristic polynomial
and its order.  So the PVRC census (enumerate_class_recurrences) and
fiber_histogram take whole tuples up to conjugation, from one walk
(_orbit_walk): C_0 runs over one representative per conjugacy class of
M_m(F_q) (_class_heads, from linalg.conjugacy_classes), C_1 up to the
centralizer of C_0, C_2 up to the stabilizer of (C_0, C_1), and so on,
on the conjugation maps the class pass built.  Each prefix the walk
fixes comes with the orbit size of its tuples, the positions past it
free.  census_singer keeps the full scan of all q**(m*m*n) tuples.

census_singer and fiber_histogram read only the characteristic
polynomial of each block companion, so they build no BlockRecurrence.
Both hand their heads, (prefix, weight) pairs, and the list of all
m x m matrices to one kernel, _char_polys, which packs each matrix once
per position and walks the free positions itself.  Over every F_{p^e}
the polynomial is the determinant det(x**n I - C_{n-1} x**(n-1) - ...
- C_0) of an m x m polynomial matrix, by Kronecker substitution into
Python ints in x and in y, the variable of the field's digits;
char_poly of the whole block companion is its test oracle.
census_singer keeps only the heads with invertible C_0, one det per C_0.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import config, fields, integers, linalg, polys, splitting
from .errors import (
    BadArgs,
    ContextMismatch,
    IterationBoundExceeded,
    NotMonic,
    ShapeMismatch,
    SplitLabError,
)

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

    Brent's cycle finding (BIT 20, 1980) needs no memory.  It takes up
    to about 5 * (preperiod + period) steps, each counted against the
    process scan bound (IterationBoundExceeded past it).
    """
    state = _check_state(rec, init)
    bound = config.scan_bound()
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


def is_primitive_recurrence(rec: BlockRecurrence) -> bool:
    """Whether every nonzero initial state is purely periodic with the
    full period N = q**(mn) - 1, i.e. whether the block companion matrix
    T has maximal multiplicative order.

    The order is tested on the one state e_0 = (1, 0, ..., 0): T is
    squared once, up to T**(2**k) with 2**k <= N, and e_0 T**N = e_0 and
    e_0 T**(N/l) != e_0 for every prime l | N are vector products over
    those squares.  That is exact: if e_0 has period N, its minimal
    polynomial is primitive of degree mn, so it is the characteristic
    polynomial of T and T has order N; if T has order N, every nonzero
    state has period N.  A singular C_0 needs no check of its own: if
    e_0 T**N = e_0, T maps the span of e_0's orbit onto itself, and a
    period of N puts N distinct nonzero vectors in that span, so the
    span is the whole space and T is invertible.

    The products are the square kernel's (linalg._square_kernel): XORs
    of packed rows over F_{2**e}, one big-int multiply in byte slots
    over F_p with mn * (p - 1)**2 < 256, and ctx.dot per entry
    elsewhere; e_0 is one packed row.
    """
    ctx = rec.ctx
    mn = rec.m * rec.n
    N = ctx.size**mn - 1
    pack, times = linalg._square_kernel(ctx, mn)
    squares = [pack(block_companion(rec).rows)]
    e0 = pack([(ctx.one,) + (ctx.zero,) * (mn - 1)])[:1]
    for _ in range(N.bit_length() - 1):
        squares.append(times(squares[-1], squares[-1]))

    def fixes_e0(k: int) -> bool:
        v = e0
        for i, square in enumerate(squares):
            if k >> i & 1:
                v = times(v, square)
        return v == e0

    if not fixes_e0(N):
        return False
    return not any(fixes_e0(N // ell) for ell in integers.factorize(N))


def enumerate_recurrences(ctx, m: int, n: int) -> Iterator[BlockRecurrence]:
    """All q**(m*m*n) block recurrences of shape (m, n), in lexicographic
    order of the concatenated coefficient codes C_0, C_1, ...; the m x m
    matrices are built once per scan and shared by every recurrence."""
    mats = _all_matrices(ctx, m, n)
    return (BlockRecurrence(ctx, m, C) for C in itertools.product(mats, repeat=n))


def enumerate_class_recurrences(
    ctx, m: int, n: int, invertible: bool = False
) -> Iterator[tuple[BlockRecurrence, int]]:
    """The recurrences of shape (m, n) up to simultaneous conjugation:
    one (rec, weight) per orbit of the tuple (C_0, ..., C_{n-1}) under
    C_j -> P C_j P**-1 for every j at once, P in GL_m(F_q), weight the
    orbit size |GL_m| / |stabilizer of the tuple|.

    Conjugating every C_j by P conjugates the block companion by
    diag(P, ..., P), so its characteristic polynomial and its order
    stay, and summing such an invariant times the weight over these
    recurrences gives its sum over all q**(m*m*n).  C_0 runs over one
    representative per conjugacy class of M_m(F_q), C_1 over one per
    orbit of the centralizer of C_0, C_2 over one per orbit of the
    stabilizer of (C_0, C_1), and so on (_orbit_walk).  With invertible,
    only the classes with invertible C_0 (the periodic recurrences) are
    visited.  The class pass is checked against the scan bound first, and
    so is the count of (#classes) * q**(m*m*(n-1)) recurrences the walk
    never exceeds.
    """
    heads = _class_heads(ctx, m, n, invertible)
    return (
        (BlockRecurrence(ctx, m, prefix + tail), weight)
        for prefix, weight in _orbit_walk(n, heads)
        for tail in itertools.product(heads[0], repeat=n - len(prefix))
    )


def _all_matrices(ctx, m: int, n: int) -> list:
    """Every m x m matrix, in enumerate_matrices order, once the full
    scan of q**(m*m*n) tuples is within the scan bound."""
    splitting._check_params(ctx.size, m, n)
    config.check_scan(ctx.size ** (m * m * n), "recurrence scan")
    return list(linalg.enumerate_matrices(ctx, m, m))


def _class_heads(ctx, m: int, n: int, invertible: bool = False) -> tuple:
    """linalg.conjugacy_classes(ctx, m), (mats, conj, classes), with
    only the classes of invertible matrices kept with invertible, once
    the scan of one C_0 per class is within the scan bound."""
    splitting._check_params(ctx.size, m, n)
    mats, conj, classes = linalg.conjugacy_classes(ctx, m)
    if invertible:
        classes = [(x, stab) for x, stab in classes if mats[x].det() != ctx.zero]
    config.check_scan(
        len(classes) * ctx.size ** (m * m * (n - 1)), "recurrence scan up to conjugation"
    )
    return mats, conj, classes


def _orbit_walk(n: int, heads) -> Iterator[tuple[tuple, int]]:
    """(prefix, weight) under simultaneous conjugation, with C_0 from
    each class of heads = (mats, conj, classes) as _class_heads returns
    it, streamed: each prefix + tail, tail any tuple over mats, stands
    for one orbit of size weight.

    A stabilizer chain: below a prefix (C_0, ..., C_{j-1}) with
    stabilizer S, C_j runs over the least matrix (in enumerate_matrices
    order) of each orbit of S on M_m(F_q), and S shrinks to that
    matrix's stabilizer in S.  C_0's stabilizer comes from the class
    pass.  Groups are taken modulo the scalars, which fix every tuple.
    Once only the scalars fix a prefix, its tails lie in distinct orbits
    and run free.  A leaf weighs |GL_m| / |S| for the S that fixes it,
    and the orbits of each distinct S are found once.
    """
    mats, conj, classes = heads
    order = len(conj)
    orbits: dict[tuple, list] = {}
    for x0, stab0 in classes:
        stack = [((mats[x0],), stab0)]
        while stack:  # depth first, children in orbit order
            prefix, stab = stack.pop()
            if len(stab) == 1 or len(prefix) == n:
                yield prefix, order // len(stab)
                continue
            if stab not in orbits:
                orbits[stab] = linalg._orbits(conj, stab, len(mats))
            stack += [(prefix + (mats[x],), sub) for x, sub in reversed(orbits[stab])]


def nofiber_formula(m: int, n: int, q: int) -> int:
    """Closed form for the number of block companion matrices of shape
    (m, n) sharing one irreducible characteristic polynomial:
    q**(m*(m-1)*(n-1)) times the order of the affine part of GL_m."""
    splitting._check_params(q, m, n)
    qm = q**m
    out = q ** (m * (m - 1) * (n - 1))
    for i in range(1, m):
        out *= qm - q**i
    return out


def pvrc_formula(m: int, n: int, q: int) -> int:
    """Closed form for the number of primitive block recurrences of
    shape (m, n) over F_q: one fiber per primitive characteristic
    polynomial."""
    splitting._check_params(q, m, n)
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
    pvrc_formula.  It keeps the full scan, not the one up to conjugation,
    so CHAIN checks that reduction against it at every point."""
    splitting._check_params(q, m, n)
    ctx = fields.field_from_order(q)
    mats = _all_matrices(ctx, m, n)
    # a singular C_0 gives f(0) = 0, never primitive
    heads = [((C0,), 1) for C0 in mats if C0.det() != ctx.zero]
    primitive: dict[tuple, bool] = {}  # one test per distinct polynomial
    count = 0
    for coeffs, _ in _char_polys(ctx, m, n, heads, mats):
        verdict = primitive.get(coeffs)
        if verdict is None:
            verdict = primitive[coeffs] = polys.is_primitive(polys.Poly(ctx, coeffs))
        count += verdict
    return count


def _char_polys(ctx, m: int, n: int, heads, mats) -> Iterator[tuple[tuple, int]]:
    """(coefficients of char_poly(block_companion(rec)), weight) for the
    (m, n) recurrences rec over ctx with C_0, ..., C_{j-1} and weight
    from each (prefix, weight) in heads, j >= 1, and C_j, ..., C_{n-1}
    over mats, in heads order and then product order, last fastest.

    The polynomial is det(x**n I - C_{n-1} x**(n-1) - ... - C_0), an
    m x m polynomial determinant, by Kronecker substitution in x and in
    y, the variable of a code's base-p digits.  Each entry is one int:
    x-slot j holds its x**j coefficient as m(e - 1) + 1 y-subslots of w
    bits.  The m! Leibniz products are summed once per sign; a product
    subslot is at most (n + 1)**(m - 1) * e**(m - 1) * (p - 1)**m and a
    sum adds at most m! of them, which fixes w.  Each subslot of the two
    sums is unpacked once and reduced mod p, and each x-slot folds its
    subslots k >= e in through the digits of y**k mod the field modulus
    into a code (over F_p there is one subslot and no fold).  Each
    prefix is packed once, with x**n I, and each of mats once per position.
    """
    p, e = ctx.p, ctx.e
    span = m * (e - 1) + 1  # y-subslots per x-slot
    w = (math.factorial(m) * (n + 1) ** (m - 1) * e ** (m - 1) * (p - 1) ** m).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, (m * n + 1) * span * w, w)
    signed: tuple[list, list] = ([], [])  # flat entry indices of the even, odd terms
    for perm in itertools.permutations(range(m)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        signed[inversions % 2].append(tuple(r * m + c for r, c in enumerate(perm)))
    even, odd = signed
    rows, power = [], [0] * (e - 1) + [1]  # rows: the digits of y**k mod the modulus, k >= e
    for _ in range(e, span):
        power = [(d - power[-1] * c) % p for d, c in zip([0] + power[:-1], ctx.modulus)]
        rows.append(power)
    powers = [p**i for i in range(e)]
    negs = [0] * ctx.size  # the digits of -c, packed in subslots
    for c in range(1, ctx.size):
        negs[c] = -c % p + (negs[c // p] << w)

    def pack(mat, j: int) -> tuple:
        # the entries of -C_j at x-slot j
        return tuple(negs[x] << j * span * w for row in mat.rows for x in row)

    def fold(slot) -> int:
        # the code of one x-slot: subslot k >= e adds its value times y**k
        for c, row in zip(slot[e:], rows):
            slot = [(d + c * r) % p for d, r in zip(slot, row)]
        return sum(map(operator.mul, slot, powers))

    top = tuple(1 << n * span * w if r == c else 0 for r in range(m) for c in range(m))
    packed = [[pack(mat, j) for mat in mats] for j in range(1, n)]  # position j at j - 1
    prod = math.prod
    for prefix, weight in heads:
        head = tuple(map(sum, zip(top, *map(pack, prefix, range(n)))))
        for terms in itertools.product(*packed[len(prefix) - 1 :]):
            get = tuple(map(sum, zip(head, *terms))).__getitem__
            plus = sum([prod(map(get, term)) for term in even])
            minus = sum([prod(map(get, term)) for term in odd])
            subs = [((plus >> s & mask) - (minus >> s & mask)) % p for s in shifts]
            if e > 1:
                subs = [fold(subs[i : i + span]) for i in range(0, len(subs), span)]
            yield tuple(subs), weight


def _check_fiber_poly(f: polys.Poly, m: int, n: int) -> None:
    if not isinstance(f, polys.Poly):
        raise BadArgs("f must be a polynomial")
    splitting._check_params(f.ctx.size, m, n)
    if not f.is_monic:
        raise NotMonic("fiber counts need a monic polynomial")
    if f.degree != m * n:
        raise BadArgs(f"f has degree {f.degree}, expected m*n = {m * n}")


def fiber_histogram(ctx, m: int, n: int) -> Counter:
    """Every fiber's size from one scan up to simultaneous conjugation:
    each block companion's characteristic polynomial maps to how many of
    the q**(m*m*n) share it, each tuple of _orbit_walk counting its
    orbit size, and a polynomial that never occurs reads as 0."""
    sizes: dict[tuple, int] = {}
    heads = _class_heads(ctx, m, n)
    for coeffs, weight in _char_polys(ctx, m, n, _orbit_walk(n, heads), heads[0]):
        sizes[coeffs] = sizes.get(coeffs, 0) + weight
    return Counter({polys.Poly(ctx, coeffs): size for coeffs, size in sizes.items()})


def fiber_count(f: polys.Poly, m: int, n: int) -> int:
    """Number of (m, n) block companion matrices whose characteristic
    polynomial is the monic irreducible degree-mn polynomial f, by the
    bridge: the ordered splitting-basis count of the tower defined by f,
    by the product route (only its subspaces through 1 scanned and
    rescaled, never its tuples), over the number of nonzero tower
    elements; building that tower rejects a reducible f.
    fiber_histogram scans every fiber; nofiber_formula is the closed
    form for irreducible f."""
    _check_fiber_poly(f, m, n)
    q = f.ctx.size
    tower = fields.build_extension(f.ctx, m * n, f)
    inst = splitting.SplitInstance(tower, m, n)
    bases = splitting.count_splitting_bases(inst, "product")
    units = q ** (m * n) - 1
    if bases % units:
        raise SplitLabError(
            "internal: ordered-basis count not divisible by the unit group order"
        )
    return bases // units

"""Finite fields F_{p^e} and extension towers F_{q^d}.

Two kinds of context, both immutable after construction:

- FieldCtx represents F_{p^e}.  Raw scalars are integer codes in
  [0, p**e); the little-endian base-p digits of a code are the
  coefficients of the residue class representative modulo the defining
  polynomial.  For e = 1 arithmetic is one expression modulo p.  For
  e > 1 and p**e <= 2**16 it is table lookup: antilog/log tables of
  one primitive element g, and for odd p Zech logarithms
  log(1 + g**k) for addition (for p = 2 codes add bitwise).  Above that
  size it is tower arithmetic over F_p on the digit tuple, through one
  private TowerCtx F_p[x]/(modulus); that tower also builds the tables,
  so there is a single implementation of arithmetic modulo an
  irreducible polynomial.

- TowerCtx represents F_{q^d} built on top of a FieldCtx base F_q.  Raw
  scalars are length-d tuples of base codes: the coordinates with
  respect to the power basis 1, alpha, ..., alpha**(d-1), where alpha is
  the class of the indeterminate modulo the defining polynomial.

FieldElement pairs a context with a raw scalar; all arithmetic runs on
raw scalars through the context methods add/sub/mul/neg/inv/div/power/
frobenius.  The matrix kernels of linalg run on dot, one fused sum of
products per call.  generates asks linalg's row reduction whether
1, beta, ..., beta**(d-1) are independent over the base field.

Default defining polynomials are canonical: the lexicographically least
monic irreducible of the requested degree, comparing coefficient tuples
from the constant term upward.  Identical inputs therefore always
produce identical moduli.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from typing import Iterator, Sequence

from . import integers, polys
from .errors import (
    BadArgs,
    ContextMismatch,
    DivisionByZero,
    NotIrreducible,
    NotMonic,
    NotPrime,
    SizeExceeded,
)
from .integers import from_digits, to_digits

_MAX_SIZE = 1 << 63
# F_{p^e} with e > 1 up to this size runs on log/antilog tables; the
# tables of GF(2**16) hold about 2 * 10**5 entries and build in well
# under a second.
_TABLE_MAX = 1 << 16


def _fold_dot(ctx, xs, ys):
    """The generic dot product: one add and one mul per nonzero pair."""
    zero = ctx.zero
    add, mul = ctx.add, ctx.mul
    acc = zero
    for x, y in zip(xs, ys):
        if x != zero and y != zero:
            acc = add(acc, mul(x, y))
    return acc


class FieldElement:
    """A value in a field context.  Use ctx.element(...) to create one."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinate tuple over the base field (length 1 for FieldCtx)."""
        return self.ctx.element_coords(self.raw)

    @property
    def is_zero(self) -> bool:
        return self.raw == self.ctx.zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.raw))

    def __repr__(self) -> str:
        return f"<{self.raw} of {self.ctx}>"


class FieldCtx:
    """Arithmetic context for F_{p^e} on integer codes.

    For e = 1 every operation is one expression modulo p.  For e > 1 the
    field is the tower F_p[x]/(modulus).  Up to _TABLE_MAX elements each
    operation is a lookup in tables built once from that tower: with g
    the first code from p upward (the class of x first) whose powers run
    through all q - 1 units, _exp[k] = g**k for 0 <= k < 2(q - 1), _log
    inverts it on the units, and for odd p _zech[k] = log(1 + g**k), or
    -1 where 1 + g**k = 0.  For p = 2 codes add as bit vectors, a ^ b.
    Above _TABLE_MAX each operation runs on the code's digit tuple in one
    private TowerCtx over F_p, and the result tuple is turned back into
    a code.  Both give the same codes.

    Construct through build_field; the constructor trusts its inputs.
    """

    __slots__ = ("p", "e", "size", "modulus", "zero", "one", "_tower", "_exp", "_log", "_zech")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.e = e
        self.size = p**e
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._exp = self._log = self._zech = None
        if e == 1:
            self._tower = None
        else:
            prime = FieldCtx(p, 1, None)
            self._tower = TowerCtx(prime, e, polys.Poly(prime, modulus))
            if self.size <= _TABLE_MAX:
                self._build_tables()

    def _powers(self, g: int) -> list[int]:
        """Codes of g**0, g**1, ... up to the last power before g**k = 1.

        The walk runs on packed digit tuples: digit i sits in lane
        [w*i, w*(i+1)) of an int, w = p.bit_length() + 1.  Multiplication
        by g is F_p-linear, so one step adds its images of the low and of
        the high digits, each a lookup in a table built from the tower's
        products x**i * g.  Each lane then holds a sum s <= 2p - 2, and
        one reduction serves every lane: adding 2**(w-1) - p sets the
        lane's top bit, without a carry out of the lane, exactly where
        s >= p.
        """
        p, e, tower = self.p, self.e, self._tower
        w = p.bit_length() + 1
        lanes = range(e)
        low_len = e // 2
        cut = w * low_len
        mask = (1 << cut) - 1
        offset = sum(((1 << (w - 1)) - p) << (w * i) for i in lanes)
        tops = sum(1 << (w * i + w - 1) for i in lanes)
        g_digits = to_digits(g, p, e)
        unit = [tuple(int(j == i) for j in lanes) for i in lanes]
        # columns[j][i]: digit j of x**i * g
        columns = list(zip(*(tower.mul(u, g_digits) for u in unit)))

        def pack(digits):
            return sum(d << (w * i) for i, d in enumerate(digits))

        def tables(shift, length):
            """Images under g, and codes, of the digit tuples that are
            zero outside digits shift .. shift + length - 1."""
            images, codes = {}, {}
            for digits in itertools.product(range(p), repeat=length):
                full = (0,) * shift + digits + (0,) * (e - shift - length)
                key = pack(digits)
                images[key] = pack([sum(d * c for d, c in zip(full, col)) % p for col in columns])
                codes[key] = from_digits(full, p)
            return images, codes

        low_image, low_code = tables(0, low_len)
        high_image, high_code = tables(low_len, e - low_len)
        codes = []
        packed = 1
        while True:
            low, high = packed & mask, packed >> cut
            codes.append(low_code[low] + high_code[high])
            packed = low_image[low] + high_image[high]
            packed -= (((packed + offset) & tops) >> (w - 1)) * p
            if packed == 1:
                return codes

    def _build_tables(self) -> None:
        """Fill _exp, _log and, for odd p, _zech.  A code g is certified
        primitive by walking its powers back to 1: the walk has length
        q - 1 exactly when g generates the unit group.  Codes below p
        lie in F_p, and codes met on a failed walk lie in the proper
        subgroup it generated, so neither is tried."""
        p, q = self.p, self.size
        tried = set()
        for g in range(p, q):
            if g in tried:
                continue
            powers = self._powers(g)
            if len(powers) == q - 1:
                break
            tried.update(powers)
        log = [None] * q  # zero has no logarithm; every op tests for it first
        for k, c in enumerate(powers):
            log[c] = k
        self._exp = powers + powers
        self._log = log
        if p != 2:
            zech = []
            for c in powers:
                # adding 1 changes only the constant digit, c % p
                one_plus = c + 1 - p if c % p == p - 1 else c + 1
                zech.append(log[one_plus] if one_plus else -1)
            self._zech = zech

    # -- raw scalar arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a + b) % p
        log = self._log
        if log is None:
            return from_digits(self._tower.add(to_digits(a, p, e), to_digits(b, p, e)), p)
        if p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        # a + b = g**la * (1 + g**(lb - la)); a negative index wraps
        # modulo q - 1, the length of _zech
        z = self._zech[log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def sub(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return (a - b) % p
        log = self._log
        if log is None:
            return from_digits(self._tower.sub(to_digits(a, p, e), to_digits(b, p, e)), p)
        if p == 2:
            return a ^ b
        units = self.size - 1
        if not b:
            return a
        if not a:
            return self._exp[log[b] + units // 2]
        la = log[a]
        # -1 = g**((q - 1) / 2), so a - b = g**la * (1 + g**(lb + (q - 1)/2 - la))
        z = self._zech[(log[b] + units // 2 - la) % units]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return -a % p
        log = self._log
        if log is None:
            return from_digits(self._tower.neg(to_digits(a, p, e)), p)
        if p == 2 or not a:
            return a
        return self._exp[log[a] + (self.size - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        log = self._log
        if log is None:
            return from_digits(self._tower.mul(to_digits(a, p, e), to_digits(b, p, e)), p)
        if not a or not b:
            return 0
        return self._exp[log[a] + log[b]]

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Sum of the products of paired entries.  For e = 1 it is one
        integer sum reduced once modulo p; for p = 2 tables an XOR of
        antilogs _exp[log x + log y]; otherwise the add/mul fold."""
        if self.e == 1:
            return sum(map(operator.mul, xs, ys)) % self.p
        log = self._log
        if log is None or self.p != 2:
            return _fold_dot(self, xs, ys)
        exp = self._exp
        return reduce(operator.xor, [exp[log[x] + log[y]] for x, y in zip(xs, ys) if x and y], 0)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        p, e = self.p, self.e
        if e == 1:
            return pow(a, -1, p)
        log = self._log
        if log is None:
            return from_digits(self._tower.inv(to_digits(a, p, e)), p)
        return self._exp[self.size - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return self.mul(a, self.inv(b))
        if b == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        if not a:
            return 0
        return self._exp[log[a] - log[b] + self.size - 1]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        p, e = self.p, self.e
        if e == 1:
            return pow(a, k, p)
        log = self._log
        if log is None:
            return from_digits(self._tower.power(to_digits(a, p, e), k), p)
        if not a:
            return 0 if k else 1
        return self._exp[log[a] * k % (self.size - 1)]

    def frobenius(self, a: int, r: int) -> int:
        if r < 0:
            raise BadArgs("frobenius exponent must be >= 0")
        p, e = self.p, self.e
        if e == 1:
            return a  # a**p == a in F_p
        log = self._log
        if log is None:
            return from_digits(self._tower.frobenius(to_digits(a, p, e), r), p)
        if not a:
            return 0
        units = self.size - 1
        return self._exp[log[a] * pow(p, r, units) % units]

    # -- elements --------------------------------------------------------

    def element(self, code: int) -> FieldElement:
        if not isinstance(code, int) or not 0 <= code < self.size:
            raise BadArgs(f"code {code!r} outside [0, {self.size})")
        return FieldElement(self, code)

    def element_coords(self, raw: int) -> tuple[int, ...]:
        return (raw,)

    def elements(self) -> Iterator[FieldElement]:
        for code in range(self.size):
            yield FieldElement(self, code)

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class TowerCtx:
    """Arithmetic context for F_{q^d} over a FieldCtx base, on coordinate
    tuples.  Construct through build_extension."""

    __slots__ = ("base", "d", "size", "defining_poly", "zero", "one", "_red", "_alpha_raw")

    def __init__(self, base: FieldCtx, d: int, defining_poly: polys.Poly):
        self.base = base
        self.d = d
        self.size = base.size**d
        self.defining_poly = defining_poly
        self.zero = (base.zero,) * d
        self.one = (base.one,) + (base.zero,) * (d - 1)
        # x**(d+t) mod f for t < d - 1: x**d is minus f's low
        # coefficients (f is monic), and each next row is the one before
        # it times x: shifted up, with its lead, which the shift takes to
        # x**d, times x**d mod f added back
        add, mul = base.add, base.mul
        top = tuple(map(base.neg, defining_poly.coeffs[:d]))
        red = [top]
        for _ in range(d - 2):
            row = red[-1]
            lead = row[-1]
            red.append(tuple(add(a, mul(lead, b)) for a, b in zip((base.zero, *row[:-1]), top)))
        self._red = tuple(red[: d - 1])
        if d == 1:
            self._alpha_raw = (base.neg(defining_poly.coeffs[0]),)
        else:
            self._alpha_raw = (base.zero, base.one) + (base.zero,) * (d - 2)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def q(self) -> int:
        return self.base.size

    @property
    def alpha(self) -> FieldElement:
        """The distinguished generator: the class of the indeterminate."""
        return FieldElement(self, self._alpha_raw)

    def _pad(self, coeffs: tuple) -> tuple:
        return coeffs + (self.base.zero,) * (self.d - len(coeffs))

    # -- raw scalar arithmetic (length-d tuples of base codes) -----------

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        d = self.d
        zero = base.zero
        conv = [zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                conv[i + j] = base.add(conv[i + j], base.mul(ai, bj))
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == zero:
                continue
            row = self._red[k - d]
            for i in range(d):
                if row[i] != zero:
                    out[i] = base.add(out[i], base.mul(c, row[i]))
        return tuple(out)

    dot = _fold_dot  # sum of the products of paired entries

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero(f"inverse of zero in {self}")
        g, s, _ = polys.xgcd(polys.Poly(self.base, a), self.defining_poly)
        assert g.degree == 0
        return self._pad(s.coeffs)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, k: int):
        if k < 0:
            a = self.inv(a)
            k = -k
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    def frobenius(self, a, r: int):
        if r < 0:
            raise BadArgs("frobenius exponent must be >= 0")
        if a == self.zero:
            return self.zero
        return self.power(a, pow(self.p, r, self.size - 1) if self.size > 2 else 0)

    # -- encodings and elements ------------------------------------------

    def element(self, coords: Sequence[int]) -> FieldElement:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise BadArgs(f"need {self.d} coordinates, got {len(coords)}")
        q = self.base.size
        for c in coords:
            if not isinstance(c, int) or not 0 <= c < q:
                raise BadArgs(f"coordinate {c!r} outside [0, {q})")
        return FieldElement(self, coords)

    def element_from_raw(self, raw) -> FieldElement:
        return FieldElement(self, raw)

    def element_coords(self, raw) -> tuple[int, ...]:
        return raw

    def embed_base(self, code: int):
        """Raw tower scalar for a base field code."""
        return (code,) + (self.base.zero,) * (self.d - 1)

    def rank(self, raw) -> int:
        return integers.from_digits(raw, self.base.size)

    def from_rank(self, k: int) -> FieldElement:
        if not 0 <= k < self.size:
            raise BadArgs(f"rank {k} outside [0, {self.size})")
        return FieldElement(self, integers.to_digits(k, self.base.size, self.d))

    def elements(self) -> Iterator[FieldElement]:
        for coords in itertools.product(range(self.base.size), repeat=self.d):
            yield FieldElement(self, coords[::-1])

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, TowerCtx)
            and self.base == other.base
            and self.d == other.d
            and self.defining_poly.coeffs == other.defining_poly.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.base, self.d, self.defining_poly.coeffs))

    def __repr__(self) -> str:
        return f"{self.base}[x]/({self.defining_poly})"


def _canonical_irreducible(ctx: FieldCtx, k: int) -> polys.Poly:
    """Least monic irreducible of degree k, coefficient tuples compared
    from the constant term upward."""
    q = ctx.size
    first = range(q) if k == 1 else range(1, q)  # zero constant term is reducible for k >= 2
    for c0 in first:
        # Walk codes lazily: a product over range(q) materialises
        # range(q), and q may be near 2**63.  c_1 is the most significant
        # digit, so codes ascend in the order of (c_1, ..., c_{k-1}).
        for code in range(q ** (k - 1)):
            rest = integers.to_digits(code, q, k - 1)[::-1]
            f = polys.Poly(ctx, (c0, *rest, ctx.one))
            if polys.is_irreducible(f):
                return f
    raise AssertionError(f"no irreducible of degree {k} over {ctx}")


def build_field(p: int, e: int = 1) -> FieldCtx:
    """Construct F_{p^e} with the canonical defining polynomial.

    p must be prime, e >= 1, and p**e must stay below 2**63.
    """
    if e < 1:
        raise BadArgs(f"extension degree must be >= 1, got {e}")
    if not integers.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p**e >= _MAX_SIZE:
        raise SizeExceeded(f"{p}^{e} does not fit below 2**63")
    if e == 1:
        return FieldCtx(p, 1, None)
    prime = FieldCtx(p, 1, None)
    modulus = _canonical_irreducible(prime, e)
    return FieldCtx(p, e, modulus.coeffs)


def field_from_order(q: int) -> FieldCtx:
    """Construct the field with q elements (q a prime power)."""
    p, e = integers.prime_power_split(q)
    return build_field(p, e)


def build_extension(
    base: FieldCtx,
    d: int,
    defining_poly: polys.Poly | None = None,
) -> TowerCtx:
    """Construct F_{q^d} over the base field F_q.

    Without a defining polynomial, the canonical (lexicographically
    least) monic irreducible of degree d is used.
    """
    if not isinstance(base, FieldCtx):
        raise BadArgs("base must be a FieldCtx")
    if d < 1:
        raise BadArgs(f"tower degree must be >= 1, got {d}")
    if base.size**d >= _MAX_SIZE:
        raise SizeExceeded(f"{base.size}^{d} does not fit below 2**63")
    if defining_poly is not None:
        if defining_poly.ctx != base:
            raise ContextMismatch("defining polynomial is not over the base field")
        if defining_poly.is_zero or defining_poly.degree != d:
            raise BadArgs(f"defining polynomial must have degree {d}")
        if not defining_poly.is_monic:
            raise NotMonic("defining polynomial must be monic")
        if not polys.is_irreducible(defining_poly):
            raise NotIrreducible(f"{defining_poly} is reducible over {base}")
        return TowerCtx(base, d, defining_poly)
    return TowerCtx(base, d, _canonical_irreducible(base, d))


def generates(tower: TowerCtx, beta: FieldElement) -> bool:
    """True iff beta generates the tower over its base field, i.e. its
    minimal polynomial has full degree d: 1, beta, ..., beta**(d-1) are
    independent over the base field."""
    from . import linalg  # linalg imports this module

    if not isinstance(tower, TowerCtx):
        raise BadArgs("generates applies to tower extensions")
    if beta.ctx != tower:
        raise ContextMismatch("element does not belong to the given tower")
    powers = itertools.accumulate(
        itertools.repeat(beta.raw, tower.d - 1), tower.mul, initial=tower.one
    )
    return linalg.rows_are_independent(tower.base, powers)

"""Finite fields F_{p^e} and extension towers F_{q^d}.

Two kinds of context, both immutable after construction:

- FieldCtx represents F_{p^e}.  Raw scalars are integer codes in
  [0, p**e); the little-endian base-p digits of a code are the
  coefficients of the residue class representative modulo the defining
  polynomial (no polynomial is involved when e = 1).

- TowerCtx represents F_{q^d} built on top of a FieldCtx base F_q.  Raw
  scalars are length-d tuples of base codes: the coordinates with
  respect to the power basis 1, alpha, ..., alpha**(d-1), where alpha is
  the class of the indeterminate modulo the defining polynomial.

FieldElement pairs a context with a raw scalar and provides operator
sugar; all arithmetic ultimately runs on raw scalars through the context
methods add/sub/mul/neg/inv/div/power/frobenius.

Default defining polynomials are canonical: the lexicographically least
monic irreducible of the requested degree, comparing coefficient tuples
from the constant term upward.  Identical inputs therefore always
produce identical moduli.
"""

from __future__ import annotations

import itertools
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
    ZeroElement,
)

_MAX_SIZE = 1 << 63


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

    def _coerce(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise ContextMismatch(f"cannot combine field element with {other!r}")
        if self.ctx != other.ctx:
            raise ContextMismatch("elements from different field contexts")
        return other

    def __add__(self, other) -> FieldElement:
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.add(self.raw, other.raw))

    def __sub__(self, other) -> FieldElement:
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.sub(self.raw, other.raw))

    def __mul__(self, other) -> FieldElement:
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.raw, other.raw))

    def __truediv__(self, other) -> FieldElement:
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.div(self.raw, other.raw))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.ctx, self.ctx.neg(self.raw))

    def __pow__(self, k: int) -> FieldElement:
        return FieldElement(self.ctx, self.ctx.power(self.raw, k))

    def inverse(self) -> FieldElement:
        return FieldElement(self.ctx, self.ctx.inv(self.raw))

    def frobenius(self, r: int) -> FieldElement:
        """self ** (p ** r) for the field characteristic p."""
        return FieldElement(self.ctx, self.ctx.frobenius(self.raw, r))

    def __bool__(self) -> bool:
        return not self.is_zero

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

    Construct through build_field; the constructor trusts its inputs.
    """

    __slots__ = ("p", "e", "size", "modulus", "zero", "one", "_prime", "_modpoly")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.e = e
        self.size = p**e
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        if e == 1:
            self._prime = None
            self._modpoly = None
        else:
            self._prime = FieldCtx(p, 1, None)
            self._modpoly = polys.Poly(self._prime, modulus)

    # -- raw scalar arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        shift = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + db) % p * shift
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return -a % p
        out = 0
        shift = 1
        while a:
            a, da = divmod(a, p)
            out += -da % p * shift
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        prod = self._code_poly(a) * self._code_poly(b)
        return self._poly_code(prod % self._modpoly)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.e == 1:
            return pow(a, -1, self.p)
        g, s, _ = polys.xgcd(self._code_poly(a), self._modpoly)
        assert g.degree == 0
        return self._poly_code(s)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        if self.e == 1:
            return pow(a, k, self.p)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    def frobenius(self, a: int, r: int) -> int:
        if r < 0:
            raise BadArgs("frobenius exponent must be >= 0")
        if self.e == 1:
            return a  # a**p == a in F_p
        if a == 0:
            return 0
        return self.power(a, pow(self.p, r, self.size - 1))

    # -- encodings -------------------------------------------------------

    def _code_poly(self, code: int) -> polys.Poly:
        return polys.Poly(self._prime, integers.to_digits(code, self.p, self.e))

    def _poly_code(self, f: polys.Poly) -> int:
        return integers.from_digits(f.coeffs, self.p)

    # -- elements --------------------------------------------------------

    def element(self, code: int) -> FieldElement:
        if not isinstance(code, int) or not 0 <= code < self.size:
            raise BadArgs(f"code {code!r} outside [0, {self.size})")
        return FieldElement(self, code)

    def element_from_raw(self, raw: int) -> FieldElement:
        return FieldElement(self, raw)

    def element_coords(self, raw: int) -> tuple[int, ...]:
        return (raw,)

    def elements(self) -> Iterator[FieldElement]:
        for code in range(self.size):
            yield FieldElement(self, code)

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
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
        x = polys.Poly.x(base)
        self._red = tuple(
            self._pad(polys.pow_mod(x, d + t, defining_poly).coeffs)
            for t in range(d - 1)
        )
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

    def embed(self, value) -> FieldElement:
        """Embed a base field element (or code) into the tower."""
        if isinstance(value, FieldElement):
            if value.ctx != self.base:
                raise ContextMismatch("can only embed elements of the base field")
            code = value.raw
        else:
            code = value
        if not isinstance(code, int) or not 0 <= code < self.base.size:
            raise BadArgs(f"base code {code!r} outside [0, {self.base.size})")
        return FieldElement(self, self.embed_base(code))

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


def coords_of(tower: TowerCtx, elem: FieldElement) -> tuple[int, ...]:
    """Coordinates of a tower element over the base field."""
    if elem.ctx != tower:
        raise ContextMismatch("element does not belong to the given tower")
    return elem.coords


def from_coords(tower: TowerCtx, coords: Sequence[int]) -> FieldElement:
    """Tower element with the given coordinates over the base field."""
    return tower.element(coords)


def generates(tower: TowerCtx, beta: FieldElement) -> bool:
    """True iff beta generates the tower over its base field, i.e. its
    minimal polynomial has full degree."""
    if not isinstance(tower, TowerCtx):
        raise BadArgs("generates applies to tower extensions")
    if beta.ctx != tower:
        raise ContextMismatch("element does not belong to the given tower")
    return polys.minimal_polynomial(tower, beta).degree == tower.d


def multiplicative_order(ctx, beta: FieldElement) -> int:
    """Order of a nonzero element in the multiplicative group of ctx."""
    if beta.ctx != ctx:
        raise ContextMismatch("element does not belong to the given field")
    if beta.is_zero:
        raise ZeroElement("zero has no multiplicative order")
    n = ctx.size - 1
    if n == 1:
        return 1
    factors = integers.factorize(n)
    raw = beta.raw
    return integers.order_from_factored(n, factors, lambda k: ctx.power(raw, k))

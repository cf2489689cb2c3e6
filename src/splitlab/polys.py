"""Dense univariate polynomials over a finite field context.

A polynomial a_0 + a_1 x + ... + a_k x^k is stored as the tuple
(a_0, ..., a_k) of raw scalars with no trailing zeros; the zero
polynomial is the empty tuple.  The degree of the zero polynomial is the
distinguished marker float('-inf'), which orders correctly against every
integer degree but fails loudly if misused as an index.

The coefficient context only has to provide raw scalar arithmetic:
`size`, `zero`, `one`, and the methods add/sub/mul/neg/inv on raw
scalars.  splitlab.fields.FieldCtx is the usual choice (raw scalars are
integer codes in [0, size)), and a TowerCtx works the same way with
coordinate tuples.

is_irreducible (Rabin's test) and is_primitive (the order of x) read
x**N mod f from one kernel, _x_power: over F_p with deg(f) * (p - 1)**2
< 256 a residue is one int of byte slots and each step one big-int
product, and elsewhere (F_{p^e} with e > 1, towers, wider slots) it is
pow_mod, which also serves TowerCtx reduction and is the kernel's test
oracle.  is_primitive builds the kernel once and runs Rabin's test
(_rabin) and its order test on it.  The gcd of Rabin's test stays on
Poly: factor reaches Rabin's test through _irreducibles, so if it
called _coprime, the closed route of q_totient would run the brute
route's kernel.

The brute routes of coprime_pair_count and q_totient scan raw
coefficient lists instead, built by ascending code, with the Euclid
kernel _coprime, which reduces remainders in place and builds no Poly.
q_totient tests every g once against f.  coprime_pair_count tests each
monic f2 once against each nonzero residue class r modulo f2, since
Euclid's first step takes f1 to f1 mod f2, and weighs a coprime r by the
number of f1 in its class.  gcd, xgcd, factor and the closed forms keep
their Poly code and never call the kernel, so a scan and its closed form
share no code.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable

from . import config, fields, integers
from .errors import (
    BadArgs,
    BothZero,
    BoundOrder,
    ContextMismatch,
    DegreeZero,
    DivisionByZero,
    FactorSearchExceeded,
    NotMonic,
    ScanBoundExceeded,
)

NEG_DEGREE = float("-inf")


class Poly:
    """Immutable dense polynomial over a field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs: Iterable):
        coeffs = list(coeffs)
        zero = ctx.zero
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, ctx) -> Poly:
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx) -> Poly:
        return cls(ctx, (ctx.one,))

    @classmethod
    def x(cls, ctx) -> Poly:
        return cls(ctx, (ctx.zero, ctx.one))

    @property
    def degree(self):
        """Degree as an int; float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (raw scalar)."""
        if not self.coeffs:
            raise DegreeZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def _check(self, other: Poly) -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials over different contexts")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        ctx = self.ctx
        return Poly(ctx, tuple(ctx.neg(c) for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx)
        zero = ctx.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
        return Poly(ctx, out)

    def scale(self, c) -> Poly:
        """Multiply by the raw scalar c."""
        ctx = self.ctx
        if c == ctx.zero:
            return Poly.zero(ctx)
        return Poly(ctx, tuple(ctx.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        self._check(other)
        ctx = self.ctx
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        dg = len(other.coeffs) - 1
        inv_lead = ctx.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        quo = [ctx.zero] * max(len(rem) - dg, 0)
        zero = ctx.zero
        for k in range(len(rem) - dg - 1, -1, -1):
            c = rem[k + dg]
            if c == zero:
                continue
            factor = ctx.mul(c, inv_lead)
            quo[k] = factor
            for i, g in enumerate(other.coeffs):
                if g != zero:
                    rem[k + i] = ctx.sub(rem[k + i], ctx.mul(factor, g))
        return Poly(ctx, quo), Poly(ctx, rem)

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def monic(self) -> Poly:
        if self.is_zero:
            raise DegreeZero("zero polynomial cannot be made monic")
        if self.is_monic:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        ctx = self.ctx
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == ctx.zero:
                continue
            if k == 0:
                terms.append(str(c))
            elif c == ctx.one:
                terms.append("x" if k == 1 else f"x^{k}")
            else:
                terms.append(f"{c}*x" if k == 1 else f"{c}*x^{k}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self.ctx!r}, {self.coeffs!r})"


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    f._check(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (d, s, t) with d monic and s*f + t*g = d."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    f._check(g)
    ctx = f.ctx
    r0, r1 = f, g
    s0, s1 = Poly.one(ctx), Poly.zero(ctx)
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead_inv = ctx.inv(r0.lc)
    return r0.scale(lead_inv), s0.scale(lead_inv), t0.scale(lead_inv)


def pow_mod(f: Poly, exponent: int, modulus: Poly) -> Poly:
    """f**exponent reduced modulo `modulus` by repeated squaring."""
    if exponent < 0:
        raise BadArgs("pow_mod exponent must be >= 0")
    if modulus.is_zero or modulus.degree < 1:
        raise BadArgs("pow_mod modulus must have degree >= 1")
    result = Poly.one(f.ctx) % modulus
    base = f % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        exponent >>= 1
        if exponent:
            base = (base * base) % modulus
    return result


def _x_power(f: Poly):
    """power(N) -> x**N mod f, for f monic of degree k >= 1.

    Over F_p with k * (p - 1)**2 < 256 a residue is an int with the
    coefficient of x**i in byte slot i, and each step of the walk down
    N's bits is one big-int product: a square r * r, each slot a sum of
    at most k products below (p - 1)**2, and a set bit r << 8.  Neither
    carries, and one bytes.translate reduces every slot modulo p.  The
    fold takes the slots i >= k down through x**i mod f, packed once per
    f: the low slots plus each high slot times its packed power, at
    most (p - 1) + (k - 1) * (p - 1)**2 <= k * (p - 1)**2 per slot, and
    a second translate.  Over F_{p^e} with e > 1, over towers and past
    the bound, power is pow_mod."""
    ctx, k = f.ctx, f.degree
    x = Poly.x(ctx)
    if not (isinstance(ctx, fields.FieldCtx) and ctx.e == 1 and k * (ctx.p - 1) ** 2 < 256):
        return lambda N: pow_mod(x, N, f)
    p, mod_p = ctx.p, integers.byte_residues(ctx.p)

    def fold(slots: bytes) -> int:
        low = int.from_bytes(slots[:k], "little") + sum(map(mul, slots[k:], packed))
        return int.from_bytes(low.to_bytes(k, "little").translate(mod_p), "little")

    packed = [int.from_bytes(bytes(-c % p for c in f.coeffs[:k]), "little")]  # x**k mod f
    while len(packed) < k:  # x**(k + i) mod f, each x times the one before
        packed.append(fold((packed[-1] << 8).to_bytes(k + 1, "little")))

    def power(N: int) -> Poly:
        r = 1
        for bit in bin(N)[2:]:
            r = fold((r * r).to_bytes(2 * k, "little").translate(mod_p))
            if bit == "1":
                r = fold((r << 8).to_bytes(k + 1, "little"))
        return Poly(ctx, r.to_bytes(k, "little"))

    return power


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f of degree k is irreducible over F_q iff
    x**(q**k) == x mod f and gcd(x**(q**(k//r)) - x, f) = 1 for every
    prime r dividing k."""
    if f.is_zero or f.degree < 1:
        raise DegreeZero("irreducibility needs degree >= 1")
    if f.degree == 1:
        return True
    f = f.monic()
    return _rabin(f, _x_power(f))


def _rabin(f: Poly, power) -> bool:
    """Rabin's test for f monic of degree k >= 2, with power(N) -> x**N
    mod f (_x_power(f)), which is_primitive builds once for both of its
    tests."""
    k, q, x = f.degree, f.ctx.size, Poly.x(f.ctx)
    if power(q**k) != x:
        return False
    for r in _prime_divisors(k):
        h = power(q ** (k // r)) - x
        if h.is_zero or gcd(h, f).degree != 0:
            return False
    return True


def _prime_divisors(k: int) -> list[int]:
    """Prime divisors of a degree k by plain trial division: at most
    sqrt(k) steps, so no scan bound applies."""
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return out + [k] if k > 1 else out


def is_primitive(f: Poly) -> bool:
    """True iff f is irreducible and the class of x generates the unit
    group of F_q[x]/(f), i.e. has order q**deg(f) - 1."""
    if f.is_zero or f.degree < 1:
        raise DegreeZero("primitivity needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("primitivity test expects a monic polynomial")
    k = f.degree
    power = _x_power(f)
    if k > 1 and not _rabin(f, power):
        return False
    ctx = f.ctx
    if f.coeffs[0] == ctx.zero:
        return False  # f = x: its root 0 is not a unit
    n = ctx.size**k - 1
    one = Poly.one(ctx)
    if n == 1:
        return power(1) == one
    for p in integers.factorize(n):
        if power(n // p) == one:
            return False
    return True


def _irreducibles(ctx, k: int) -> tuple[Poly, ...]:
    """The monic irreducibles of degree k by ascending code.  The bound
    is checked on every call, so a warm cache refuses like a cold one."""
    config.check_scan(ctx.size**k, f"irreducible scan at degree {k}")
    return _irreducible_scan(ctx, k)


@lru_cache(maxsize=None)
def _irreducible_scan(ctx, k: int) -> tuple[Poly, ...]:
    q = ctx.size
    out = []
    for code in range(q**k):
        coeffs = integers.to_digits(code, q, k) + (ctx.one,)
        f = Poly(ctx, coeffs)
        if is_irreducible(f):
            out.append(f)
    return tuple(out)


def find_irreducibles(ctx, k: int, kind: str = "all") -> list[Poly]:
    """Monic irreducible polynomials of degree k over a field context.

    kind selects "all" irreducibles or "primitive_only".  Candidates are
    scanned by ascending code (the integer whose base-q digits are the
    non-leading coefficients), so the output order is deterministic.
    """
    if k < 1:
        raise BadArgs("degree must be >= 1")
    if kind not in ("all", "primitive_only"):
        raise BadArgs(f"unknown filter {kind!r}")
    irr = _irreducibles(ctx, k)
    if kind == "all":
        return list(irr)
    return [f for f in irr if is_primitive(f)]


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor into monic irreducibles by exhaustive trial division.

    Returns (factor, multiplicity) pairs in scan order.  Raises
    FactorSearchExceeded, before any scan, if the candidate scan at the
    largest degree it may reach, deg(f) // 2, would exceed the scan
    bound; a polynomial whose factors are all small is refused too.
    """
    if f.is_zero or f.degree < 1:
        raise DegreeZero("factorization needs degree >= 1")
    top = f.degree // 2
    try:
        config.check_scan(f.ctx.size**top, f"irreducible scan at degree {top}")
    except ScanBoundExceeded as exc:
        raise FactorSearchExceeded(str(exc)) from exc
    rem = f.monic()
    out: list[tuple[Poly, int]] = []
    t = 1
    while rem.degree >= 1:
        if 2 * t > rem.degree:
            out.append((rem, 1))
            break
        for g in _irreducibles(f.ctx, t):
            mult = 0
            while True:
                quo, res = divmod(rem, g)
                if not res.is_zero:
                    break
                rem = quo
                mult += 1
            if mult:
                out.append((g, mult))
            if rem.degree < 1:
                break
        t += 1
    return out


def q_totient(f: Poly, method: str = "closed") -> int:
    """Number of polynomials of degree < deg(f) coprime to f.

    The closed route multiplies q**deg(f) by (1 - q**-deg(g)) over the
    distinct irreducible factors g of f.  The brute route tests every
    nonzero g of degree < deg(f) once, by ascending code, with the Euclid
    kernel _coprime on raw coefficient lists; it builds no Poly per g.
    """
    if f.is_zero or f.degree < 1:
        raise DegreeZero("totient needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("totient expects a monic polynomial")
    ctx = f.ctx
    q = ctx.size
    k = f.degree
    if method == "closed":
        parts = factor(f)
        deg_sum = sum(g.degree for g, _ in parts)
        value = q ** (k - deg_sum)
        for g, _ in parts:
            value *= q**g.degree - 1
        return value
    if method == "brute":
        config.check_scan(q**k, "totient census")
        return sum(_coprime(ctx, g, f.coeffs) for g in _nonzero_codes(ctx, k))
    raise BadArgs(f"unknown method {method!r}")


def coprime_pair_count(n1: int, n2: int, ctx, method: str = "closed") -> int:
    """Number of coprime pairs (f1, f2) with f1 nonzero of degree < n1 and
    f2 monic nonzero of degree < n2, for n1 >= n2 >= 1.

    Closed form: q**(n1 + n2 - 1) - 1.  The brute route scans residue
    classes: Euclid's first step on (f1, f2) is f1 mod f2, so a pair's
    verdict is that of (f2, r) for its residue r, and each r of degree
    < t = deg f2 is the residue of q**(n1 - t) polynomials f1 of degree
    < n1.  f2 = 1 is coprime to all q**n1 - 1 nonzero f1; for every
    other f2, by degree then code, the Euclid kernel _coprime tests
    (f2, r) once for each nonzero r by ascending code, on raw
    coefficient lists built once per degree, and weighs a coprime r by
    q**(n1 - t).  It visits sum_{t < n2} q**(2t) pairs (f2, r), the zero
    residues and f2 = 1 counted, and builds no Poly per pair.
    """
    if n2 < 1:
        raise BadArgs("n2 must be >= 1")
    if n1 < n2:
        raise BoundOrder(f"need n1 >= n2, got n1={n1} < n2={n2}")
    q = ctx.size
    if method == "closed":
        return q ** (n1 + n2 - 1) - 1
    if method == "brute":
        config.check_scan((q ** (2 * n2) - 1) // (q * q - 1), "coprime pair census")
        total = q**n1 - 1  # f2 = 1
        for t in range(1, n2):
            residues = _nonzero_codes(ctx, t)
            coprime = 0
            for code in range(q**t):
                f2 = list(integers.to_digits(code, q, t)) + [ctx.one]
                coprime += sum(_coprime(ctx, f2, r) for r in residues)
            total += coprime * q ** (n1 - t)
        return total
    raise BadArgs(f"unknown method {method!r}")


def _nonzero_codes(ctx, k: int) -> list[list]:
    """The coefficient lists, trailing zeros stripped, of the q**k - 1
    nonzero polynomials of degree < k, by ascending code."""
    q, zero = ctx.size, ctx.zero
    out = []
    for code in range(1, q**k):
        digits = list(integers.to_digits(code, q, k))
        while digits[-1] == zero:
            digits.pop()
        out.append(digits)
    return out


def _coprime(ctx, a, b) -> bool:
    """Whether gcd(a, b) has degree 0, for coefficient lists a and b of
    raw scalars with no trailing zeros, b nonzero.

    Euclid's algorithm on copies of the lists, each remainder reduced in
    place; it stops once the divisor is a constant (coprime) or zero (a
    common factor of degree >= 1), and builds no Poly.  The brute coprime
    scans are its only callers: gcd and the closed forms never use it.
    """
    mul, sub, inv, zero = ctx.mul, ctx.sub, ctx.inv, ctx.zero
    a, b = list(a), list(b)
    while len(b) > 1:
        d = len(b) - 1
        lead = inv(b[-1])
        for top in range(len(a) - 1, d - 1, -1):
            c = a[top]
            if c != zero:
                c = mul(c, lead)
                for i in range(d):
                    a[top - d + i] = sub(a[top - d + i], mul(c, b[i]))
        del a[d:]
        while a and a[-1] == zero:
            a.pop()
        a, b = b, a
    return len(b) == 1

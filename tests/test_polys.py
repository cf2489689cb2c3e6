"""Polynomial layer: gcd, irreducibility, primitivity, totients, censuses."""

import itertools
import random

import pytest

from splitlab import (
    BadArgs,
    BoundOrder,
    Poly,
    ScanBoundExceeded,
    build_field,
    coprime_pair_count,
    find_irreducibles,
    gcd,
    is_irreducible,
    is_primitive,
    q_totient,
)
from splitlab import integers, polys
from sampling import random_base, random_modulus

F2 = build_field(2)
F3 = build_field(3)
# fields where a unit need not be its own inverse, so the Euclid kernel
# is tested with the leading-coefficient inverse it needs; F_8 and F_9
# over a random non-canonical modulus (x^2 + x + 1 is the only monic
# irreducible quadratic over F_2, so F_4 has no other)
WIDE_QS = (4, 5, 7, 8, 9)


def wide_field(q):
    return random_base(q, random.Random(f"wide/{q}"), other=q != 4)


def monic_polys(ctx, degree):
    q = ctx.size
    for tail in itertools.product(range(q), repeat=degree):
        yield Poly(ctx, tail + (1,))


# ---------------------------------------------------------------------------
# independent GF(2) oracle on bit-packed polynomials (bit i = coeff of x^i)

def gf2_mod(a, m):
    top = m.bit_length() - 1
    while a and a.bit_length() - 1 >= top:
        a ^= m << (a.bit_length() - 1 - top)
    return a


def gf2_irreducible(a):
    d = a.bit_length() - 1
    if d < 1:
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 >= 1 and gf2_mod(a, g) == 0:
            return False
    return True


def gf2_primitive(a):
    if not gf2_irreducible(a) or not a & 1:
        return False
    d = a.bit_length() - 1
    t, k = gf2_mod(2, a), 1
    while t != 1:
        t = gf2_mod(t << 1, a)
        k += 1
        assert k < 2**d
    return k == 2**d - 1


def poly_to_bits(f):
    return sum(c << i for i, c in enumerate(f.coeffs))


# ---------------------------------------------------------------------------


def test_gcd_fixtures():
    f = Poly(F2, (0, 1)) * Poly(F2, (1, 1))
    g = Poly(F2, (0, 1)) * Poly(F2, (1, 1, 1))
    assert gcd(f, g) == Poly(F2, (0, 1))
    assert gcd(f, Poly(F2, (1,))) == Poly(F2, (1,))
    assert gcd(Poly(F3, ()), Poly(F3, (2, 1))) == Poly(F3, (2, 1)).monic()


def test_gcd_divides_both_arguments():
    for f in monic_polys(F2, 3):
        for g in monic_polys(F2, 2):
            d = gcd(f, g)
            assert d.is_monic
            assert (f % d).is_zero
            assert (g % d).is_zero


def test_xgcd_bezout_identity():
    for f in monic_polys(F3, 2):
        for g in monic_polys(F3, 2):
            d, u, v = polys.xgcd(f, g)
            assert u * f + v * g == d
            assert d == gcd(f, g)


def test_pow_mod_matches_repeated_multiplication():
    modulus = Poly(F2, (1, 1, 0, 0, 1))
    x = Poly(F2, (0, 1))
    acc = Poly(F2, (1,))
    for k in range(20):
        assert polys.pow_mod(x, k, modulus) == acc
        acc = acc * x % modulus


def test_pow_mod_stops_squaring_after_the_top_bit(monkeypatch):
    # x**8: three squarings and one multiply into the result; no square of
    # the base after the exponent's last bit
    modulus = Poly(F2, (1, 1, 0, 0, 1))
    x = Poly(F2, (0, 1))
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert polys.pow_mod(x, 8, modulus) == Poly(F2, (1, 0, 1))
    assert len(products) == 4


def test_is_irreducible_matches_bit_oracle():
    """Cross-check against trial division on bit-packed integers, degrees 1..6."""
    for d in range(1, 7):
        for f in monic_polys(F2, d):
            assert is_irreducible(f) == gf2_irreducible(poly_to_bits(f)), f


def test_is_irreducible_over_f3():
    reducible = set()
    for da in range(1, 3):
        db = 3 - da
        for a in monic_polys(F3, da):
            for b in monic_polys(F3, db):
                reducible.add((a * b).coeffs)
    for f in monic_polys(F3, 3):
        assert is_irreducible(f) == (f.coeffs not in reducible), f


def test_is_irreducible_rejects_constants():
    with pytest.raises(BadArgs):
        is_irreducible(Poly(F2, (1,)))
    with pytest.raises(BadArgs):
        is_irreducible(Poly(F2, ()))


def test_is_primitive_matches_x_order():
    for d in range(1, 7):
        for f in monic_polys(F2, d):
            assert is_primitive(f) == gf2_primitive(poly_to_bits(f)), f


def test_primitive_quartics_over_f2():
    prim = {str(f) for f in monic_polys(F2, 4) if is_primitive(f)}
    assert prim == {"x^4+x+1", "x^4+x^3+1"}
    assert not is_primitive(Poly(F2, (1, 1, 1, 1, 1)))
    assert is_irreducible(Poly(F2, (1, 1, 1, 1, 1)))


# -- the byte-slot kernel for x**N mod f, against pow_mod --------------------

def pow_mod_route(monkeypatch):
    """Route _x_power through pow_mod, the oracle, until monkeypatch undoes it."""
    monkeypatch.setattr(polys, "_x_power", lambda f: lambda N: polys.pow_mod(Poly.x(f.ctx), N, f))


def counting_pow_mod(monkeypatch) -> list:
    """The arguments of every pow_mod call from now on."""
    calls, pow_mod = [], polys.pow_mod
    monkeypatch.setattr(polys, "pow_mod", lambda *args: calls.append(args) or pow_mod(*args))
    return calls


@pytest.mark.parametrize("k", [63, 64])
def test_x_power_on_the_worst_case_at_its_bound(monkeypatch, k):
    """f = 1 + x + ... + x**k over F_3 divides x**(k + 1) - 1, so
    x**k mod f has every coefficient 2 = p - 1, and x**(2k) squares that
    residue: its middle slot sums k * 4, 252 at k = 63, where the kernel
    runs, and 256 at k = 64, where a byte would carry and pow_mod runs."""
    f = Poly(F3, (1,) * (k + 1))
    x = Poly.x(F3)
    assert polys.pow_mod(x, k, f) == Poly(F3, (2,) * k)
    exponents = (2 * k, 2 * k + 1, k * k + 1, 3**5)
    calls = counting_pow_mod(monkeypatch)
    power = polys._x_power(f)
    got = [power(N) for N in exponents]
    assert bool(calls) == (k == 64)
    monkeypatch.undo()
    assert got == [polys.pow_mod(x, N, f) for N in exponents]
    assert got[0] == Poly(F3, (0,) * (k - 1) + (1,))  # x**(2k) = x**(k - 1) mod f


def oracle_modulus(ctx, k, rng):
    """random_modulus drawn with Rabin's test on pow_mod, so that a broken
    kernel cannot stall its rejection loop."""
    with pytest.MonkeyPatch.context() as patch:
        pow_mod_route(patch)
        return random_modulus(ctx, k, rng)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_x_power_matches_pow_mod_on_random_moduli(p):
    """Random monic moduli, irreducible (tests/sampling.py) and not, at
    degrees up to 16 and at the largest degree k with k * (p - 1)**2 <
    256 where that is smaller, against pow_mod on random exponents."""
    ctx, rng = build_field(p), random.Random(f"x-power/{p}")
    x = Poly.x(ctx)
    top = 255 // (p - 1) ** 2
    for k in sorted({1, 2, 3, min(top, 8), min(top, 16)}):
        for f in (oracle_modulus(ctx, k, rng),
                  Poly(ctx, [rng.randrange(p) for _ in range(k)] + [1])):
            power = polys._x_power(f)
            for N in (0, 1, k, p**k, rng.randrange(p ** (2 * k)), rng.randrange(2**64)):
                assert power(N) == polys.pow_mod(x, N, f), (f, N)


@pytest.mark.parametrize("ctx, top", [(F2, 8), (F3, 5)], ids=["GF(2)", "GF(3)"])
def test_order_tests_match_rabin_on_pow_mod(monkeypatch, ctx, top):
    """is_irreducible and is_primitive on the kernel against the same
    tests on pow_mod, for every monic polynomial up to degree top."""
    every = [f for d in range(1, top + 1) for f in monic_polys(ctx, d)]
    verdicts = [(is_irreducible(f), is_primitive(f)) for f in every]
    pow_mod_route(monkeypatch)
    assert verdicts == [(is_irreducible(f), is_primitive(f)) for f in every]
    assert sum(irr for irr, _ in verdicts) > sum(prim for _, prim in verdicts) > 0


@pytest.mark.parametrize("q", [3, 4, 9])
def test_only_the_prime_field_takes_the_kernel(monkeypatch, q):
    """Over F_3 the order tests call no pow_mod; over GF(4) and GF(9),
    whose scalars are codes and not residues, they call nothing else."""
    ctx = wide_field(q)
    f = oracle_modulus(ctx, 3, random.Random(f"x-power/route/{q}"))
    calls = counting_pow_mod(monkeypatch)
    verdicts = (is_irreducible(f), is_primitive(f))
    assert bool(calls) == (q != 3)
    pow_mod_route(monkeypatch)
    assert verdicts[0] and verdicts == (is_irreducible(f), is_primitive(f))


@pytest.mark.parametrize("q", [3, 4])
def test_is_primitive_builds_one_kernel_per_call(monkeypatch, q):
    """is_primitive runs Rabin's test and the order test on one
    _x_power(f): one build per call, for f of degree 1, reducible,
    irreducible and primitive, over F_3 (the byte-slot kernel) and GF(4)
    (pow_mod)."""
    ctx = wide_field(q)
    every = [f for d in range(1, 4) for f in monic_polys(ctx, d)]
    irreducible = [is_irreducible(f) for f in every]
    built, x_power = [], polys._x_power
    monkeypatch.setattr(polys, "_x_power", lambda f: built.append(f) or x_power(f))
    primitive = [is_primitive(f) for f in every]
    assert built == every
    assert any(irr and not prim for irr, prim in zip(irreducible, primitive))
    assert any(primitive) and not all(irreducible)


def test_q_totient_fixtures():
    assert q_totient(Poly(F2, (0, 1))) == 1
    assert q_totient(Poly(F3, (0, 1))) == 2
    assert q_totient(Poly(F2, (0, 1, 1))) == 1
    assert q_totient(Poly(F2, (1, 1, 1))) == 3
    assert q_totient(Poly(F2, (1, 1, 0, 0, 1))) == 15
    assert q_totient(Poly(F3, (1, 0, 1))) == 8


def test_q_totient_closed_matches_brute():
    for ctx, max_deg in ((F2, 4), (F3, 3)):
        for d in range(1, max_deg + 1):
            for f in monic_polys(ctx, d):
                assert q_totient(f, "closed") == q_totient(f, "brute"), f


@pytest.mark.parametrize("q", WIDE_QS)
def test_q_totient_closed_matches_brute_over_wide_fields(q):
    ctx = wide_field(q)
    for d in (1, 2):
        for f in monic_polys(ctx, d):
            assert q_totient(f, "closed") == q_totient(f, "brute"), f


def test_q_totient_brute_respects_scan_bound(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "4")
    with pytest.raises(ScanBoundExceeded):
        q_totient(Poly(F2, (1, 1, 0, 0, 1)), "brute")


def test_q_totient_rejects_degree_zero():
    with pytest.raises(BadArgs):
        q_totient(Poly(F2, (1,)))


def test_coprime_pair_count_fixtures():
    assert coprime_pair_count(1, 1, F2) == 1
    assert coprime_pair_count(2, 2, F2) == 7
    assert coprime_pair_count(3, 2, F3) == 80
    assert coprime_pair_count(4, 4, F2) == 127


def test_coprime_pair_count_closed_matches_brute():
    for ctx in (F2, F3):
        for n1 in range(1, 5):
            for n2 in range(1, n1 + 1):
                closed = coprime_pair_count(n1, n2, ctx, "closed")
                brute = coprime_pair_count(n1, n2, ctx, "brute")
                assert closed == brute, (n1, n2, ctx.size)


@pytest.mark.parametrize("q", WIDE_QS)
def test_coprime_pair_count_closed_matches_brute_over_wide_fields(q):
    ctx = wide_field(q)
    for n1, n2 in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        closed = coprime_pair_count(n1, n2, ctx, "closed")
        assert coprime_pair_count(n1, n2, ctx, "brute") == closed, (n1, n2, q)


def pair_scan(n1, n2, ctx):
    """The pair-by-pair scan the residue scan replaced: _coprime on every
    pair (f1, f2), f1 nonzero of degree < n1 and f2 monic of degree < n2."""
    q = ctx.size
    monics = [list(integers.to_digits(code, q, t)) + [ctx.one]
              for t in range(n2) for code in range(q**t)]
    return sum(polys._coprime(ctx, f1, f2)
               for f1 in polys._nonzero_codes(ctx, n1) for f2 in monics)


@pytest.mark.parametrize("q", (2, 3) + WIDE_QS)
def test_the_residue_scan_matches_the_pair_scan(q):
    """Every (n1, n2) with n2 <= n1 <= 3, n1 > n2 among them, where each
    residue stands for q**(n1 - t) polynomials f1.  Euclid goes past its
    first step only at n2 = 3, where a residue of degree 1 can share a
    factor with f2."""
    ctx = wide_field(q)
    for n1 in range(1, 4):
        for n2 in range(1, n1 + 1):
            brute = coprime_pair_count(n1, n2, ctx, "brute")
            assert brute == pair_scan(n1, n2, ctx) == q ** (n1 + n2 - 1) - 1, (n1, n2, q)


@pytest.mark.parametrize("q, n1, n2", [(2, 4, 3), (3, 3, 3), (4, 3, 2)])
def test_the_residue_scan_tests_each_nonzero_residue_once(monkeypatch, q, n1, n2):
    """One _coprime call per monic f2 of degree t >= 1 and nonzero
    residue r of degree < t, by degree, then f2's code, then r's code,
    with f2 as the dividend; f2 = 1 needs no call."""
    ctx = wide_field(q)
    calls, kernel = [], polys._coprime
    monkeypatch.setattr(polys, "_coprime",
                        lambda ctx, a, b: calls.append((tuple(a), tuple(b))) or kernel(ctx, a, b))
    coprime_pair_count(n1, n2, ctx, "brute")
    expected = [
        (tuple(integers.to_digits(code, q, t)) + (ctx.one,), tuple(r))
        for t in range(1, n2) for code in range(q**t) for r in polys._nonzero_codes(ctx, t)
    ]
    assert calls == expected
    assert len(calls) == sum(q**t * (q**t - 1) for t in range(1, n2))


def random_poly(ctx, rng, degree):
    """A random polynomial of the given degree (0 may draw the zero one)."""
    top = rng.randrange(1, ctx.size) if degree else rng.randrange(ctx.size)
    return Poly(ctx, [rng.randrange(ctx.size) for _ in range(degree)] + [top])


def coprime_oracle(f, g):
    return gcd(f, g).degree == 0


@pytest.mark.parametrize("q", (2, 3) + WIDE_QS)
def test_coprime_kernel_matches_gcd_on_random_pairs(q):
    """The scan kernel against Poly's gcd: random pairs, random pairs
    with a common factor, and pairs in either degree order.  Leading
    coefficients are drawn at random, so most divisors and remainders
    are not monic."""
    ctx = wide_field(q)
    rng = random.Random(f"coprime/{q}")
    seen = set()
    for _ in range(60):
        f1 = random_poly(ctx, rng, rng.randrange(6))
        f2 = random_poly(ctx, rng, rng.randrange(1, 6))
        common = random_poly(ctx, rng, rng.randrange(1, 3))
        for a, b in ((f1, f2), (f2, f1), (f1 * common, f2 * common)):
            if b.is_zero:
                continue
            expected = coprime_oracle(a, b)
            assert polys._coprime(ctx, a.coeffs, b.coeffs) == expected, (a, b)
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("q", (2, 3) + WIDE_QS)
def test_coprime_kernel_edge_cases(q):
    ctx = wide_field(q)
    rng = random.Random(f"coprime-edges/{q}")
    one = Poly(ctx, (1,))
    for _ in range(10):
        f = random_poly(ctx, rng, rng.randrange(1, 5))
        g = random_poly(ctx, rng, rng.randrange(f.degree + 1, 7))
        cases = [(f, g), (f, f), (f, one), (one, f), (Poly(ctx, ()), f), (Poly(ctx, ()), one)]
        for a, b in cases:
            assert polys._coprime(ctx, a.coeffs, b.coeffs) == coprime_oracle(a, b), (a, b)
    assert polys._coprime(ctx, f.coeffs, one.coeffs)
    assert not polys._coprime(ctx, f.coeffs, f.coeffs)


def test_coprime_kernel_with_non_monic_remainders():
    F5 = build_field(5)
    x2 = Poly(F5, (1, 0, 1))  # x^2 + 1
    # x^3 + 3x = x (x^2 + 1) + 2x: remainder 2x, then gcd(x^2 + 1, x) = 1
    assert polys._coprime(F5, (0, 3, 0, 1), x2.coeffs)
    # (x + 1)(x + 2) x + 2(x + 1): remainder 2x + 2, gcd x + 1
    f2 = Poly(F5, (2, 3, 1))
    f1 = f2 * Poly(F5, (0, 1)) + Poly(F5, (2, 2))
    assert divmod(f1, f2)[1].coeffs == (2, 2)
    assert gcd(f1, f2) == Poly(F5, (1, 1))
    assert not polys._coprime(F5, f1.coeffs, f2.coeffs)


def test_coprime_pair_count_recursion_identity():
    """Telescoping identity that the closed form must satisfy."""
    for ctx in (F2, F3):
        q = ctx.size
        for n1 in range(1, 5):
            for n2 in range(1, n1 + 1):
                lhs = (q**n1 - 1) * (q**n2 - 1) // (q - 1)
                rhs = sum(q**d * coprime_pair_count(n1 - d, n2 - d, ctx) for d in range(n2))
                assert lhs == rhs, (n1, n2, q)


def test_coprime_pair_count_requires_ordered_degrees():
    with pytest.raises(BoundOrder):
        coprime_pair_count(2, 3, F2)


def test_find_irreducibles_order_and_kinds():
    quartics = find_irreducibles(F2, 4)
    assert [str(f) for f in quartics] == ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]
    assert [str(f) for f in find_irreducibles(F2, 4, "primitive_only")] == [
        "x^4+x+1",
        "x^4+x^3+1",
    ]
    nonprimitive = set(quartics) - set(find_irreducibles(F2, 4, "primitive_only"))
    assert [str(f) for f in nonprimitive] == ["x^4+x^3+x^2+x+1"]
    with pytest.raises(BadArgs):
        find_irreducibles(F2, 4, "bogus")


def test_find_irreducibles_counts():
    # Necklace counts: (q^d - sum over proper divisors) / d for prime d.
    assert len(find_irreducibles(F2, 2)) == 1
    assert len(find_irreducibles(F2, 3)) == 2
    assert len(find_irreducibles(F3, 2)) == 3
    assert len(find_irreducibles(F3, 3)) == 8


def test_factor_roundtrip():
    for ctx, max_deg in ((F2, 4), (F3, 3)):
        for d in range(1, max_deg + 1):
            for f in monic_polys(ctx, d):
                parts = polys.factor(f)
                prod = Poly(ctx, (1,))
                for g, mult in parts:
                    assert g.is_monic
                    assert is_irreducible(g)
                    for _ in range(mult):
                        prod = prod * g
                assert prod == f, f

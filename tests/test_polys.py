"""Polynomial layer: gcd, irreducibility, primitivity, totients, censuses."""

import itertools

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
from splitlab import polys

F2 = build_field(2)
F3 = build_field(3)


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


def test_polys_of_degree_below_counts():
    assert sum(1 for _ in polys.polys_of_degree_below(F2, 3)) == 8
    assert sum(1 for _ in polys.polys_of_degree_below(F3, 2)) == 9

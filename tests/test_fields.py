"""Field towers: construction, canonical moduli, and exhaustive axiom tables."""

import itertools
import random
import signal

import numpy as np
import pytest

from splitlab import (
    BadArgs,
    ContextMismatch,
    NotIrreducible,
    NotMonic,
    NotPrime,
    Poly,
    SizeExceeded,
    build_extension,
    build_field,
    field_from_order,
    generates,
)
from splitlab import fields, integers, polys
from sampling import random_base, random_tower

F2 = build_field(2)
F3 = build_field(3)


def rank_map(ctx):
    """All elements as raws in rank order, plus a raw -> rank function."""
    if isinstance(ctx, fields.TowerCtx):
        return [ctx.from_rank(i).raw for i in range(ctx.size)], ctx.rank
    return list(range(ctx.size)), lambda raw: raw


def op_tables(ctx):
    raws, rank = rank_map(ctx)
    n = ctx.size
    add = np.zeros((n, n), dtype=np.uint16)
    mul = np.zeros((n, n), dtype=np.uint16)
    for i, a in enumerate(raws):
        for j, b in enumerate(raws):
            add[i, j] = rank(ctx.add(a, b))
            mul[i, j] = rank(ctx.mul(a, b))
    return raws, rank, add, mul


def check_axioms(ctx):
    raws, rank, add, mul = op_tables(ctx)
    n = ctx.size
    zero = rank(ctx.zero)
    one = rank(ctx.one)
    idx = np.arange(n)

    assert (add == add.T).all()
    assert (mul == mul.T).all()
    assert (add[add, :] == add[:, add]).all()
    assert (mul[mul, :] == mul[:, mul]).all()
    assert (add[zero] == idx).all()
    assert (mul[one] == idx).all()
    assert (mul[zero] == zero).all()
    # every row of + is a permutation hitting zero once; nonzero rows of * too
    assert all(sorted(add[i]) == list(idx) for i in range(n))
    for i in range(n):
        if i != zero:
            assert sorted(mul[i][idx != zero]) == [k for k in idx if k != zero]
    # distributivity
    assert (mul[:, add] == add[mul[:, :, None].repeat(n, 2), mul[:, None, :].repeat(n, 1)]).all()
    # Frobenius is additive
    p = ctx.p
    frob = np.array([rank(ctx.frobenius(a, 1)) for a in raws])
    pw = np.array([rank(ctx.power(a, p)) for a in raws])
    assert (frob == pw).all()
    assert (frob[add] == add[frob[:, None], frob[None, :]]).all()


def test_axioms_prime_fields():
    check_axioms(F2)
    check_axioms(F3)
    check_axioms(build_field(5))


def test_axioms_prime_power_fields():
    check_axioms(build_field(2, 2))
    check_axioms(build_field(2, 3))
    check_axioms(build_field(3, 2))
    check_axioms(build_field(2, 4))


def test_axioms_towers():
    check_axioms(build_extension(F2, 4))
    check_axioms(build_extension(build_field(2, 2), 2))
    check_axioms(build_extension(F3, 2))


def test_axioms_f256():
    check_axioms(build_field(2, 8))


class PolyRoute:
    """The generic route for F_{p^e} on codes: digits as a Poly over F_p,
    sums and products reduced with % and inverses by xgcd modulo
    ctx.modulus.  FieldCtx must agree with it everywhere."""

    def __init__(self, ctx):
        self.p, self.e = ctx.p, ctx.e
        self.prime = build_field(ctx.p)
        self.mod = Poly(self.prime, ctx.modulus)

    def poly(self, code):
        return Poly(self.prime, integers.to_digits(code, self.p, self.e))

    def code(self, f):
        return integers.from_digits((f % self.mod).coeffs, self.p)

    def add(self, a, b):
        return self.code(self.poly(a) + self.poly(b))

    def sub(self, a, b):
        return self.code(self.poly(a) - self.poly(b))

    def neg(self, a):
        return self.code(-self.poly(a))

    def mul(self, a, b):
        return self.code(self.poly(a) * self.poly(b))

    def inv(self, a):
        g, s, _ = polys.xgcd(self.poly(a), self.mod)
        assert g.coeffs == (1,)
        return self.code(s)

    def power(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        result = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result


def check_against_poly_route(ctx, pairs, singles):
    route = PolyRoute(ctx)
    q = ctx.size
    exponents = (0, 1, 2, 5, q - 2, q - 1, q, 10**18 + 7)
    for a, b in pairs:
        assert ctx.add(a, b) == route.add(a, b), (ctx, a, b)
        assert ctx.sub(a, b) == route.sub(a, b), (ctx, a, b)
        assert ctx.mul(a, b) == route.mul(a, b), (ctx, a, b)
        if b:
            assert ctx.div(a, b) == route.mul(a, route.inv(b)), (ctx, a, b)
    for a in singles:
        assert ctx.neg(a) == route.neg(a), (ctx, a)
        for k in exponents:
            assert ctx.power(a, k) == route.power(a, k), (ctx, a, k)
        for r in range(ctx.e + 1):
            assert ctx.frobenius(a, r) == route.power(a, ctx.p**r), (ctx, a, r)
        if a:
            assert ctx.inv(a) == route.inv(a), (ctx, a)
            for k in (-1, -2, -(q - 1), -(10**18 + 7)):
                assert ctx.power(a, k) == route.power(a, k), (ctx, a, k)


def check_tables(ctx):
    """exp runs once through the units in its first q - 1 entries and
    repeats them; log inverts it; for odd p the only Zech entry
    log(1 + g**k) that is undefined is at g**k = -1, k = (q - 1) / 2."""
    q = ctx.size
    units = q - 1
    exp, log = ctx._exp, ctx._log
    assert len(exp) == 2 * units
    assert sorted(exp[:units]) == list(range(1, q))
    assert exp[units:] == exp[:units]
    assert [log[exp[k]] for k in range(units)] == list(range(units))
    if ctx.p == 2:
        assert ctx._zech is None
    else:
        assert [k for k, z in enumerate(ctx._zech) if z == -1] == [units // 2]


def test_prime_power_fields_match_the_poly_route_on_every_pair():
    for p, e in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)):
        ctx = build_field(p, e)
        everything = range(ctx.size)
        check_against_poly_route(ctx, itertools.product(everything, repeat=2), everything)


def test_prime_power_fields_match_the_poly_route_on_random_pairs():
    rng = random.Random(5)
    for ctx in (build_field(2, 8), build_field(3, 5), build_field(7, 3), build_field(2**31 - 1, 2),
                build_field(2, 16), build_field(251, 2), build_field(2, 17), build_field(257, 2)):
        pairs = [(rng.randrange(ctx.size), rng.randrange(ctx.size)) for _ in range(150)]
        singles = [0, 1] + [rng.randrange(ctx.size) for _ in range(20)]
        check_against_poly_route(ctx, pairs, singles)


def test_random_moduli_match_the_poly_route():
    rng = random.Random(11)
    for q in (2**4, 3**3, 5**2, 2**8):
        ctx = random_base(q, rng, other=True)
        check_tables(ctx)
        pairs = [(rng.randrange(ctx.size), rng.randrange(ctx.size)) for _ in range(150)]
        singles = [0, 1] + [rng.randrange(ctx.size) for _ in range(20)]
        check_against_poly_route(ctx, pairs, singles)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_tower_reduction_rows_match_pow_mod_on_random_moduli(q):
    """A tower's reduction rows, x**(d+t) mod f for t < d - 1, each taken
    from the one before it by a shift and one reduction by its lead,
    equal pow_mod's over random bases and random moduli of every degree
    d <= 8, and so do products of random elements with their Poly
    route."""
    rng = random.Random(f"tower/red/{q}")
    base = random_base(q, rng)
    x = Poly.x(base)
    for d in range(1, 9):
        tower = random_tower(base, d, rng)
        f = tower.defining_poly
        assert tower._red == tuple(
            tower._pad(polys.pow_mod(x, d + t, f).coeffs) for t in range(d - 1))
        for _ in range(5):
            a, b = (tuple(rng.randrange(q) for _ in range(d)) for _ in range(2))
            assert tower.mul(a, b) == tower._pad(((Poly(base, a) * Poly(base, b)) % f).coeffs)


def test_random_base_other_refuses_where_no_other_modulus_exists():
    """F_4 has one monic irreducible quadratic over F_2, so asking for
    another raises at once instead of rejecting draws forever; every
    other field of the suite has a second modulus and returns it.  An
    interval timer turns a hang into a failure."""

    def hung(signum, frame):
        raise TimeoutError("random_base did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValueError, match="F_4"):
            random_base(4, random.Random(0), other=True)
        for q in (8, 9, 16, 25, 27, 49):
            ctx = random_base(q, random.Random(q), other=True)
            assert ctx.size == q and ctx.modulus != field_from_order(q).modulus
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_tables_hold_up_to_the_cap_and_the_tower_above_it():
    for p, e in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
                 (2, 8), (3, 5), (7, 3), (2, 16), (251, 2)):
        ctx = build_field(p, e)
        assert ctx.size <= fields._TABLE_MAX
        check_tables(ctx)
    for p, e in ((2, 17), (257, 2), (2**31 - 1, 2)):
        ctx = build_field(p, e)
        assert ctx.size > fields._TABLE_MAX
        assert ctx._exp is ctx._log is ctx._zech is None
    assert build_field(7)._log is None


def test_canonical_moduli_are_least():
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(2, 3).modulus == (1, 0, 1, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)
    assert build_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert build_extension(F2, 4).defining_poly.coeffs == (1, 0, 0, 1, 1)
    # the candidate walk is lazy, so a huge prime field costs no memory
    assert build_field(2**31 - 1, 2).modulus == (1, 0, 1)


def test_field_from_order():
    assert field_from_order(9).modulus == (1, 0, 1)
    assert field_from_order(7).size == 7
    assert field_from_order(16).size == 16
    with pytest.raises(BadArgs):
        field_from_order(12)
    with pytest.raises(BadArgs):
        field_from_order(1)


def test_construction_is_deterministic():
    a = build_field(2, 4)
    b = build_field(2, 4)
    assert a.modulus == b.modulus
    assert build_extension(F3, 2).defining_poly == build_extension(F3, 2).defining_poly


def test_generator_orders():
    # alpha has order 15 modulo a primitive modulus, 5 modulo x^4+x^3+x^2+x+1
    assert polys.is_primitive(Poly(F2, (1, 1, 0, 0, 1)))
    assert not polys.is_primitive(Poly(F2, (1, 1, 1, 1, 1)))
    # the default modulus (1, 0, 0, 1, 1) is primitive
    assert polys.is_primitive(build_extension(F2, 4).defining_poly)


def test_generates():
    tower = build_extension(F2, 4)
    gens = [beta for beta in tower.elements() if generates(tower, beta)]
    assert len(gens) == 12  # 16 elements minus the copy of F_4
    assert generates(tower, tower.alpha)
    assert not generates(tower, tower.element_from_raw(tower.one))
    with pytest.raises(ContextMismatch):
        generates(tower, build_extension(F2, 2).alpha)
    with pytest.raises(BadArgs):
        generates(F2, F2.element(1))


@pytest.mark.parametrize("q, d", [(2, 4), (3, 2), (4, 2), (8, 2)])
def test_generates_matches_the_frobenius_orbit(q, d):
    """beta generates F_{q^d} over F_q exactly when beta**(q**k) != beta
    for every proper divisor k of d, over random moduli of base and
    tower."""
    rng = random.Random(f"generates/{q},{d}")
    tower = random_tower(random_base(q, rng), d, rng)
    divisors = [k for k in range(1, d) if d % k == 0]
    gens = 0
    for beta in tower.elements():
        orbit = all(tower.power(beta.raw, q**k) != beta.raw for k in divisors)
        assert generates(tower, beta) == orbit, beta.coords
        gens += orbit
    # d is 2 or 4, so the non-generators are the subfield F_{q^(d/2)}
    assert gens == q**d - q ** (d // 2)


def test_coords_roundtrip():
    tower = build_extension(build_field(2, 2), 2)
    for beta in tower.elements():
        c = beta.coords
        assert len(c) == tower.d
        assert tower.element(c) == beta
    assert tower.alpha.coords == (0, 1)


def test_embed_base_is_a_homomorphism():
    base = build_field(3)
    tower = build_extension(base, 2)
    for a in range(3):
        for b in range(3):
            assert tower.embed_base(base.add(a, b)) == tower.add(
                tower.embed_base(a), tower.embed_base(b)
            )
            assert tower.embed_base(base.mul(a, b)) == tower.mul(
                tower.embed_base(a), tower.embed_base(b)
            )


def test_frobenius_fixed_points_are_the_base_field():
    tower = build_extension(build_field(2, 2), 2)
    fixed = [b for b in tower.elements() if tower.frobenius(b.raw, tower.base.e) == b.raw]
    assert len(fixed) == 4


def test_rank_roundtrip_and_range():
    tower = build_extension(F3, 2)
    seen = set()
    for beta in tower.elements():
        r = tower.rank(beta.raw)
        assert 0 <= r < 9
        assert tower.from_rank(r) == beta
        seen.add(r)
    assert seen == set(range(9))


def test_build_errors():
    with pytest.raises(NotPrime):
        build_field(6)
    with pytest.raises(NotPrime):
        build_field(1)
    with pytest.raises(SizeExceeded):
        build_field(2, 63)
    with pytest.raises(SizeExceeded):
        build_extension(build_field(2, 2), 32)
    with pytest.raises(NotIrreducible):
        build_extension(F2, 2, Poly(F2, (0, 0, 1)))
    with pytest.raises(NotMonic):
        build_extension(F3, 2, Poly(F3, (1, 0, 2)))
    with pytest.raises(ContextMismatch):
        build_extension(F2, 2, Poly(F3, (1, 2, 1)))


def test_element_validation():
    with pytest.raises(BadArgs):
        F3.element(3)
    with pytest.raises(BadArgs):
        F3.element(-1)
    tower = build_extension(F2, 2)
    with pytest.raises(BadArgs):
        tower.element((0, 1, 0))
    with pytest.raises(BadArgs):
        tower.element((0, 2))

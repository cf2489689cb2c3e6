"""Field towers: construction, canonical moduli, and exhaustive axiom tables."""

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
    ZeroElement,
    build_extension,
    build_field,
    coords_of,
    field_from_order,
    from_coords,
    generates,
    multiplicative_order,
)
from splitlab import fields, integers

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
    prim = build_extension(F2, 4, Poly(F2, (1, 1, 0, 0, 1)))
    assert multiplicative_order(prim, prim.alpha) == 15
    slow = build_extension(F2, 4, Poly(F2, (1, 1, 1, 1, 1)))
    assert multiplicative_order(slow, slow.alpha) == 5
    # the default modulus (1, 0, 0, 1, 1) is primitive
    default = build_extension(F2, 4)
    assert multiplicative_order(default, default.alpha) == 15


def test_multiplicative_order_divides_group_order():
    tower = build_extension(F2, 4)
    orders = {}
    for beta in tower.elements():
        if beta.is_zero:
            continue
        k = multiplicative_order(tower, beta)
        assert 15 % k == 0
        orders[k] = orders.get(k, 0) + 1
    # phi(k) elements of each order k dividing 15
    assert orders == {k: integers.euler_phi(k) for k in (1, 3, 5, 15)}


def test_multiplicative_order_errors():
    tower = build_extension(F2, 4)
    other = build_extension(F2, 2)
    with pytest.raises(ZeroElement):
        multiplicative_order(tower, tower.element_from_raw(tower.zero))
    with pytest.raises(ContextMismatch):
        multiplicative_order(tower, other.alpha)


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


def test_coords_roundtrip():
    tower = build_extension(build_field(2, 2), 2)
    for beta in tower.elements():
        c = coords_of(tower, beta)
        assert len(c) == tower.d
        assert from_coords(tower, c) == beta
    assert coords_of(tower, tower.alpha) == (0, 1)


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

"""The characteristic-polynomial kernel of the recurrence censuses
against its oracle: char_poly of the whole block companion."""

import itertools
import random

import pytest

from splitlab import (
    BlockRecurrence,
    Matrix,
    block_companion,
    char_poly,
    enumerate_recurrences,
    field_from_order,
    is_irreducible,
    lfsr,
    linalg,
)
from sampling import random_base, random_matrix


def oracle(rec):
    return char_poly(block_companion(rec)).coeffs


def check(ctx, m, n, recs):
    for weight, rec in enumerate(recs, 1):
        got = list(lfsr._char_polys(ctx, m, n, [(rec.C, weight)], []))
        assert got == [(oracle(rec), weight)], rec


def random_recs(ctx, m, n, count, rng):
    return [
        BlockRecurrence(ctx, m, tuple(random_matrix(ctx, m, m, rng) for _ in range(n)))
        for _ in range(count)
    ]


# every shape whose full scan has at most 4096 tuples, over the prime
# fields and over F_4, F_8 and F_9
SMALL_SHAPES = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 13)
    if q ** (m * m * n) <= 4096
]


@pytest.mark.parametrize("q, m, n", SMALL_SHAPES)
def test_kernel_matches_char_poly_on_every_small_scan(q, m, n):
    ctx = field_from_order(q)
    check(ctx, m, n, enumerate_recurrences(ctx, m, n))


@pytest.mark.parametrize("q, m, n", [shape for shape in SMALL_SHAPES if shape[0] in (4, 8, 9)])
def test_kernel_matches_char_poly_on_every_small_scan_over_a_random_modulus(q, m, n):
    ctx = random_base(q, random.Random(f"char_polys/small/{q},{m},{n}"))
    check(ctx, m, n, enumerate_recurrences(ctx, m, n))


@pytest.mark.parametrize("q, m, n", [(2, 3, 2), (3, 2, 3), (2, 2, 4), (7, 3, 1), (5, 4, 1)])
def test_kernel_matches_char_poly_on_random_recurrences(q, m, n):
    ctx = field_from_order(q)
    rng = random.Random(f"char_polys/{q},{m},{n}")
    check(ctx, m, n, random_recs(ctx, m, n, 200, rng))


@pytest.mark.parametrize("q", (4, 8, 9))
def test_kernel_over_random_extension_moduli(q):
    rng = random.Random(f"char_polys/ext/{q}")
    ctx = random_base(q, rng)
    check(ctx, 2, 1, enumerate_recurrences(ctx, 2, 1))
    for m, n in ((1, 3), (2, 2), (3, 1)):
        check(ctx, m, n, random_recs(ctx, m, n, 30, rng))


@pytest.mark.parametrize(
    "q, m, n",
    [(7, 3, 2), (5, 4, 1), (4, 3, 2), (8, 3, 1), (9, 3, 1), (16, 2, 2), (25, 2, 2), (256, 2, 1)],
)
def test_kernel_at_the_largest_slot_values(q, m, n):
    """Every C_j entry the code whose base-p digits are all 1 puts p - 1
    in every packed subslot of -C_j, the largest sums the slot width has
    to hold.  That matrix is symmetric under every permutation, so the
    two signed sums carry alike; every C_j that scalar times I leaves
    the odd sum 0, and an overflow of the even sum shows.  Every entry
    q - 1, whose digits are all p - 1, and every C_j = I come along.
    At (16, 2, 2) and (256, 2, 1) a slot width without the factor
    e**(m - 1) overflows."""
    ctx = field_from_order(q)
    ones = (q - 1) // (ctx.p - 1)
    mats = [
        Matrix(ctx, [[ones] * m] * m),
        Matrix(ctx, [[ones if r == c else 0 for c in range(m)] for r in range(m)]),
        Matrix(ctx, [[q - 1] * m] * m),
        Matrix.identity(ctx, m),
    ]
    check(ctx, m, n, [BlockRecurrence(ctx, m, (mat,) * n) for mat in mats])


@pytest.mark.parametrize("m, n", [(1, 3), (2, 1), (2, 2)])
def test_kernel_over_a_field_past_the_tables(m, n):
    """GF(2**17) has no log tables: every oracle op runs in the tower,
    while the kernel reads only the codes' digits."""
    ctx = field_from_order(2**17)
    check(ctx, m, n, random_recs(ctx, m, n, 3, random.Random(f"char_polys/tower/{m},{n}")))


def test_census_routes_never_build_a_block_companion(monkeypatch):
    """BCSCC and the fiber histogram take every characteristic
    polynomial from the kernel, over F_{p^e} with e > 1 too."""

    def refuse(*args):
        raise AssertionError("a census route built a block companion")

    monkeypatch.setattr(linalg, "char_poly", refuse)
    monkeypatch.setattr(lfsr, "block_companion", refuse)
    assert lfsr.census_singer(2, 1, 4) == lfsr.pvrc_formula(2, 1, 4)
    ctx = field_from_order(9)
    hist = lfsr.fiber_histogram(ctx, 2, 1)
    assert sum(hist.values()) == 9**4
    irreducible = [f for f in hist if is_irreducible(f)]
    assert len(irreducible) == (9**2 - 9) // 2
    assert {hist[f] for f in irreducible} == {lfsr.nofiber_formula(2, 1, 9)}


def test_kernel_packs_each_coefficient_matrix_by_identity():
    """Equal matrices built apart, and one matrix at two positions, each
    give the polynomial of their own recurrence."""
    ctx = field_from_order(3)
    a = Matrix(ctx, ((1, 2), (0, 1)))
    b = Matrix(ctx, ((0, 1), (1, 1)))
    recs = [
        BlockRecurrence(ctx, 2, (a, b)),
        BlockRecurrence(ctx, 2, (b, a)),
        BlockRecurrence(ctx, 2, (Matrix(ctx, a.rows), a)),
        BlockRecurrence(ctx, 2, (b, b)),
    ]
    check(ctx, 2, 2, recs)


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (3, 2, 2), (5, 1, 4), (4, 2, 2), (9, 1, 3)])
def test_kernel_walks_several_heads_and_tails_in_product_order(q, m, n):
    """Heads with prefixes of every length and several matrices for the
    free positions: the kernel yields one polynomial per tuple, heads
    outermost and the last position fastest, each with its head's
    weight."""
    rng = random.Random(f"char_polys/product/{q},{m},{n}")
    ctx = random_base(q, rng)
    mats = [random_matrix(ctx, m, m, rng) for _ in range(3)]
    heads = [
        (tuple(random_matrix(ctx, m, m, rng) for _ in range(j)), rng.randrange(1, 100))
        for j in range(1, n + 1)
    ]
    got = list(lfsr._char_polys(ctx, m, n, heads, mats))
    want = [
        (oracle(BlockRecurrence(ctx, m, prefix + C)), weight)
        for prefix, weight in heads
        for C in itertools.product(mats, repeat=n - len(prefix))
    ]
    assert got == want

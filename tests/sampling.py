"""The seeded random draws of the test suite, each in one place: fields
from random moduli, towers, splitting instances with random generators,
random, invertible, nilpotent and singular matrices, and the stacking
oracle the splitting kernels are checked against.  Every sampler takes
a random.Random and draws from it in a fixed order, so a seed string
names the same object in every test that uses it."""

from splitlab import (
    Matrix,
    Poly,
    SplitInstance,
    build_extension,
    build_field,
    field_from_order,
    fields,
    generates,
    integers,
    is_irreducible,
    linalg,
    vec_mat,
)


def random_modulus(ctx, d, rng, avoid=None):
    """A random monic irreducible polynomial of degree d over ctx, by
    rejection sampling; never the one whose coefficients are avoid."""
    while True:
        f = Poly(ctx, tuple(rng.randrange(ctx.size) for _ in range(d)) + (ctx.one,))
        if f.coeffs != avoid and is_irreducible(f):
            return f


def random_base(q, rng, other=False):
    """F_q = F_p[x]/(f) for a random monic irreducible f of degree e, or
    the prime field when e = 1; with other, f is not the canonical
    modulus, and a field with no other modulus (F_4, whose only one is
    x**2 + x + 1) raises ValueError."""
    p, e = integers.prime_power_split(q)
    prime = build_field(p)
    if e == 1:
        return prime
    # F_p has (p**2 - p) / 2 monic irreducible quadratics, one only at
    # p = 2, and at least two of every degree e > 2
    if other and q == 4:
        raise ValueError("F_4 has one monic irreducible quadratic over F_2, no other")
    avoid = field_from_order(q).modulus if other else None
    return fields.FieldCtx(p, e, random_modulus(prime, e, rng, avoid).coeffs)


def random_tower(base, d, rng):
    return build_extension(base, d, random_modulus(base, d, rng))


def random_instance(base, m, n, rng):
    """A SplitInstance over base with a random irreducible modulus of
    degree mn and a random generator, both by rejection sampling."""
    tower = random_tower(base, m * n, rng)
    while True:
        beta = tower.element(tuple(rng.randrange(base.size) for _ in range(m * n)))
        if not beta.is_zero and generates(tower, beta):
            return SplitInstance(tower, m, n, beta)


def random_matrix(ctx, nrows, ncols, rng):
    return Matrix(ctx, [[rng.randrange(ctx.size) for _ in range(ncols)]
                        for _ in range(nrows)], ncols)


def random_invertible(ctx, size, rng):
    while True:
        mat = random_matrix(ctx, size, size, rng)
        if mat.det() != ctx.zero:
            return mat


def random_nilpotent(ctx, size, rng):
    """A conjugate S N S^-1 of a random strictly upper triangular N."""
    N = Matrix(ctx, [[rng.randrange(ctx.size) if j > i else 0 for j in range(size)]
                     for i in range(size)])
    S = random_invertible(ctx, size, rng)
    return S * N * S.inverse()


def random_singular(ctx, size, rng):
    """A random matrix whose last row repeats the first."""
    rows = random_matrix(ctx, size, size, rng).rows
    return Matrix(ctx, rows[:-1] + rows[:1])


def splits_by_stacking(ctx, powers, rows):
    """The splitting oracle: every row's translates vec_mat(w, T^k)
    stacked and eliminated at once."""
    stacked = [vec_mat(w, P) for P in powers for w in rows]
    return linalg.rows_are_independent(ctx, stacked)

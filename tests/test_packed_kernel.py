"""The packed F_2 splitting kernel against the generic elimination it
replaces: tuple vec_mat stacking plus linalg.rows_are_independent."""

import itertools
import random

import pytest

from splitlab import (
    Matrix,
    Poly,
    SplitInstance,
    build_extension,
    build_field,
    count_splitting,
    count_splitting_bases,
    count_T_splitting,
    enumerate_subspaces,
    generates,
    is_irreducible,
    pointed_consistency,
    split_instance,
    ssc_formula,
    vec_mat,
)
from splitlab import linalg, splitting

F2 = build_field(2)
# every (m, n) with mn <= 6
SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6]


def generic_splits(ctx, powers, rows):
    stacked = list(rows)
    for P in powers[1:]:
        stacked.extend(vec_mat(w, P) for w in rows)
    return linalg.rows_are_independent(ctx, stacked)


def packed_splits(powers):
    """The kernel over F_2, with the translates packed once as a scan
    packs them."""
    return splitting._splitter(F2, powers)


def random_instance(m, n, rng):
    """A SplitInstance over F_2 with a random irreducible modulus of
    degree mn and a random generator, both by rejection sampling."""
    d = m * n
    while True:
        f = Poly(F2, tuple(rng.randrange(2) for _ in range(d)) + (1,))
        if is_irreducible(f):
            break
    tower = build_extension(F2, d, f)
    while True:
        beta = tower.element(tuple(rng.randrange(2) for _ in range(d)))
        if not beta.is_zero and generates(tower, beta):
            return SplitInstance(tower, m, n, beta)


def random_matrix(size, rng):
    return Matrix(F2, [[rng.randrange(2) for _ in range(size)] for _ in range(size)])


def random_nilpotent(size, rng):
    """A conjugate S N S^-1 of a random strictly upper triangular N."""
    N = Matrix(F2, [[rng.randrange(2) if j > i else 0 for j in range(size)]
                    for i in range(size)])
    while True:
        S = random_matrix(size, rng)
        if S.det():
            return S * N * S.inverse()


def random_singular(size, rng):
    """A random matrix whose last row repeats the first."""
    rows = random_matrix(size, rng).rows
    return Matrix(F2, rows[:-1] + rows[:1])


@pytest.mark.parametrize("m, n", SHAPES)
def test_packed_kernel_matches_generic_on_random_instances(m, n):
    rng = random.Random(f"instance/{m},{n}")
    for _ in range(3):
        inst = random_instance(m, n, rng)
        packed = packed_splits(inst.mats)
        accepted = 0
        for W in enumerate_subspaces(F2, m * n, m):
            expect = generic_splits(F2, inst.mats, W.rows)
            assert packed(W.rows) == expect, (inst, W.rows)
            accepted += expect
        assert accepted == count_splitting(inst).brute == ssc_formula(2, m, n), inst


@pytest.mark.parametrize("m, n", SHAPES)
def test_packed_kernel_matches_generic_for_any_endomorphism(m, n):
    rng = random.Random(f"endomorphism/{m},{n}")
    size = m * n
    family = [Matrix.zero(F2, size, size), Matrix.identity(F2, size)]
    for _ in range(2):
        family += [random_matrix(size, rng), random_nilpotent(size, rng)]
        if size > 1:
            family.append(random_singular(size, rng))
    for T in family:
        powers = splitting._powers(T, m, n)
        packed = packed_splits(powers)
        accepted = 0
        for W in enumerate_subspaces(F2, size, m):
            expect = generic_splits(F2, powers, W.rows)
            assert packed(W.rows) == expect, (T, W.rows)
            accepted += expect
        assert count_T_splitting(T, m, n) == accepted, T


@pytest.mark.parametrize("m, n", [(m, n) for m, n in SHAPES if 2 ** (m * m * n) <= 4096])
def test_packed_kernel_matches_generic_on_ordered_tuples(m, n):
    """The bases route feeds every ordered tuple, zero and repeated rows
    included."""
    inst = random_instance(m, n, random.Random(f"tuples/{m},{n}"))
    packed = packed_splits(inst.mats)
    vecs = [e.raw for e in inst.tower.elements()]
    zero = (0,) * (m * n)
    accepted = 0
    for combo in itertools.product(vecs, repeat=m):
        expect = generic_splits(F2, inst.mats, combo)
        assert packed(combo) == expect, combo
        accepted += expect
        if zero in combo or len(set(combo)) < m:
            assert not expect, combo
    assert count_splitting_bases(inst, "direct") == accepted, inst


def test_f2_scans_never_reach_the_generic_elimination(monkeypatch):
    def generic(*args, **kwargs):
        raise AssertionError("an F_2 scan took the generic elimination")

    # building an instance tests its generator through the generic
    # elimination (fields.generates); only the scans must avoid it
    inst, small = split_instance(2, 2, 3), split_instance(2, 2, 2)
    monkeypatch.setattr(linalg, "vec_mat", generic)
    monkeypatch.setattr(linalg, "rows_are_independent", generic)
    monkeypatch.setattr(linalg, "_echelon_insert", generic)
    assert count_splitting(inst).verdict == "match"
    assert pointed_consistency(inst).verdict == "match"
    assert count_splitting_bases(small, "direct") == 120

"""The packed F_2 splitting walk against the generic elimination it
replaces: tuple vec_mat stacking plus linalg.rows_are_independent, on
every candidate in the order a scan walks them."""

import itertools
import random

import pytest

from splitlab import (
    Matrix,
    build_field,
    count_splitting,
    count_splitting_bases,
    count_T_splitting,
    enumerate_subspaces,
    pointed_consistency,
    split_instance,
    ssc_formula,
)
from splitlab import linalg, splitting
from sampling import (
    random_instance,
    random_matrix,
    random_nilpotent,
    random_singular,
    splits_by_stacking,
)

F2 = build_field(2)
# every (m, n) with mn <= 6
SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6]


def packed_verdicts(powers, candidates):
    """(rows, verdict) for every candidate, walked over F_2 in the given
    order as a scan walks them."""
    candidates = list(candidates)
    return zip(candidates, splitting._verdicts(F2, powers, candidates), strict=True)


@pytest.mark.parametrize("m, n", SHAPES)
def test_packed_kernel_matches_generic_on_random_instances(m, n):
    rng = random.Random(f"instance/{m},{n}")
    for _ in range(3):
        inst = random_instance(F2, m, n, rng)
        accepted = 0
        candidates = (W.rows for W in enumerate_subspaces(F2, m * n, m))
        for rows, verdict in packed_verdicts(inst.mats, candidates):
            expect = splits_by_stacking(F2, inst.mats, rows)
            assert verdict == expect, (inst, rows)
            accepted += expect
        assert accepted == count_splitting(inst).brute == ssc_formula(2, m, n), inst


@pytest.mark.parametrize("m, n", SHAPES)
def test_packed_kernel_matches_generic_for_any_endomorphism(m, n):
    rng = random.Random(f"endomorphism/{m},{n}")
    size = m * n
    family = [Matrix.zero(F2, size, size), Matrix.identity(F2, size)]
    for _ in range(2):
        family += [random_matrix(F2, size, size, rng), random_nilpotent(F2, size, rng)]
        if size > 1:
            family.append(random_singular(F2, size, rng))
    for T in family:
        powers = splitting._powers(T, m, n)
        accepted = 0
        candidates = (W.rows for W in enumerate_subspaces(F2, size, m))
        for rows, verdict in packed_verdicts(powers, candidates):
            expect = splits_by_stacking(F2, powers, rows)
            assert verdict == expect, (T, rows)
            accepted += expect
        assert count_T_splitting(T, m, n) == accepted, T


@pytest.mark.parametrize("m, n", [(m, n) for m, n in SHAPES if 2 ** (m * m * n) <= 4096])
def test_packed_kernel_matches_generic_on_ordered_tuples(m, n):
    """The bases route feeds every ordered tuple, zero and repeated rows
    included."""
    inst = random_instance(F2, m, n, random.Random(f"tuples/{m},{n}"))
    vecs = [e.raw for e in inst.tower.elements()]
    zero = (0,) * (m * n)
    accepted = 0
    for combo, verdict in packed_verdicts(inst.mats, itertools.product(vecs, repeat=m)):
        expect = splits_by_stacking(F2, inst.mats, combo)
        assert verdict == expect, combo
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


def test_the_empty_head_keeps_no_translates(monkeypatch):
    """Under the empty head (m = 1) each candidate is one row of its
    own, so the walk splits a row into translates each time it meets it
    and keeps nothing; under a nonempty head a row is split once per
    scan and its translates are kept."""
    split = []
    compress = splitting.compress
    monkeypatch.setattr(
        splitting, "compress", lambda images, row: split.append(row) or compress(images, row)
    )
    lines = split_instance(2, 1, 6)
    row = (1, 0, 0, 0, 0, 0)
    assert list(splitting._verdicts(F2, lines.mats, [(row,), (row,)])) == [True, True]
    assert split == [row, row]

    planes = split_instance(2, 2, 3)
    row, head = next(  # the walk tests rows[0] under the head rows[1:]
        W.rows for W in enumerate_subspaces(F2, 6, 2) if splitting.is_alpha_splitting(planes, W)
    )
    split.clear()
    assert list(splitting._verdicts(F2, planes.mats, [(row, head), (row, head)])) == [True, True]
    assert split == [head, row]

"""Splitting subspaces: scans against closed forms, transforms, base points."""

import ast
import inspect
import itertools
import random
import textwrap

import pytest

from splitlab import (
    BadArgs,
    ContextMismatch,
    DimensionMismatch,
    Poly,
    ScanBoundExceeded,
    SingularMoebius,
    SplitInstance,
    ZeroBasePoint,
    bases_formula,
    build_extension,
    build_field,
    companion_matrix,
    conjecture_status,
    count_T_splitting,
    count_pointed,
    count_splitting,
    count_splitting_bases,
    endo_formula,
    enumerate_subspaces,
    gaussian_binomial,
    generates,
    gl_order,
    is_alpha_splitting,
    is_T_splitting,
    m2_subtraction,
    multiplication_matrix,
    nobases_formula,
    pointed_consistency,
    pointed_formula,
    split_instance,
    splitting_lower_bound,
    ssc_formula,
    sweep_generators,
    transform_subspace,
    vec_mat,
    weak_ssc_check,
)
from splitlab import lfsr, linalg, splitting

F2 = build_field(2)


def test_conjecture_status():
    assert conjecture_status(1, 7) == "proved"
    assert conjecture_status(2, 2) == "proved"
    assert conjecture_status(2, 9) == "proved"
    assert conjecture_status(5, 1) == "proved"
    assert conjecture_status(3, 2) == "conjectural"
    assert conjecture_status(4, 3) == "conjectural"


def test_ssc_formula_fixtures():
    assert ssc_formula(2, 2, 2) == 20
    assert ssc_formula(3, 2, 2) == 90
    assert ssc_formula(2, 2, 3) == 336
    assert ssc_formula(2, 3, 2) == 576
    assert ssc_formula(2, 1, 2) == 3
    assert ssc_formula(2, 2, 1) == 1
    assert ssc_formula(4, 2, 2) == 272  # (255/15) * 16


def test_lower_bound_fixtures():
    assert splitting_lower_bound(2, 2, 2) == 5
    assert splitting_lower_bound(3, 2, 2) == 10
    for q, m, n in ((2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 2, 2)):
        assert ssc_formula(q, m, n) >= splitting_lower_bound(q, m, n)


def test_m2_subtraction_identity():
    for q in (2, 3, 4, 5):
        assert m2_subtraction(q) == ssc_formula(q, 2, 2)
        assert m2_subtraction(q) == gaussian_binomial(4, 2, q) - gaussian_binomial(4, 1, q)
    assert m2_subtraction(2) == 35 - 15
    assert m2_subtraction(3) == 130 - 40


def test_count_splitting_matches_formula():
    for q, m, n in ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 2, 3)):
        rep = count_splitting(split_instance(q, m, n))
        assert rep.brute == rep.formula == ssc_formula(q, m, n), (q, m, n)
        assert rep.verdict == "match"


def test_count_is_independent_of_modulus_and_generator():
    default = count_splitting(split_instance(2, 2, 2)).brute
    explicit = count_splitting(
        split_instance(2, 2, 2, defining_poly=Poly(F2, (1, 1, 0, 0, 1)))
    ).brute
    nonprimitive = count_splitting(
        split_instance(2, 2, 2, defining_poly=Poly(F2, (1, 1, 1, 1, 1)))
    ).brute
    shifted = count_splitting(split_instance(2, 2, 2, element=(1, 1, 0, 0))).brute
    assert default == explicit == nonprimitive == shifted == 20


def test_sweep_generators():
    assert sweep_generators(2, 2, 2) == {20: 12}
    assert sweep_generators(2, 1, 2) == {3: 2}


def test_report_json_keys():
    rep = count_splitting(split_instance(2, 2, 2))
    assert set(rep.to_json()) == {
        "q", "m", "n", "defining_poly", "alpha", "brute", "formula",
        "status", "verdict", "seconds",
    }
    assert rep.to_json()["status"] == "proved"


def test_formula_only_skips_the_scan():
    rep = count_splitting(split_instance(2, 3, 2), formula_only=True)
    assert rep.brute is None
    assert rep.formula == 576
    assert rep.verdict == "skipped"
    assert rep.status == "conjectural"


def test_count_splitting_respects_scan_bound(monkeypatch):
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "10")
    with pytest.raises(ScanBoundExceeded):
        count_splitting(split_instance(2, 2, 2))


def test_split_instance_validation():
    with pytest.raises(BadArgs):
        split_instance(2, 0, 2)
    with pytest.raises(BadArgs):
        split_instance(2, 2, 0)
    with pytest.raises(BadArgs):
        split_instance(6, 2, 2)  # not a prime power
    with pytest.raises(BadArgs):
        split_instance(2, 2, 2, element=(1, 0, 0, 0))  # lies in the base field
    with pytest.raises(BadArgs):
        split_instance(2, 2, 2, element=(0, 0, 0, 0))


def test_is_alpha_splitting_hand_examples():
    inst = split_instance(2, 2, 2)
    tower = inst.tower
    # {1, a^2} splits: 1, a^2, a, a^3 is a basis
    w_good = linalg.subspace_from_rows(F2, 4, ((1, 0, 0, 0), (0, 0, 1, 0)))
    assert is_alpha_splitting(inst, w_good)
    # {1, a} does not: a appears in both W and aW
    w_bad = linalg.subspace_from_rows(F2, 4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert not is_alpha_splitting(inst, w_bad)


def test_is_alpha_splitting_validation():
    inst = split_instance(2, 2, 2)
    wrong_dim = linalg.subspace_from_rows(F2, 4, ((1, 0, 0, 0),))
    with pytest.raises(BadArgs):
        is_alpha_splitting(inst, wrong_dim)
    wrong_ambient = linalg.subspace_from_rows(F2, 2, ((1, 0), (0, 1)))
    with pytest.raises(BadArgs):
        is_alpha_splitting(inst, wrong_ambient)


def test_multiplication_matrix_is_multiplication():
    tower = build_extension(F2, 4)
    for gamma in tower.elements():
        mat = multiplication_matrix(tower, gamma)
        for beta in tower.elements():
            image = tower.mul(beta.raw, gamma.raw)
            assert vec_mat(beta.raw, mat) == image, (gamma, beta)


def test_multiplication_matrix_respects_powers():
    tower = build_extension(F2, 4)
    a = multiplication_matrix(tower, tower.alpha)
    sq = multiplication_matrix(tower, tower.element_from_raw(tower.mul(tower.alpha.raw, tower.alpha.raw)))
    assert (a * a).rows == sq.rows
    assert (a ** 15).rows == linalg.Matrix.identity(F2, 4).rows


def test_scaling_preserves_splitting():
    """Multiplying a subspace by a nonzero scalar cannot change whether it splits."""
    inst = split_instance(2, 2, 2)
    tower = inst.tower
    nonzero = [b for b in tower.elements() if not b.is_zero]
    for w in enumerate_subspaces(F2, 4, 2):
        flag = is_alpha_splitting(inst, w)
        for beta in nonzero[:5]:
            moved = transform_subspace(tower, beta, w)
            assert is_alpha_splitting(inst, moved) == flag


def test_pointed_counts_are_uniform():
    inst = split_instance(2, 2, 2)
    tower = inst.tower
    for x in tower.elements():
        if x.is_zero:
            continue
        assert count_pointed(inst, x) == 4
    assert pointed_formula(2, 2, 2) == 4
    assert pointed_formula(3, 2, 2) == 9
    assert pointed_formula(2, 3, 2) == 64


def test_pointed_identity():
    rep = pointed_consistency(split_instance(2, 2, 2))
    assert rep.uniform
    assert rep.common == 4
    assert rep.identity_holds  # 20 * (2^2 - 1) == 4 * (2^4 - 1)
    assert rep.splitting_count == 20
    assert rep.verdict == "match"


def test_pointed_identity_larger_field():
    rep = pointed_consistency(split_instance(3, 2, 2))
    assert rep.uniform
    assert rep.common == 9
    assert rep.splitting_count == 90
    assert rep.identity_holds  # 90 * 8 == 9 * 80


def test_count_pointed_validation():
    inst = split_instance(2, 2, 2)
    with pytest.raises(ZeroBasePoint):
        count_pointed(inst, inst.tower.element_from_raw(inst.tower.zero))
    other = build_extension(F2, 2)
    with pytest.raises(ContextMismatch):
        count_pointed(inst, other.alpha)


def test_splitting_bases_routes_agree():
    inst = split_instance(2, 2, 2)
    direct = count_splitting_bases(inst, "direct")
    product = count_splitting_bases(inst, "product")
    assert direct == product == 120
    assert bases_formula(2, 2, 2) == 120
    with pytest.raises(BadArgs):
        count_splitting_bases(inst, "both")  # the comparison is SPLITANDBASES
    assert bases_formula(2, 2, 2) == ssc_formula(2, 2, 2) * gl_order(2, 2)


def test_splitting_bases_m1():
    inst = split_instance(2, 1, 2)
    assert count_splitting_bases(inst, "direct") == 3
    assert bases_formula(2, 1, 2) == 3


def test_nobases_formula():
    assert nobases_formula(2, 2) == 120
    assert nobases_formula(3, 2) == 4320
    assert nobases_formula(2, 1) == 6
    for q in (2, 3):
        for n in (1, 2):
            assert nobases_formula(q, n) == bases_formula(q, 2, n)


def _noncanonical_generator(tower, seed):
    candidates = [
        beta
        for beta in tower.elements()
        if beta != tower.alpha and not beta.is_zero and generates(tower, beta)
    ]
    return random.Random(seed).choice(candidates)


def test_T_splitting_matches_alpha_splitting():
    inst = split_instance(2, 2, 2)
    T = multiplication_matrix(inst.tower, inst.tower.alpha)
    assert count_T_splitting(T, 2, 2) == 20
    for w in enumerate_subspaces(F2, 4, 2):
        assert is_T_splitting(T, w, 2, 2) == is_alpha_splitting(inst, w)
    # the generic elimination path, with a generator other than alpha = x
    for q, m, n in ((3, 2, 2), (4, 2, 2), (3, 1, 3)):
        tower = split_instance(q, m, n).tower
        beta = _noncanonical_generator(tower, q * 100 + m * 10 + n)
        inst = SplitInstance(tower, m, n, beta)
        T = multiplication_matrix(tower, beta)
        brute = count_splitting(inst).brute
        assert count_T_splitting(T, m, n) == brute == ssc_formula(q, m, n), (q, m, n)
        for w in enumerate_subspaces(tower.base, m * n, m):
            assert is_T_splitting(T, w, m, n) == is_alpha_splitting(inst, w), (q, w)


def test_T_splitting_validation():
    T = companion_matrix(Poly(F2, (1, 1, 0, 0, 1)))
    w = linalg.subspace_from_rows(F2, 4, ((1, 0, 0, 0), (0, 0, 1, 0)))
    non_square = linalg.Matrix(F2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(DimensionMismatch):
        count_T_splitting(non_square, 2, 2)
    with pytest.raises(DimensionMismatch):
        is_T_splitting(non_square, w, 2, 2)
    with pytest.raises(DimensionMismatch):
        count_T_splitting(T, 3, 2)  # T is 4x4, not 6x6
    with pytest.raises(DimensionMismatch):
        is_T_splitting(T, w, 1, 2)
    for wrong in (
        linalg.subspace_from_rows(F2, 4, ((1, 0, 0, 0),)),  # dimension 1
        linalg.subspace_from_rows(F2, 2, ((1, 0), (0, 1))),  # ambient 2
    ):
        with pytest.raises(DimensionMismatch):
            is_T_splitting(T, wrong, 2, 2)
    F3 = build_field(3)
    with pytest.raises(ContextMismatch):
        is_T_splitting(T, linalg.subspace_from_rows(F3, 4, ((1, 0, 0, 0), (0, 0, 1, 0))), 2, 2)


CLOSED_FORMS = (
    ssc_formula,
    pointed_formula,
    bases_formula,
    nobases_formula,
    splitting_lower_bound,
    m2_subtraction,
    endo_formula,
    lfsr.nofiber_formula,
    lfsr.pvrc_formula,
)
SCAN_ROUTE = {
    "_splits",
    "_splitting_scan",
    "_count_scan",
    "enumerate_subspaces",
    "rows_are_independent",
    "vec_mat",
}


@pytest.mark.parametrize("func", CLOSED_FORMS, ids=lambda f: f.__qualname__)
def test_closed_forms_never_name_the_scan_route(func):
    """The two routes of an identity never share code: no closed form
    names the splitting kernel or the scan primitives beneath it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names, func
    assert not names & SCAN_ROUTE, (func.__qualname__, names & SCAN_ROUTE)


def test_T_splitting_for_companion_of_primitive_quartic():
    T = companion_matrix(Poly(F2, (1, 1, 0, 0, 1)))
    assert count_T_splitting(T, 2, 2) == 20


def test_endo_formula_fixtures():
    assert endo_formula(Poly(F2, (1, 1, 1))) == 3
    assert endo_formula(Poly(F2, (0, 1, 1))) == 1  # x(x+1)
    assert endo_formula(Poly(F2, (0, 0, 1))) == 2  # x^2
    assert endo_formula(Poly(F2, (0, 0, 0, 1))) == 4  # x^3


def test_endo_formula_matches_scan_for_all_cubics():
    for tail in itertools.product(range(2), repeat=3):
        p_t = Poly(F2, tail + (1,))
        T = companion_matrix(p_t)
        assert count_T_splitting(T, 1, 3) == endo_formula(p_t), p_t


def test_endo_formula_beyond_companions():
    # a non-companion matrix with the same characteristic polynomial
    T = linalg.Matrix(F2, ((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)))
    from splitlab import char_poly

    p_t = char_poly(T)
    assert count_T_splitting(T, 1, 4) == endo_formula(p_t)


def test_weak_ssc_transforms_preserve_the_count():
    inst = split_instance(2, 2, 2)
    for a, b, c, d, r in (
        (1, 1, 0, 1, 0),  # alpha + 1
        (1, 0, 0, 1, 0),  # identity
        (0, 1, 1, 0, 0),  # 1 / alpha
        (1, 0, 0, 1, 1),  # alpha^q
        (1, 1, 1, 0, 1),  # (alpha^q + 1) / alpha^q
    ):
        rep = weak_ssc_check(inst, a, b, c, d, r)
        assert rep.left == rep.right == 20, (a, b, c, d, r)
        assert rep.verdict == "match"


def test_weak_ssc_rejects_singular_transforms():
    inst = split_instance(2, 2, 2)
    with pytest.raises(SingularMoebius):
        weak_ssc_check(inst, 1, 1, 1, 1, 0)
    with pytest.raises(SingularMoebius):
        weak_ssc_check(inst, 0, 0, 1, 1, 0)


def test_weak_ssc_rejects_out_of_range_codes():
    inst = split_instance(2, 2, 2)
    with pytest.raises(BadArgs):
        weak_ssc_check(inst, 2, 0, 0, 1, 0)
    with pytest.raises(BadArgs):
        weak_ssc_check(inst, 1, 0, 0, 1, -1)


def test_conjectural_point_verifies():
    """m = 3 has no proof yet; the scan still agrees with the closed form."""
    rep = count_splitting(split_instance(2, 3, 2))
    assert rep.status == "conjectural"
    assert rep.brute == rep.formula == 576
    assert rep.verdict == "match"

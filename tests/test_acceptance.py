"""Acceptance gate: one check per release criterion, exact integer equality.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Every line prints before its assertion so a failing run still
shows the full scoreboard.
"""

import itertools

from splitlab import (
    Matrix,
    Poly,
    VerificationJob,
    bases_formula,
    build_field,
    census_singer,
    char_poly,
    companion_matrix,
    coprime_pair_count,
    count_nilpotent,
    count_pointed,
    count_splitting,
    count_splitting_bases,
    count_T_splitting,
    endo_formula,
    enumerate_recurrences,
    enumerate_subspaces,
    fiber_count,
    find_irreducibles,
    gaussian_binomial,
    gl_order,
    nobases_formula,
    nofiber_formula,
    period_preperiod,
    pvrc_formula,
    rref,
    split_instance,
    ssc_formula,
    statement_ids,
    verify,
)
from splitlab import linalg

F2 = build_field(2)
F3 = build_field(3)


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}", flush=True)
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_splitting_scan_matches_closed_form():
    ok = True
    for (q, m, n), expected in (((2, 2, 2), 20), ((3, 2, 2), 90), ((2, 2, 3), 336)):
        rep = count_splitting(split_instance(q, m, n))
        ok = ok and rep.brute == expected and rep.formula == expected
    report(1, "splitting-subspace scans equal the closed form (20 / 90 / 336)", ok)


def test_criterion_02_two_by_two_case_is_a_binomial_difference():
    ok = True
    for q, expected in ((2, 20), (3, 90)):
        diff = gaussian_binomial(4, 2, q) - gaussian_binomial(4, 1, q)
        brute = count_splitting(split_instance(q, 2, 2)).brute
        ok = ok and diff == expected and brute == diff
    report(2, "m = n = 2 count equals [4 2]_q - [4 1]_q (35-15, 130-40)", ok)


def test_criterion_03_coprime_pair_census():
    ok = coprime_pair_count(2, 2, F2) == 7 and coprime_pair_count(3, 2, F3) == 80
    for ctx in (F2, F3):
        for n1 in range(1, 5):
            for n2 in range(1, n1 + 1):
                closed = coprime_pair_count(n1, n2, ctx, "closed")
                brute = coprime_pair_count(n1, n2, ctx, "brute")
                ok = ok and closed == brute
    report(3, "coprime polynomial pairs: closed form equals brute on the 1..4 grid", ok)


def test_criterion_04_ordered_bases_count():
    inst = split_instance(2, 2, 2)
    direct = count_splitting_bases(inst, "direct")
    ok = (
        direct == 120
        and direct == ssc_formula(2, 2, 2) * gl_order(2, 2)
        and direct == nobases_formula(2, 2)
    )
    report(4, "splitting ordered pairs at (2,2,2): 120 by scan, product, and closed form", ok)


def test_criterion_05_pointed_counts():
    inst = split_instance(2, 2, 2)
    counts = [
        count_pointed(inst, x) for x in inst.tower.elements() if not x.is_zero
    ]
    ok = len(counts) == 15 and all(c == 4 for c in counts)
    ok = ok and 20 * (2**2 - 1) == 4 * (2**4 - 1)
    report(5, "every nonzero base point lies in 4 subspaces; 20*3 == 4*15", ok)


def test_criterion_06_moebius_transforms_preserve_the_count():
    from splitlab import weak_ssc_check

    inst = split_instance(2, 2, 2)
    ok = True
    for a, b, c, d, r in (
        (1, 1, 0, 1, 0),
        (1, 0, 0, 1, 0),
        (0, 1, 1, 0, 0),
        (1, 0, 0, 1, 1),
        (1, 1, 1, 0, 1),
    ):
        rep = weak_ssc_check(inst, a, b, c, d, r)
        ok = ok and rep.left == rep.right == 20
    report(6, "five fractional-linear generator changes all keep the count at 20", ok)


def test_criterion_07_endomorphism_count_all_small_char_polys():
    ok = True
    for deg in (2, 3):
        for tail in itertools.product(range(2), repeat=deg):
            p_t = Poly(F2, tail + (1,))
            scan = count_T_splitting(companion_matrix(p_t), 1, deg)
            ok = ok and scan == endo_formula(p_t)
    ok = ok and endo_formula(Poly(F2, (0, 1, 1))) == 1
    report(7, "cyclic-vector count matches the totient formula for all degree 2-3 maps", ok)


def test_criterion_08_nilpotent_census():
    ok = True
    for (m, q), expected in (((2, 2), 4), ((2, 3), 9), ((3, 2), 64)):
        closed = count_nilpotent(m, q, "closed")
        brute = count_nilpotent(m, q, "brute")
        ok = ok and closed == brute == expected
    report(8, "nilpotent matrix counts are q^(m(m-1)) (4 / 9 / 64)", ok)


def test_criterion_09_primitive_recurrence_census():
    scan = census_singer(2, 2, 2)
    formula = pvrc_formula(2, 2, 2)
    ok = scan == formula == 16
    report(9, f"primitive recurrences at (2,2,2): scan={scan} equals formula={formula}", ok)


def test_criterion_10_fibers_of_irreducible_quartics():
    ok = True
    for f in find_irreducibles(F2, 4):
        scan = fiber_count(f, 2, 2, "scan")
        closed = nofiber_formula(2, 2, 2)
        bridge = fiber_count(f, 2, 2, "bridge")
        ok = ok and scan == closed == bridge == 8
    ok = ok and bases_formula(2, 2, 2) // (2**4 - 1) == 8
    report(10, "every irreducible quartic fiber is 8, on all three routes", ok)


def test_criterion_11_fiber_partition():
    total = sum(
        fiber_count(Poly(F2, tail + (1,)), 2, 2, "scan")
        for tail in itertools.product(range(2), repeat=4)
    )
    report(11, "fibers over all monic quartics partition the 2^8 recurrences", total == 2**8)


def test_criterion_12_property_suites():
    ok = True

    # field axioms and Frobenius additivity on the 16-element tower
    from splitlab import build_extension

    tower = build_extension(F2, 4)
    raws = [b.raw for b in tower.elements()]
    for a in raws:
        for b in raws:
            ok = ok and tower.add(a, b) == tower.add(b, a)
            ok = ok and tower.frobenius(tower.add(a, b), 1) == tower.add(
                tower.frobenius(a, 1), tower.frobenius(b, 1)
            )
    for a in raws[:8]:
        for b in raws:
            for c in raws:
                ok = ok and tower.mul(tower.mul(a, b), c) == tower.mul(a, tower.mul(b, c))
                ok = ok and tower.mul(a, tower.add(b, c)) == tower.add(
                    tower.mul(a, b), tower.mul(a, c)
                )

    # reduced echelon form is canonical and idempotent
    for flat in itertools.product(range(2), repeat=6):
        m = Matrix(F2, (flat[:3], flat[3:]))
        r, _ = rref(m)
        ok = ok and rref(r)[0].rows == r.rows and r.nrows == 2

    # subspace stream count
    ok = ok and sum(1 for _ in enumerate_subspaces(F2, 4, 2)) == gaussian_binomial(4, 2, 2)

    # Cayley-Hamilton spot checks
    for flat in itertools.product(range(2), repeat=4):
        m = Matrix(F2, (flat[:2], flat[2:]))
        f = char_poly(m)
        acc = Matrix.zero(F2, 2, 2)
        power = Matrix.identity(F2, 2)
        for coeff in f.coeffs:
            if coeff:
                acc = Matrix(F2, tuple(
                    tuple(F2.add(x, y) for x, y in zip(ra, rp))
                    for ra, rp in zip(acc.rows, power.rows)
                ))
            power = power * m
        ok = ok and not any(any(row) for row in acc.rows)

    # purely periodic exactly when the trailing coefficient block is invertible
    word_space = list(itertools.product(range(2), repeat=2))
    all_states = [tuple(s) for s in itertools.product(word_space, repeat=2)]
    for rec in enumerate_recurrences(F2, 2, 2):
        pure = all(period_preperiod(rec, s).periodic for s in all_states)
        ok = ok and pure == (rec.C[0].det() != 0)

    # the full verification harness agrees on every default grid
    for sid in statement_ids():
        ok = ok and verify(VerificationJob(sid)).exit_code() == 0

    report(12, "field axioms, echelon forms, Cayley-Hamilton, periodicity, harness", ok)


def test_evidence_run_for_the_open_case():
    """The m = 3 case has no proof; the run must complete and report a verdict.

    The outcome is informational and deliberately not part of the gate.
    """
    rep = count_splitting(split_instance(2, 3, 2))
    print(
        f"INFO evidence (2,3,2): brute={rep.brute} formula={rep.formula} "
        f"status={rep.status} verdict={rep.verdict}",
        flush=True,
    )
    assert rep.status == "conjectural"
    assert rep.verdict in ("match", "mismatch")

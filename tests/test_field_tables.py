"""The log/antilog (Zech) tables of F_{p^e} under the generic splitting
scan: SSC counts over GF(4), GF(8) and GF(9), with random moduli and
generators, equal the closed form, and the scan never calls the private
tower the tables were built from.  The generic splitting kernel these
scans run matches the vec_mat stacking it replaced."""

import random

import pytest

from splitlab import (
    Matrix,
    Poly,
    SplitInstance,
    build_extension,
    build_field,
    count_splitting,
    enumerate_subspaces,
    generates,
    integers,
    is_irreducible,
    ssc_formula,
    vec_mat,
)
from splitlab import fields, linalg, splitting


def random_base(q, rng):
    """F_q = F_p[x]/(f) for a random monic irreducible f of degree e."""
    p, e = integers.prime_power_split(q)
    prime = build_field(p)
    while True:
        modulus = tuple(rng.randrange(p) for _ in range(e)) + (1,)
        if is_irreducible(Poly(prime, modulus)):
            return fields.FieldCtx(p, e, modulus)


def random_instance(base, m, n, rng):
    """A SplitInstance over base with a random irreducible modulus of
    degree mn and a random generator, both by rejection sampling."""
    d = m * n
    q = base.size
    while True:
        f = Poly(base, tuple(rng.randrange(q) for _ in range(d)) + (1,))
        if is_irreducible(f):
            break
    tower = build_extension(base, d, f)
    while True:
        beta = tower.element(tuple(rng.randrange(q) for _ in range(d)))
        if not beta.is_zero and generates(tower, beta):
            return SplitInstance(tower, m, n, beta)


def count_private_tower_calls(monkeypatch, base):
    """Patch TowerCtx.mul/add/inv to count the calls made on base's
    private tower; other towers pass through uncounted."""
    calls = {"mul": 0, "add": 0, "inv": 0}
    for name in calls:
        original = getattr(fields.TowerCtx, name)

        def counted(self, *args, _name=name, _original=original):
            if self is base._tower:
                calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(fields.TowerCtx, name, counted)
    return calls


@pytest.mark.parametrize("m, n", ((1, 2), (2, 2)))
@pytest.mark.parametrize("q", (4, 8, 9))
def test_table_scans_match_the_formula_without_the_tower(monkeypatch, q, m, n):
    rng = random.Random(f"tables/{q},{m},{n}")
    base = random_base(q, rng)
    assert base._log is not None
    instances = [random_instance(base, m, n, rng) for _ in range(2)]
    calls = count_private_tower_calls(monkeypatch, base)
    for inst in instances:
        assert count_splitting(inst).brute == ssc_formula(q, m, n), inst
    assert calls == {"mul": 0, "add": 0, "inv": 0}
    # the counter sees the tower where it does run: the tables come from it
    base._build_tables()
    assert calls["mul"] > 0


def vec_mat_splits(ctx, powers, rows):
    """The stacking the generic kernel replaced: one vec_mat per row
    and power, each transposing the power again."""
    stacked = list(rows)
    for P in powers[1:]:
        stacked.extend(vec_mat(w, P) for w in rows)
    return linalg.rows_are_independent(ctx, stacked)


@pytest.mark.parametrize("m, n", ((1, 2), (2, 2), (1, 3)))
@pytest.mark.parametrize("q", (3, 4, 9))
def test_generic_splitter_matches_vec_mat_stacking(q, m, n):
    """On every subspace, for α-splitting over random moduli and for a
    random endomorphism, and on random ordered row tuples."""
    rng = random.Random(f"splitter/{q},{m},{n}")
    base = random_base(q, rng) if q > 3 else build_field(q)
    size = m * n
    T = Matrix(base, [[rng.randrange(q) for _ in range(size)] for _ in range(size)])
    alpha = random_instance(base, m, n, rng).mats
    for powers in (alpha, splitting._powers(T, m, n)):
        splits = splitting._splitter(base, powers)
        accepted = 0
        for W in enumerate_subspaces(base, size, m):
            expect = vec_mat_splits(base, powers, W.rows)
            assert splits(W.rows) == expect, (powers, W.rows)
            accepted += expect
        if powers is alpha:
            assert accepted == ssc_formula(q, m, n)
        for _ in range(50):
            rows = [tuple(rng.randrange(q) for _ in range(size)) for _ in range(m)]
            assert splits(rows) == vec_mat_splits(base, powers, rows), (powers, rows)

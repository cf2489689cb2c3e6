"""The log/antilog (Zech) tables of F_{p^e} under the generic splitting
scan: SSC counts over GF(4), GF(8) and GF(9), with random moduli and
generators, equal the closed form, and the scan never calls the private
tower the tables were built from.  The generic splitting kernel these
scans run matches the vec_mat stacking it replaced."""

import random

import pytest

from splitlab import count_splitting, enumerate_subspaces, ssc_formula
from splitlab import fields, splitting
from sampling import random_base, random_instance, random_matrix, splits_by_stacking


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


@pytest.mark.parametrize("m, n", ((1, 2), (2, 2), (1, 3)))
@pytest.mark.parametrize("q", (3, 4, 9))
def test_generic_splitter_matches_vec_mat_stacking(q, m, n):
    """On every subspace, walked in scan order, for α-splitting over
    random moduli and for a random endomorphism, and on random ordered
    row tuples, each walked alone."""
    rng = random.Random(f"splitter/{q},{m},{n}")
    base = random_base(q, rng)
    size = m * n
    T = random_matrix(base, size, size, rng)
    alpha = random_instance(base, m, n, rng).mats
    for powers in (alpha, splitting._powers(T, m, n)):
        candidates = [W.rows for W in enumerate_subspaces(base, size, m)]
        verdicts = splitting._verdicts(base, powers, candidates)
        accepted = 0
        for rows, verdict in zip(candidates, verdicts, strict=True):
            expect = splits_by_stacking(base, powers, rows)
            assert verdict == expect, (powers, rows)
            accepted += expect
        if powers is alpha:
            assert accepted == ssc_formula(q, m, n)
        for _ in range(50):
            rows = [tuple(rng.randrange(q) for _ in range(size)) for _ in range(m)]
            expect = splits_by_stacking(base, powers, rows)
            assert splitting._splitter(base, powers)(rows) == expect, (powers, rows)

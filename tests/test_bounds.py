"""One scan bound: every scan refuses over SPLITLAB_SCAN_BOUND before it
does any work, whatever ran earlier in the process."""

import random

import pytest

from splitlab import (
    BlockRecurrence,
    FactorSearchExceeded,
    IterationBoundExceeded,
    Matrix,
    Poly,
    ScanBoundExceeded,
    build_field,
    census_singer,
    config,
    conjugacy_classes,
    coprime_pair_count,
    count_nilpotent,
    count_pointed,
    count_splitting,
    count_splitting_bases,
    enumerate_class_recurrences,
    fiber_histogram,
    field_from_order,
    fields,
    find_irreducibles,
    integers,
    lfsr,
    linalg,
    period_preperiod,
    pointed_consistency,
    polys,
    q_totient,
    split_instance,
    splitting,
)

F2 = build_field(2)
FIB = BlockRecurrence(F2, 1, (Matrix(F2, ((1,),)), Matrix(F2, ((1,),))))
INST = split_instance(2, 2, 2)
X4 = Poly(F2, (1, 1, 0, 0, 1))  # x**4 + x + 1

# (id, call, bound just below the need, expected error, kernel the call
# must not enter when refused, or None where the work is not a call)
CASES = (
    ("find_irreducibles", lambda: find_irreducibles(F2, 4), 15,
     ScanBoundExceeded, (polys, "is_irreducible")),
    # its largest trial degree, 2, needs 4 candidates; it refuses before
    # the degree-1 scan (test_factor_never_starts_the_scan_over_the_bound)
    ("factor", lambda: polys.factor(X4), 3, FactorSearchExceeded,
     (polys, "is_irreducible")),
    # the residue scan visits 1 + 2**2 = 5 pairs (f2, r) at n2 = 2
    ("coprime_pair_count", lambda: coprime_pair_count(3, 2, F2, "brute"), 4,
     ScanBoundExceeded, (polys, "_coprime")),
    ("count_splitting_bases", lambda: count_splitting_bases(INST, "direct"), 255,
     ScanBoundExceeded, (splitting, "_verdicts")),
    # [4, 2]_2 = 35 subspaces
    ("count_splitting", lambda: count_splitting(INST), 34,
     ScanBoundExceeded, (splitting, "_verdicts")),
    ("pointed_consistency", lambda: pointed_consistency(INST), 34,
     ScanBoundExceeded, (splitting, "_verdicts")),
    ("count_pointed", lambda: count_pointed(INST, INST.tower.alpha), 34,
     ScanBoundExceeded, (splitting, "_verdicts")),
    # the bridge scans the [3, 1]_2 = 7 planes through 1 of the tower
    # x**4 + x + 1 defines
    ("fiber_count", lambda: lfsr.fiber_count(X4, 2, 2), 6,
     ScanBoundExceeded, (splitting, "_verdicts")),
    ("q_totient", lambda: q_totient(X4, "brute"), 15,
     ScanBoundExceeded, (polys, "_coprime")),
    # M_2(F_2) is squared on rows packed into ints
    ("count_nilpotent", lambda: count_nilpotent(2, 2, "brute"), 15,
     ScanBoundExceeded, (linalg, "_packed_product")),
    ("census_singer", lambda: census_singer(2, 2, 2), 255,
     ScanBoundExceeded, (lfsr, "_char_polys")),
    # 6 conjugacy classes of M_2(F_2) times 2**4 free C_1 = 96, a bound
    # the orbit walk (56 recurrences) never exceeds
    ("fiber_histogram", lambda: fiber_histogram(F2, 2, 2), 95,
     ScanBoundExceeded, (lfsr, "_char_polys")),
    # 3 invertible classes times 2**4 free C_1 = 48, a bound the orbit
    # walk (24 recurrences) never exceeds
    ("enumerate_class_recurrences",
     lambda: list(enumerate_class_recurrences(F2, 2, 2, invertible=True)), 47,
     ScanBoundExceeded, (lfsr, "_orbit_walk")),
    # 2**9 matrices of M_3(F_2)
    ("conjugacy_classes", lambda: conjugacy_classes(F2, 3), 511,
     ScanBoundExceeded, (linalg, "raw_scalars")),
    # the golden sequence from (0, 1) has period 3; Brent's method takes
    # 6 steps to find it and 3 more to measure the preperiod
    ("period_preperiod", lambda: period_preperiod(FIB, ((0,), (1,))), 8,
     IterationBoundExceeded, None),
)


def _kernel_entered(*args, **kwargs):
    raise AssertionError("the kernel ran although the scan is over its bound")


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("call, bound, error, kernel", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_scan_refuses_over_the_process_bound(monkeypatch, call, bound, error, kernel, warm):
    polys._irreducible_scan.cache_clear()
    if warm:
        call()  # under the default bound; fills any cache the call keeps
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(bound))
    if kernel is not None:
        monkeypatch.setattr(*kernel, _kernel_entered)
    with pytest.raises(error, match="SPLITLAB_SCAN_BOUND"):
        call()


@pytest.mark.parametrize("call, bound", [c[1:3] for c in CASES], ids=[c[0] for c in CASES])
def test_scan_answers_one_over_its_bound(monkeypatch, call, bound):
    """Each bound in CASES is its call's need minus one, so one more
    lets the call answer."""
    polys._irreducible_scan.cache_clear()
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(bound + 1))
    call()


def test_factor_never_starts_the_scan_over_the_bound(monkeypatch):
    polys._irreducible_scan.cache_clear()
    scan = polys._irreducible_scan
    scanned = []
    monkeypatch.setattr(polys, "_irreducible_scan", lambda ctx, k: scanned.append(k) or scan(ctx, k))
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "3")
    with pytest.raises(FactorSearchExceeded, match="degree 2 needs 4"):
        polys.factor(X4)
    assert scanned == []


def test_build_field_does_not_depend_on_the_scan_bound(monkeypatch):
    """Rabin's test finds the prime divisors of the degree by plain trial
    division, so the canonical-modulus search never reads the bound."""
    default = {pe: build_field(*pe) for pe in ((2, 25), (3, 25))}
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "3")
    for pe, ref in default.items():
        assert build_field(*pe) == ref


# every F_{p^e} with e > 1 and p**e <= 4096
SMALL_EXTENSIONS = [(p, e) for p in range(2, 64) if integers.is_prime(p)
                    for e in range(2, 13) if p**e <= 4096]


def test_field_tables_do_not_depend_on_the_scan_bound(monkeypatch):
    """The tables certify their primitive element by walking its powers,
    not by factoring q - 1 up to the scan bound."""
    assert len(SMALL_EXTENSIONS) == 40
    default = {pe: build_field(*pe) for pe in SMALL_EXTENSIONS}
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "3")
    for (p, e), ref in default.items():
        ctx = field_from_order(p**e)
        assert ctx == ref
        assert (ctx._exp, ctx._log, ctx._zech) == (ref._exp, ref._log, ref._zech)
        rng = random.Random(f"bound/{p},{e}")
        for _ in range(50):
            a, b = rng.randrange(ctx.size), rng.randrange(1, ctx.size)
            for op in ("add", "sub", "mul", "div"):
                assert getattr(ctx, op)(a, b) == getattr(ref, op)(a, b), (ctx, op, a, b)
            assert ctx.neg(a) == ref.neg(a)
            assert ctx.inv(b) == ref.inv(b)
            assert ctx.power(b, -a) == ref.power(b, -a)

    def no_bound():
        raise AssertionError("building the tables read the scan bound")

    monkeypatch.setattr(config, "scan_bound", no_bound)
    for (p, e), ref in default.items():
        ctx = fields.FieldCtx(p, e, ref.modulus)
        assert (ctx._exp, ctx._log, ctx._zech) == (ref._exp, ref._log, ref._zech)


def test_a_count_past_two_to_the_64_is_named_by_its_power_of_two(monkeypatch):
    # 2**(1000*1000*1000) has more decimal digits than str() converts;
    # the refusal names it by its power of two instead of failing to print
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", "1")
    with pytest.raises(ScanBoundExceeded, match=r"needs at least 2\*\*1000000 candidates"):
        conjugacy_classes(build_field(2), 1000)
    with pytest.raises(ScanBoundExceeded, match=r"needs at least 2\*\*64 candidates"):
        config.check_scan(2**64 + 1, "scan")
    with pytest.raises(ScanBoundExceeded, match=f"needs {2**64 - 1} candidates"):
        config.check_scan(2**64 - 1, "scan")

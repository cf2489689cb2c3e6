"""One scan bound: every scan refuses over SPLITLAB_SCAN_BOUND before it
does any work, whatever ran earlier in the process."""

import pytest

from splitlab import (
    BlockRecurrence,
    FactorSearchExceeded,
    IterationBoundExceeded,
    Matrix,
    Poly,
    ScanBoundExceeded,
    build_field,
    coprime_pair_count,
    count_splitting_bases,
    find_irreducibles,
    is_primitive_recurrence,
    lfsr,
    matrix_order,
    polys,
    split_instance,
    splitting,
)

F2 = build_field(2)
FIB = BlockRecurrence(F2, 1, (Matrix(F2, ((1,),)), Matrix(F2, ((1,),))))
INST = split_instance(2, 2, 2)

# (id, call, bound just below the need, expected error, kernel the call
# must not enter when refused, or None where the work is not a call)
CASES = (
    ("find_irreducibles", lambda: find_irreducibles(F2, 4), 15,
     ScanBoundExceeded, (polys, "is_irreducible")),
    ("factor", lambda: polys.factor(Poly(F2, (1, 1, 0, 0, 1))), 1,
     FactorSearchExceeded, (polys, "is_irreducible")),
    ("coprime_pair_count", lambda: coprime_pair_count(3, 2, F2, "brute"), 31,
     ScanBoundExceeded, (polys, "gcd")),
    ("count_splitting_bases", lambda: count_splitting_bases(INST, "direct"), 255,
     ScanBoundExceeded, (splitting, "_splits")),
    ("is_primitive_recurrence", lambda: is_primitive_recurrence(FIB, "definitional"), 3,
     ScanBoundExceeded, (lfsr, "period_preperiod")),
    # char poly (x + 1)**2 is reducible, so the order is walked: 2 steps
    ("matrix_order", lambda: matrix_order(Matrix(F2, ((1, 1), (0, 1)))), 1,
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

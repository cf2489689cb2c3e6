"""The splitting subspaces counted through 1 alone
(splitting._count_through_one), the scan route of verify's SSC,
LOWER_BOUND and M2_THEOREM and of the fiber bridge.  Multiplication by a
nonzero tower element commutes with the generator, so every nonzero
point lies on the same number of splitting subspaces, and the count
through e_0 times (q^mn - 1)/(q^m - 1) is the full count.  Checked
against the full scan on every small point over random moduli and
generators.  The walk takes e_0 first in every head and tests the
widest row of W'; a pointed m = 2 scan, whose one head is (e_0,), keeps
no memo and stays small in memory, while pointed scans with m >= 3 keep
theirs; and the scan bound is the pointed scan's need, so verify
answers where count_splitting refuses."""

import itertools
import random
import tracemalloc

import pytest

from splitlab import (
    ScanBoundExceeded,
    VerificationJob,
    count_splitting,
    enumerate_subspaces,
    gaussian_binomial,
    split_instance,
    ssc_formula,
    verify,
)
from splitlab import splitting
from sampling import random_base, random_instance, splits_by_stacking
from test_prefix_splitter import walked_rows
from test_quotient_step import counting_spans

# every (q, m, n) with q in {2, 3, 4, 5, 7, 8, 9}, m in {1, 2, 3} and at
# most 3,000 subspaces to scan in full, and three larger ones
POINTS = [
    (q, m, n)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for m in (1, 2, 3)
    for n in range(1, 12)
    if gaussian_binomial(m * n, m, q) <= 3000
] + [(2, 2, 4), (3, 3, 2), (9, 2, 2)]


def through_one(inst):
    return splitting._count_through_one(inst.base, inst.mats, inst.m)


@pytest.mark.parametrize("q, m, n", POINTS)
def test_the_count_through_one_is_the_full_count(q, m, n):
    rng = random.Random(f"through-one/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    assert through_one(inst) == count_splitting(inst).brute


def pointed_heads(base, powers, m):
    """The heads a pointed scan builds and the first rows it tests, in
    scan order: every (m - 1)-dimensional W' of coordinates 1, ..., mn - 1
    with a zero put in front of its rows, one head (e_0, W' rows 1, ...)
    per run of W' sharing it, and W' row 0 when its head's rows have
    independent translates (the stacking oracle)."""
    width = m * len(powers)
    e0 = (base.one,) + (base.zero,) * (width - 1)
    padded = [tuple((base.zero, *row) for row in W.rows)
              for W in enumerate_subspaces(base, width - 1, m - 1)]
    heads = [head for head, _ in itertools.groupby((e0, *rows[1:]) for rows in padded)]
    live = {head for head in heads if splits_by_stacking(base, powers, head)}
    return heads, [rows[0] for rows in padded if (e0, *rows[1:]) in live]


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 1)])
def test_e0_leads_every_head_and_the_widest_row_is_tested(monkeypatch, q, m, n):
    """e_0 is inserted first in every head and never tested: at m = 2
    the scan builds the one head (e_0,) once and tests every W', and at
    m = 3 it builds one head per run of W' sharing their second row."""
    rng = random.Random(f"through-one/heads/{q},{m},{n}")
    inst = random_instance(random_base(q, rng), m, n, rng)
    count, built, tested = walked_rows(monkeypatch, lambda: through_one(inst))
    heads, under_live = pointed_heads(inst.base, inst.mats, m)
    assert built == heads
    assert tested == under_live
    if m == 2:
        assert len(built) == 1
        assert len(tested) == gaussian_binomial(m * n - 1, 1, q)
    assert count == ssc_formula(q, m, n)


def recorded_tables(monkeypatch) -> list:
    """Every splitting._Table built from now on."""
    tables = []

    class Recorded(splitting._Table):
        __slots__ = ()

        def __init__(self, build):
            super().__init__(build)
            tables.append(self)

    monkeypatch.setattr(splitting, "_Table", Recorded)
    return tables


# (scan, m, n, whether it keeps a memo): a full scan keeps one at m >= 2
# and a pointed one at m >= 3, where tested rows and quotient prefixes
# repeat across heads; at m = 1 the head is empty, and a pointed m = 2
# scan has the one head (e_0,)
SHAPES = [
    ("full", 1, 4, False),
    ("full", 2, 2, True),
    ("through_one", 1, 4, False),
    ("through_one", 2, 3, False),
    ("through_one", 3, 2, True),
]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("scan, m, n, keeps", SHAPES,
                         ids=[f"{s}-{m}-{n}" for s, m, n, _ in SHAPES])
def test_only_scans_where_rows_repeat_keep_their_memos(monkeypatch, q, scan, m, n, keeps):
    """The F_2 translates memo and the q > 2 head rows' translates are
    tables keyed by row, and the span memo builds spans (_span); every
    other table of the walk is keyed by a scalar and holds at most q
    entries.  So a scan keeps a memo exactly when some table grows past
    q entries or a span is built."""
    inst = split_instance(q, m, n)
    tables = recorded_tables(monkeypatch)
    spans = counting_spans(monkeypatch)
    if scan == "full":
        count = count_splitting(inst).brute
    else:
        count = through_one(inst)
    assert count == ssc_formula(q, m, n)
    grown = max(map(len, tables), default=0) > q or bool(spans)
    assert grown == keeps
    if q == 3:
        assert bool(spans) == keeps


@pytest.mark.parametrize("q, n", [(2, 8), (3, 5)])
def test_a_pointed_plane_scan_stays_small(q, n):
    """A pointed m = 2 scan tests [2n - 1, 1]_q distinct rows under its
    one head: 32,767 at (2,2,8) and 9,841 at (3,2,5).  Kept per row they
    took a tracemalloc peak of about 17 MB and 4.4 MB; with no memo the
    peak stays under 1 MiB."""
    inst = split_instance(q, 2, n)
    tracemalloc.start()
    try:
        count = through_one(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == ssc_formula(q, 2, n)
    assert peak < 1 << 20


# (statement, point, q, m, n): the instance each point scans
REFUSALS = [
    ("SSC", (2, 2, 3), 2, 2, 3),
    ("LOWER_BOUND", (3, 2, 2), 3, 2, 2),
    ("M2_THEOREM", (2,), 2, 2, 2),
]


@pytest.mark.parametrize("statement, point, q, m, n", REFUSALS,
                         ids=[r[0] for r in REFUSALS])
def test_verify_answers_where_the_full_scan_refuses(monkeypatch, statement, point, q, m, n):
    """Under a bound of [mn - 1, m - 1]_q, the pointed scan's need, verify
    answers while count_splitting, which needs [mn, m]_q, refuses; one
    less and verify skips the point too."""
    need = gaussian_binomial(m * n - 1, m - 1, q)
    assert need < gaussian_binomial(m * n, m, q)
    inst = split_instance(q, m, n)
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(need))
    with pytest.raises(ScanBoundExceeded):
        count_splitting(inst)
    answered = verify(VerificationJob(statement, grid=(point,))).points[0]
    assert answered.verdict == "match"
    assert answered.brute == ssc_formula(q, m, n)
    monkeypatch.setenv("SPLITLAB_SCAN_BOUND", str(need - 1))
    skipped = verify(VerificationJob(statement, grid=(point,))).points[0]
    assert skipped.verdict == "skipped"
    assert f"needs {need} candidates" in skipped.note

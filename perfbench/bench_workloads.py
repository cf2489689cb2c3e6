"""Workloads of the splitlab benchmark: point lists, seeded inputs, one pass,
and the correctness gate.

Everything the gate and the candidate counts rely on is computed here with
the benchmark's own arithmetic.  Nothing in this file calls a splitlab
closed form (ssc_formula, pvrc_formula, gaussian_binomial, ...): the value a
scan returns is compared with a committed table, never with the package's
own second route.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import traceback

# The package's default scan bound; count_splitting_bases("auto") scans
# tuples directly below it and falls back to the subspace product above it.
DEFAULT_SCAN_BOUND = 1 << 24

WORKLOADS = ("ssc-f2", "ssc-gfq", "census", "verify-defaults")
SIZES = ("full", "tiny")

# (kind, q, m, n) per workload and size.  SSC/PSSC points get a seeded
# modulus and generator; census kinds run as one-point verify jobs.
POINTS = {
    ("ssc-f2", "full"): (("SSC", 2, 2, 4), ("PSSC", 2, 2, 4), ("SSC", 2, 4, 2)),
    ("ssc-f2", "tiny"): (("SSC", 2, 2, 2), ("SSC", 2, 1, 3), ("PSSC", 2, 2, 2)),
    ("ssc-gfq", "full"): (("SSC", 3, 2, 3), ("SSC", 4, 2, 2), ("SSC", 8, 2, 2)),
    ("ssc-gfq", "tiny"): (("SSC", 3, 2, 2), ("SSC", 4, 1, 2)),
    ("census", "full"): (
        ("PVRC", 2, 2, 3),
        ("PVRC", 3, 2, 2),
        ("BCSCC", 2, 2, 3),
        ("BCSCC", 3, 2, 2),
        ("PFC", 2, 2, 3),
    ),
    ("census", "tiny"): (("PVRC", 2, 2, 2), ("BCSCC", 2, 2, 2), ("PFC", 2, 2, 2)),
}

# Expected scan values.  SSC: splitting subspaces.  PSSC: splitting
# subspaces through each nonzero point.  PVRC/BCSCC/PFC: primitive
# recurrences.  None depends on the modulus or the generator, so the table
# holds for every seed.  tests/test_perfbench.py re-derives each entry.
EXPECTED = {
    ("SSC", 2, 4, 2): 69632,
    ("SSC", 2, 2, 4): 5440,
    ("SSC", 3, 2, 3): 7371,
    ("SSC", 4, 2, 2): 272,
    ("SSC", 8, 2, 2): 4160,
    ("PSSC", 2, 2, 4): 64,
    ("PVRC", 2, 2, 3): 192,
    ("PVRC", 3, 2, 2): 432,
    ("BCSCC", 2, 2, 3): 192,
    ("BCSCC", 3, 2, 2): 432,
    ("PFC", 2, 2, 3): 192,
    ("SSC", 2, 2, 2): 20,
    ("SSC", 2, 1, 3): 7,
    ("PSSC", 2, 2, 2): 4,
    ("SSC", 3, 2, 2): 90,
    ("SSC", 4, 1, 2): 5,
    ("PVRC", 2, 2, 2): 16,
    ("BCSCC", 2, 2, 2): 16,
    ("PFC", 2, 2, 2): 16,
}


# -- the benchmark's own arithmetic ------------------------------------------


def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def irreducible_count(k: int, q: int) -> int:
    """Monic irreducibles of degree k over F_q (Gauss's Moebius sum)."""
    total = 0
    for d in range(1, k + 1):
        if k % d:
            continue
        ps = _prime_factors(d)
        squarefree = all(d % (p * p) for p in ps)
        if squarefree:
            total += (-1) ** len(ps) * q ** (k // d)
    return total // k


def primitive_count(k: int, q: int) -> int:
    """Primitive polynomials of degree k over F_q."""
    return totient(q**k - 1) // k


def fiber_size(q: int, m: int, n: int) -> int:
    """Block companions of shape (m, n) over one irreducible char poly."""
    out = q ** (m * (m - 1) * (n - 1))
    for i in range(1, m):
        out *= q**m - q**i
    return out


def expected_value(kind: str, q: int, m: int, n: int) -> int:
    """Closed form for each table entry, used only to check the table."""
    if kind == "SSC":
        return (q ** (m * n) - 1) // (q**m - 1) * q ** (m * (m - 1) * (n - 1))
    if kind == "PSSC":
        return q ** (m * (m - 1) * (n - 1))
    if kind in ("PVRC", "BCSCC", "PFC"):
        return primitive_count(m * n, q) * fiber_size(q, m, n)
    raise ValueError(f"no closed form for {kind}")


def _bridge_candidates(q: int, m: int, n: int) -> int:
    tuples = q ** (m * m * n)
    return tuples if tuples <= DEFAULT_SCAN_BOUND else gauss_binom(m * n, m, q)


def candidates(kind: str, params: tuple) -> int:
    """Candidates the exhaustive scans of one point visit: Gaussian
    binomials for subspace scans, q^(m*m*n) for recurrence and matrix
    scans, q^(m*mn) for tuple scans, pairs for the coprime-pair scan."""
    if kind in ("SSC", "PSSC", "LOWER_BOUND", "ELEMSPLIT"):
        q, m, n = params
        return gauss_binom(m * n, m, q)
    if kind == "WEAK_SSC":
        q, m, n = params[:3]
        return 2 * gauss_binom(m * n, m, q)
    if kind == "M2_THEOREM":
        (q,) = params
        return gauss_binom(4, 2, q)
    if kind == "SPLITANDBASES":
        q, m, n = params
        return q ** (m * m * n) + gauss_binom(m * n, m, q)
    if kind == "NOBASES":
        q, n = params
        return q ** (4 * n)
    if kind == "GENBB":
        q, n1, n2 = params
        return (q**n1 - 1) * sum(q**t for t in range(n2))
    if kind == "ENDO_SSC":
        q, k = params[0], len(params) - 2
        return gauss_binom(k, 1, q)
    if kind == "NILPOTENT":
        m, q = params
        return q ** (m * m)
    if kind in ("PVRC", "BCSCC"):
        q, m, n = params
        return q ** (m * m * n)
    if kind in ("PFC", "IFC", "CHAIN"):
        q, m, n = params
        count = primitive_count if kind == "PFC" else irreducible_count
        per_poly = q ** (m * m * n) + _bridge_candidates(q, m, n)
        census = q ** (m * m * n) if kind == "CHAIN" else 0
        return count(m * n, q) * per_poly + census
    raise ValueError(f"no candidate count for {kind}")


# -- inputs ------------------------------------------------------------------


class Inputs:
    """What one pass runs on: (kind, params, payload) items, the number of
    candidates a pass visits, and the first digest of each item's reports."""

    def __init__(self, items, cands: int):
        self.items = items
        self.cands = cands
        self.report_digests: dict[int, str] = {}

    def recurrence_space(self) -> int:
        """Sum of q^(m*m*n) over the distinct shapes whose recurrences some
        item scans: the base of lfsr.enumerate_recurrences.rescan_ratio."""
        scanning = ("PVRC", "BCSCC", "PFC", "IFC", "CHAIN")
        shapes = set()
        for kind, params, _ in self.items:
            if kind == "GRID":
                sid, grid = params
                if sid in scanning:
                    shapes.update(grid)
            elif kind in scanning:
                shapes.add(params)
        return sum(q ** (m * m * n) for q, m, n in shapes)


def _seeded_instance(sl, bases: dict, seed: int, kind: str, q: int, m: int, n: int):
    """SplitInstance over F_q with a random irreducible modulus of degree
    mn (rejection sampling) and a random generator, both drawn from seed."""
    rng = random.Random(f"{seed}/{kind}/{q},{m},{n}")
    if q not in bases:
        bases[q] = sl.fields.field_from_order(q)
    base = bases[q]
    mn = m * n
    while True:
        f = sl.polys.Poly(base, [rng.randrange(q) for _ in range(mn)] + [base.one])
        if sl.polys.is_irreducible(f):
            break
    tower = sl.fields.build_extension(base, mn, f)
    while True:
        beta = tower.element([rng.randrange(q) for _ in range(mn)])
        if not beta.is_zero and sl.fields.generates(tower, beta):
            break
    return sl.splitting.SplitInstance(tower, m, n, beta)


def verify_module():
    # The package re-exports the function `verify` under the submodule's
    # name, so attribute access on the package yields the function.
    return importlib.import_module("splitlab.verify")


def build_inputs(sl, workload: str, size: str, seed: int) -> Inputs:
    """Build a workload's inputs.  Only the ssc-* workloads use the seed."""
    vmod = verify_module()
    if workload == "verify-defaults":
        items = []
        for sid in vmod.statement_ids():
            grid = vmod.default_grid(sid)
            if size == "tiny":
                grid = grid[:1]
            job = vmod.VerificationJob(sid, grid=tuple(grid))
            items.append(("GRID", (sid, tuple(grid)), job))
        cands = sum(candidates(sid, p) for _, (sid, grid), _ in items for p in grid)
        return Inputs(items, cands)
    points = POINTS[(workload, size)]
    items = []
    bases: dict = {}
    for kind, q, m, n in points:
        if kind in ("SSC", "PSSC"):
            payload = _seeded_instance(sl, bases, seed, kind, q, m, n)
        else:
            payload = vmod.VerificationJob(kind, grid=((q, m, n),))
        items.append((kind, (q, m, n), payload))
    cands = sum(candidates(kind, (q, m, n)) for kind, q, m, n in points)
    return Inputs(items, cands)


# -- one pass ----------------------------------------------------------------


def clear_caches(sl) -> None:
    """Empty every functools cache in the package, so each pass pays for
    what a fresh `splitlab` process pays for (find_irreducibles' cache)."""
    for name in ("fields", "integers", "polys", "linalg", "splitting", "lfsr"):
        for obj in vars(getattr(sl, name)).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class Checks:
    """Attempted and failed checks.  A check is one point's value and
    verdict, or the bytes of one statement's reports."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def merge(self, other: Checks) -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def _check_item(sl, vmod, inputs: Inputs, i: int, out: Checks) -> None:
    kind, params, payload = inputs.items[i]
    if kind == "GRID":
        _check_grid(vmod, inputs, i, out)
        return
    if kind == "SSC":
        rep = sl.splitting.count_splitting(payload)
        value, verdict = rep.brute, rep.verdict
    elif kind == "PSSC":
        rep = sl.splitting.pointed_consistency(payload)
        value, verdict = rep.common, rep.verdict
    else:
        (pt,) = vmod.verify(payload).points
        value, verdict = pt.brute, pt.verdict
    want = EXPECTED[(kind, *params)]
    out.check(f"{kind}{params}", verdict == "match" and value == want,
              f"value={value} verdict={verdict} expected={want}")


def _check_grid(vmod, inputs: Inputs, i: int, out: Checks) -> None:
    _, (sid, grid), job = inputs.items[i]
    verdict = vmod.verify(job)
    for pt in verdict.points:
        out.check(f"{sid}{pt.params}", pt.verdict == "match",
                  f"verdict={pt.verdict} note={pt.note}")
    if len(verdict.points) != len(grid):
        out.check(sid, False, f"{len(verdict.points)} points reported, {len(grid)} asked")
    # emit() also writes the report to stdout; keep the benchmark's stdout
    # for its own result line.
    digest = hashlib.sha256()
    with contextlib.redirect_stdout(io.StringIO()):
        for fmt in ("json", "csv"):
            digest.update(vmod.emit(verdict, fmt, timing=False).encode())
    first = inputs.report_digests.setdefault(i, digest.hexdigest())
    out.check(f"{sid} reports", digest.hexdigest() == first,
              "emit(timing=False) bytes differ from the first pass")


def run_item(sl, inputs: Inputs, i: int) -> Checks:
    """Run item i once and check it.  A point fails on an exception, a
    skip, a verdict other than match, or a value off the table."""
    out = Checks()
    try:
        _check_item(sl, verify_module(), inputs, i, out)
    except Exception as err:  # one broken point must not hide the rest
        kind, params, _ = inputs.items[i]
        out.check(f"{kind}{params}", False, f"{type(err).__name__}: {err}")
        traceback.print_exc()
    return out


def run_pass(sl, inputs: Inputs) -> Checks:
    """Every item once, in order, after emptying the caches."""
    clear_caches(sl)
    out = Checks()
    for i in range(len(inputs.items)):
        out.merge(run_item(sl, inputs, i))
    return out

"""Statement-level verification: run a named identity over a parameter
grid, compare the exhaustive route against the closed form at every
point, and report machine-readable verdicts.

Each statement id names one identity together with its two routes.  The
default grids are sized so a full run finishes in seconds; custom grids
may hit the scan or factor bounds, in which case the affected points are
recorded as skipped rather than failing the run.

Every statement has one contract.  Its registry entry declares a handler,
the shape of its points and a default grid.  The handler takes a point
unpacked, e.g. _h_genbb(q, n1, n2), computes the identity's two routes,
which share no code, and returns (left, right, ok, note) with ok a bool.
`verify` alone checks a point's shape and words the verdict: "match" or
"mismatch" from ok through verdict_word, which the command line's own
comparisons use too, and "skipped" from a bound error.

A point is its two route values and their verdict, and no point is
conjectural: Chen and Tseng ("The splitting subspace conjecture", Finite
Fields Appl. 24, 2013) proved the splitting subspace count for all
(q, m, n), and through the equivalences of block companion Singer cycles
and primitive sigma-LFSRs that settles PVRC, BCSCC and the fiber counts
too.  JSON reports are schema "splitlab/2".

Exit code convention (used by the command line): 0 when nothing
mismatched, 1 when any point mismatched.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass

from . import fields, integers, lfsr, linalg, polys, splitting
from .errors import (
    BadArgs,
    FactorBoundExceeded,
    FactorSearchExceeded,
    IoError,
    IterationBoundExceeded,
    NotIrreducible,
    ScanBoundExceeded,
    UnknownStatement,
)

_BOUND_ERRORS = (
    ScanBoundExceeded,
    FactorBoundExceeded,
    FactorSearchExceeded,
    IterationBoundExceeded,
)


@dataclass(frozen=True)
class VerificationJob:
    """What to verify: a statement id, an optional grid of parameter
    tuples (None selects the statement's default grid), and a seed echoed
    into reports.  Scans run under the process-wide bounds of `config`
    (SPLITLAB_SCAN_BOUND); a point that exceeds one is reported skipped."""

    statement_id: str
    grid: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class PointResult:
    """One grid point: the two route values and how they compare."""

    params: tuple[int, ...]
    brute: int | None
    formula: int | None
    verdict: str
    seconds: float
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    """All point results of one job, in canonical parameter order."""

    statement_id: str
    seed: int
    points: tuple[PointResult, ...]
    seconds: float

    @property
    def matches(self) -> int:
        return sum(1 for p in self.points if p.verdict == "match")

    @property
    def mismatches(self) -> int:
        return sum(1 for p in self.points if p.verdict == "mismatch")

    @property
    def skipped(self) -> int:
        return sum(1 for p in self.points if p.verdict == "skipped")

    def exit_code(self) -> int:
        return 1 if self.mismatches else 0


_THROUGH_ONE = "subspaces through 1, scaled by (q^mn - 1)/(q^m - 1)"
_FIRST_ONE = "tuples with v_1 = 1, scaled by q^mn - 1"


def _through_one(q, m, n):
    """The scan route of SSC, LOWER_BOUND and M2_THEOREM: the splitting
    subspaces of the canonical instance, counted through 1 alone and
    rescaled (splitting._count_through_one)."""
    inst = splitting.split_instance(q, m, n)
    return splitting._count_through_one(inst.base, inst.mats, m)


def _h_ssc(q, m, n):
    brute = _through_one(q, m, n)
    closed = splitting.ssc_formula(q, m, n)
    return brute, closed, brute == closed, _THROUGH_ONE


def _h_pssc(q, m, n):
    rep = splitting.pointed_consistency(splitting.split_instance(q, m, n))
    note = "" if rep.uniform else "pointed counts are not uniform"
    return rep.common, rep.formula, rep.verdict == "match", note


def _h_lower_bound(q, m, n):
    brute = _through_one(q, m, n)
    bound = splitting.splitting_lower_bound(q, m, n)
    note = f"verdict records brute >= formula (lower bound); {_THROUGH_ONE}"
    return brute, bound, brute >= bound, note


def _h_m2(q):
    brute = _through_one(q, 2, 2)
    sub = splitting.m2_subtraction(q)
    closed = splitting.ssc_formula(q, 2, 2)
    note = f"plane count minus line count; product form {closed}; {_THROUGH_ONE}"
    return brute, sub, brute == sub == closed, note


def _h_splitandbases(q, m, n):
    inst = splitting.split_instance(q, m, n)
    direct = splitting.count_splitting_bases(inst, "direct")
    product = splitting.count_splitting_bases(inst, "product")
    note = f"{_FIRST_ONE}, vs subspace count times |GL_m|"
    return direct, product, direct == product, note


def _h_nobases(q, n):
    direct = splitting.count_splitting_bases(splitting.split_instance(q, 2, n), "direct")
    closed = splitting.nobases_formula(q, n)
    return direct, closed, direct == closed, f"{_FIRST_ONE}, vs closed form at m = 2"


def _h_genbb(q, n1, n2):
    ctx = fields.field_from_order(q)
    brute = polys.coprime_pair_count(n1, n2, ctx, "brute")
    closed = polys.coprime_pair_count(n1, n2, ctx, "closed")
    return brute, closed, brute == closed, ""


def _h_elemsplit(q, m, n):
    rep = splitting.pointed_consistency(splitting.split_instance(q, m, n))
    if not rep.uniform:
        return None, None, False, "pointed counts are not uniform"
    left = rep.splitting_count * (q**m - 1)
    right = rep.common * (q ** (m * n) - 1)
    return left, right, left == right, "total count vs pointed count, rescaled"


def _h_weak_ssc(q, m, n, a, b, c, d, r):
    rep = splitting.weak_ssc_check(splitting.split_instance(q, m, n), a, b, c, d, r)
    return rep.left, rep.right, rep.left == rep.right, f"generator moved by {rep.transform}"


def _h_endo_ssc(q, *coeffs):
    ctx = fields.field_from_order(q)
    if any(not 0 <= c < q for c in coeffs):
        raise BadArgs(f"coefficients out of range for F_{q}: {coeffs!r}")
    f = polys.Poly(ctx, coeffs)
    if f.degree != len(coeffs) - 1 or not f.is_monic:
        raise BadArgs(f"coefficients {coeffs!r} are not a monic polynomial")
    brute = splitting.count_T_splitting(linalg.companion_matrix(f), 1, f.degree)
    closed = splitting.endo_formula(f)
    return brute, closed, brute == closed, "cyclic endomorphism via its companion matrix"


def _h_nilpotent(m, q):
    brute = linalg.count_nilpotent(m, q, "brute")
    closed = linalg.count_nilpotent(m, q, "closed")
    return brute, closed, brute == closed, ""


def _h_pvrc(q, m, n):
    ctx = fields.field_from_order(q)
    brute = sum(
        size
        for rec, size in lfsr.enumerate_class_recurrences(ctx, m, n, invertible=True)
        if lfsr.is_primitive_recurrence(rec)
    )
    closed = lfsr.pvrc_formula(m, n, q)
    note = "primitive recurrences by matrix order, tuples up to conjugation"
    return brute, closed, brute == closed, note


def _h_bcscc(q, m, n):
    brute = lfsr.census_singer(m, n, q)
    closed = lfsr.pvrc_formula(m, n, q)
    return brute, closed, brute == closed, "census by primitive characteristic polynomial"


def fiber_rows(ctx, members, m: int, n: int):
    """Yield (f, scan, bridge) for every polynomial f of degree m*n over
    ctx in members: its fiber counted by the one recurrence scan up to
    conjugation, lfsr.fiber_histogram, run after every member is
    checked, and by the ordered-basis bridge.  bridge is None when f is
    reducible, which the bridge route itself reports."""
    members = list(members)
    for f in members:
        lfsr._check_fiber_poly(f, m, n)
    hist = lfsr.fiber_histogram(ctx, m, n)
    for f in members:
        try:
            bridge = lfsr.fiber_count(f, m, n)
        except NotIrreducible:
            bridge = None
        yield f, hist[f], bridge


def _fiber_family(q, m, n, *, kind: str):
    per_fiber = lfsr.nofiber_formula(m, n, q)
    ctx = fields.field_from_order(q)
    members = polys.find_irreducibles(ctx, m * n, kind)
    all_equal = True
    total = 0
    for _, scan, bridge in fiber_rows(ctx, members, m, n):
        total += scan
        if not scan == bridge == per_fiber:
            all_equal = False
    closed = len(members) * per_fiber
    label = "primitive" if kind == "primitive_only" else "irreducible"
    note = (
        f"{len(members)} {label} polynomials; scan up to conjugation vs closed form "
        "vs bridge per fiber"
    )
    return total, closed, all_equal and total == closed, note


_h_pfc = functools.partial(_fiber_family, kind="primitive_only")
_h_ifc = functools.partial(_fiber_family, kind="all")


def _h_chain(q, m, n):
    closed = lfsr.pvrc_formula(m, n, q)
    ctx = fields.field_from_order(q)
    mn = m * n
    irr = polys.find_irreducibles(ctx, mn, "all")
    ok = True
    prim_total = 0
    prim_count = 0
    for f, scan, bridge in fiber_rows(ctx, irr, m, n):
        if scan != bridge:
            ok = False
        if polys.is_primitive(f):
            prim_total += scan
            prim_count += 1
    census = lfsr.census_singer(m, n, q)
    if census != prim_total:
        ok = False
    if prim_count * mn != integers.euler_phi(q**mn - 1):
        ok = False
    note = (
        "fibers up to conjugation vs ordered bases per polynomial, "
        "full census vs primitive fibers"
    )
    return census, closed, ok and census == closed, note


_WEAK_GRID = (
    (2, 2, 2, 1, 1, 0, 1, 0),
    (2, 2, 2, 1, 0, 0, 1, 0),
    (2, 2, 2, 0, 1, 1, 0, 0),
    (2, 2, 2, 1, 0, 0, 1, 1),
    (2, 2, 2, 1, 1, 1, 0, 1),
)

_ENDO_GRID = tuple(
    (2,) + tail + (1,)
    for deg in (2, 3)
    for tail in itertools.product((0, 1), repeat=deg)
)

_QMN = ("q", "m", "n")

# statement id -> (handler, point shape, default grid); a shape names a
# point's components, and "..." stands for any number of further ones, so
# an ENDO_SSC point has three or more
_REGISTRY: dict[str, tuple] = {
    "SSC": (
        _h_ssc,
        _QMN,
        ((2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)),
    ),
    "PSSC": (_h_pssc, _QMN, ((2, 1, 2), (2, 2, 2), (3, 2, 2))),
    "LOWER_BOUND": (_h_lower_bound, _QMN, ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))),
    "M2_THEOREM": (_h_m2, ("q",), ((2,), (3,))),
    "SPLITANDBASES": (_h_splitandbases, _QMN, ((2, 1, 2), (2, 2, 2))),
    "NOBASES": (_h_nobases, ("q", "n"), ((2, 1), (2, 2), (3, 2))),
    "GENBB": (
        _h_genbb,
        ("q", "n1", "n2"),
        tuple(
            (q, n1, n2)
            for q in (2, 3)
            for n1 in range(1, 5)
            for n2 in range(1, n1 + 1)
        ),
    ),
    "ELEMSPLIT": (_h_elemsplit, _QMN, ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2))),
    "WEAK_SSC": (_h_weak_ssc, ("q", "m", "n", "a", "b", "c", "d", "r"), _WEAK_GRID),
    "ENDO_SSC": (_h_endo_ssc, ("q", "c0", "...", "ck"), _ENDO_GRID),
    "NILPOTENT": (_h_nilpotent, ("m", "q"), ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))),
    "PVRC": (_h_pvrc, _QMN, ((2, 1, 2), (2, 2, 1), (2, 2, 2))),
    "BCSCC": (_h_bcscc, _QMN, ((2, 1, 2), (2, 2, 1), (2, 2, 2))),
    "PFC": (_h_pfc, _QMN, ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2))),
    "IFC": (_h_ifc, _QMN, ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2))),
    "CHAIN": (_h_chain, _QMN, ((2, 1, 2), (2, 2, 2))),
}


def _check_shape(shape: tuple[str, ...], point: tuple[int, ...]) -> None:
    variadic = "..." in shape
    size = len(shape) - variadic
    if len(point) < size or (len(point) > size and not variadic):
        names = ", ".join(shape) + ("," if len(shape) == 1 else "")
        raise BadArgs(f"expected a ({names}) point, got {point!r}")


def statement_ids() -> tuple[str, ...]:
    """All verifiable statement ids, alphabetically."""
    return tuple(sorted(_REGISTRY))


def default_grid(statement_id: str) -> tuple[tuple[int, ...], ...]:
    """The default parameter grid of a statement."""
    try:
        return _REGISTRY[statement_id][2]
    except KeyError:
        raise UnknownStatement(
            f"unknown statement {statement_id!r}; known: {', '.join(statement_ids())}"
        ) from None


def verdict_word(ok: bool) -> str:
    return "match" if ok else "mismatch"


def verify(job: VerificationJob) -> Verdict:
    """Run every grid point of the job and collect the verdicts.

    Every point's shape is checked before any point runs.  Distinct
    points are processed once each, in sorted parameter order, so the
    report layout is deterministic for a given job.  Resource bound
    errors mark the point skipped instead of aborting the run.
    """
    if job.statement_id not in _REGISTRY:
        raise UnknownStatement(
            f"unknown statement {job.statement_id!r}; "
            f"known: {', '.join(statement_ids())}"
        )
    handler, shape, grid = _REGISTRY[job.statement_id]
    if job.grid is not None:
        grid = job.grid
    points = sorted({tuple(int(x) for x in p) for p in grid})
    for point in points:
        _check_shape(shape, point)
    started = time.perf_counter()
    results = []
    for point in points:
        t0 = time.perf_counter()
        try:
            brute, formula, ok, note = handler(*point)
            verdict = verdict_word(ok)
        except _BOUND_ERRORS as err:
            brute, formula, verdict, note = None, None, "skipped", str(err)
        results.append(
            PointResult(
                params=point,
                brute=brute,
                formula=formula,
                verdict=verdict,
                seconds=time.perf_counter() - t0,
                note=note,
            )
        )
    return Verdict(
        statement_id=job.statement_id,
        seed=job.seed,
        points=tuple(results),
        seconds=time.perf_counter() - started,
    )


def _render_json(verdict: Verdict, timing: bool) -> str:
    summary = {
        "points": len(verdict.points),
        "matches": verdict.matches,
        "mismatches": verdict.mismatches,
        "skipped": verdict.skipped,
        "exit_code": verdict.exit_code(),
    }
    if timing:
        summary["seconds"] = round(verdict.seconds, 6)
    rows = []
    for p in verdict.points:
        row = {
            "params": list(p.params),
            "brute": p.brute,
            "formula": p.formula,
            "verdict": p.verdict,
            "note": p.note,
        }
        if timing:
            row["seconds"] = round(p.seconds, 6)
        rows.append(row)
    doc = {
        "schema": "splitlab/2",
        "statement": verdict.statement_id,
        "seed": verdict.seed,
        "summary": summary,
        "points": rows,
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(verdict: Verdict, timing: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["statement", "params", "brute", "formula", "verdict", "seconds"])
    for p in verdict.points:
        writer.writerow(
            [
                verdict.statement_id,
                ",".join(str(x) for x in p.params),
                "" if p.brute is None else p.brute,
                "" if p.formula is None else p.formula,
                p.verdict,
                f"{p.seconds:.6f}" if timing else "",
            ]
        )
    return buf.getvalue()


def _render_text(verdict: Verdict, timing: bool) -> str:
    lines = []
    head = (
        f"{verdict.statement_id}: {len(verdict.points)} points, "
        f"{verdict.matches} match, {verdict.mismatches} mismatch, "
        f"{verdict.skipped} skipped"
    )
    if timing:
        head += f" ({verdict.seconds:.3f}s)"
    lines.append(head)
    for p in verdict.points:
        line = (
            f"  ({','.join(str(x) for x in p.params)}): "
            f"brute={p.brute} formula={p.formula} {p.verdict}"
        )
        if timing:
            line += f" ({p.seconds:.3f}s)"
        if p.note:
            line += f"  [{p.note}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def emit(
    verdict: Verdict,
    fmt: str = "json",
    dest: str | None = None,
    *,
    timing: bool = True,
) -> str:
    """Render a verdict as json, csv, or text, to stdout or a file.

    With timing=False every seconds field is omitted (json) or left
    blank (csv/text), which makes repeated runs byte-identical.
    """
    if fmt == "json":
        text = _render_json(verdict, timing)
    elif fmt == "csv":
        text = _render_csv(verdict, timing)
    elif fmt == "text":
        text = _render_text(verdict, timing)
    else:
        raise BadArgs(f"unknown format {fmt!r}")
    write_report(text, dest)
    return text


def write_report(text: str, dest: str | None) -> None:
    """Write a rendered report to stdout (dest None or "-") or a file."""
    if dest is None or dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write report to {dest}: {err}") from err

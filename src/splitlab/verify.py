"""Statement-level verification: run a named identity over a parameter
grid, compare the exhaustive route against the closed form at every
point, and report machine-readable verdicts.

Each statement id names one identity together with its two routes.  The
default grids are sized so a full run finishes in seconds; custom grids
may hit the scan or factor bounds, in which case the affected points are
recorded as skipped rather than failing the run.

Exit code convention (used by the command line): 0 when nothing
mismatched, 1 when a point with proved status mismatched, 2 when only
conjectural points mismatched.
"""

from __future__ import annotations

import csv
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
    status: str
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
        if any(p.verdict == "mismatch" and p.status == "proved" for p in self.points):
            return 1
        if self.mismatches:
            return 2
        return 0


def _point_qmn(point) -> tuple[int, int, int]:
    if len(point) != 3:
        raise BadArgs(f"expected a (q, m, n) point, got {point!r}")
    return point


def _status_proved(point) -> str:
    return "proved"


def _status_qmn(point) -> str:
    _, m, n = _point_qmn(point)
    return splitting.conjecture_status(m, n)


def _h_ssc(point):
    q, m, n = _point_qmn(point)
    inst = splitting.split_instance(q, m, n)
    rep = splitting.count_splitting(inst)
    return rep.brute, rep.formula, rep.verdict, ""


def _h_pssc(point):
    q, m, n = _point_qmn(point)
    inst = splitting.split_instance(q, m, n)
    rep = splitting.pointed_consistency(inst)
    note = "" if rep.uniform else "pointed counts are not uniform"
    return rep.common, rep.formula, rep.verdict, note


def _h_lower_bound(point):
    q, m, n = _point_qmn(point)
    inst = splitting.split_instance(q, m, n)
    brute = splitting.count_splitting(inst).brute
    bound = splitting.splitting_lower_bound(q, m, n)
    verdict = "match" if brute >= bound else "mismatch"
    return brute, bound, verdict, "verdict records brute >= formula (lower bound)"


def _h_m2(point):
    if len(point) != 1:
        raise BadArgs(f"expected a (q,) point, got {point!r}")
    (q,) = point
    inst = splitting.split_instance(q, 2, 2)
    brute = splitting.count_splitting(inst).brute
    sub = splitting.m2_subtraction(q)
    closed = splitting.ssc_formula(q, 2, 2)
    verdict = "match" if brute == sub == closed else "mismatch"
    return brute, sub, verdict, f"plane count minus line count; product form {closed}"


def _h_splitandbases(point):
    q, m, n = _point_qmn(point)
    inst = splitting.split_instance(q, m, n)
    direct = splitting.count_splitting_bases(inst, "direct")
    product = splitting.count_splitting_bases(inst, "product")
    verdict = "match" if direct == product else "mismatch"
    return direct, product, verdict, "tuple scan vs subspace count times |GL_m|"


def _h_nobases(point):
    if len(point) != 2:
        raise BadArgs(f"expected a (q, n) point, got {point!r}")
    q, n = point
    inst = splitting.split_instance(q, 2, n)
    direct = splitting.count_splitting_bases(inst, "direct")
    closed = splitting.nobases_formula(q, n)
    verdict = "match" if direct == closed else "mismatch"
    return direct, closed, verdict, "pair scan at m = 2 vs closed form"


def _h_genbb(point):
    if len(point) != 3:
        raise BadArgs(f"expected a (q, n1, n2) point, got {point!r}")
    q, n1, n2 = point
    ctx = fields.field_from_order(q)
    brute = polys.coprime_pair_count(n1, n2, ctx, "brute")
    closed = polys.coprime_pair_count(n1, n2, ctx, "closed")
    verdict = "match" if brute == closed else "mismatch"
    return brute, closed, verdict, ""


def _h_elemsplit(point):
    q, m, n = _point_qmn(point)
    inst = splitting.split_instance(q, m, n)
    rep = splitting.pointed_consistency(inst)
    if not rep.uniform:
        return None, None, "mismatch", "pointed counts are not uniform"
    left = rep.splitting_count * (q**m - 1)
    right = rep.common * (q ** (m * n) - 1)
    verdict = "match" if left == right else "mismatch"
    return left, right, verdict, "total count vs pointed count, rescaled"


def _h_weak_ssc(point):
    if len(point) != 8:
        raise BadArgs(f"expected a (q, m, n, a, b, c, d, r) point, got {point!r}")
    q, m, n, a, b, c, d, r = point
    inst = splitting.split_instance(q, m, n)
    rep = splitting.weak_ssc_check(inst, a, b, c, d, r)
    return rep.left, rep.right, rep.verdict, f"generator moved by {rep.transform}"


def _h_endo_ssc(point):
    if len(point) < 3:
        raise BadArgs(f"expected a (q, c0, ..., ck) point, got {point!r}")
    q = point[0]
    coeffs = point[1:]
    ctx = fields.field_from_order(q)
    if any(not 0 <= c < q for c in coeffs):
        raise BadArgs(f"coefficients out of range for F_{q}: {coeffs!r}")
    f = polys.Poly(ctx, coeffs)
    if f.degree != len(coeffs) - 1 or not f.is_monic:
        raise BadArgs(f"coefficients {coeffs!r} are not a monic polynomial")
    brute = splitting.count_T_splitting(linalg.companion_matrix(f), 1, f.degree)
    closed = splitting.endo_formula(f)
    verdict = "match" if brute == closed else "mismatch"
    return brute, closed, verdict, "cyclic endomorphism via its companion matrix"


def _h_nilpotent(point):
    if len(point) != 2:
        raise BadArgs(f"expected an (m, q) point, got {point!r}")
    m, q = point
    brute = linalg.count_nilpotent(m, q, "brute")
    closed = linalg.count_nilpotent(m, q, "closed")
    verdict = "match" if brute == closed else "mismatch"
    return brute, closed, verdict, ""


def _h_pvrc(point):
    q, m, n = _point_qmn(point)
    ctx = fields.field_from_order(q)
    brute = sum(
        1
        for rec in lfsr.enumerate_recurrences(ctx, m, n)
        if lfsr.is_primitive_recurrence(rec, "order")
    )
    closed = lfsr.pvrc_formula(m, n, q)
    verdict = "match" if brute == closed else "mismatch"
    return brute, closed, verdict, "primitive recurrences by matrix order"


def _h_bcscc(point):
    q, m, n = _point_qmn(point)
    brute = lfsr.census_singer(m, n, q)
    closed = lfsr.pvrc_formula(m, n, q)
    verdict = "match" if brute == closed else "mismatch"
    return brute, closed, verdict, "census by primitive characteristic polynomial"


def fiber_rows(members, m: int, n: int):
    """Yield (f, scan, bridge) for every polynomial f of degree m*n in
    members: its fiber counted by the recurrence scan and by the
    ordered-basis bridge.  bridge is None when f is reducible, which the
    bridge route itself reports."""
    for f in members:
        scan = lfsr.fiber_count(f, m, n, "scan")
        try:
            bridge = lfsr.fiber_count(f, m, n, "bridge")
        except NotIrreducible:
            bridge = None
        yield f, scan, bridge


def _fiber_family(point, kind: str):
    q, m, n = _point_qmn(point)
    ctx = fields.field_from_order(q)
    members = polys.find_irreducibles(ctx, m * n, kind)
    per_fiber = lfsr.nofiber_formula(m, n, q)
    all_equal = True
    total = 0
    for _, scan, bridge in fiber_rows(members, m, n):
        total += scan
        if not scan == bridge == per_fiber:
            all_equal = False
    closed = len(members) * per_fiber
    verdict = "match" if all_equal and total == closed else "mismatch"
    label = "primitive" if kind == "primitive_only" else "irreducible"
    note = f"{len(members)} {label} polynomials; scan vs closed form vs bridge per fiber"
    return total, closed, verdict, note


def _h_pfc(point):
    return _fiber_family(point, "primitive_only")


def _h_ifc(point):
    return _fiber_family(point, "all")


def _h_chain(point):
    q, m, n = _point_qmn(point)
    ctx = fields.field_from_order(q)
    mn = m * n
    irr = polys.find_irreducibles(ctx, mn, "all")
    ok = True
    prim_total = 0
    prim_count = 0
    for f, scan, bridge in fiber_rows(irr, m, n):
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
    closed = lfsr.pvrc_formula(m, n, q)
    verdict = "match" if ok and census == closed else "mismatch"
    note = "fibers vs ordered bases per polynomial, census vs primitive fibers"
    return census, closed, verdict, note


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

_REGISTRY: dict[str, tuple] = {
    "SSC": (
        _status_qmn,
        _h_ssc,
        ((2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)),
    ),
    "PSSC": (_status_qmn, _h_pssc, ((2, 1, 2), (2, 2, 2), (3, 2, 2))),
    "LOWER_BOUND": (
        _status_proved,
        _h_lower_bound,
        ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)),
    ),
    "M2_THEOREM": (_status_proved, _h_m2, ((2,), (3,))),
    "SPLITANDBASES": (_status_proved, _h_splitandbases, ((2, 1, 2), (2, 2, 2))),
    "NOBASES": (_status_proved, _h_nobases, ((2, 1), (2, 2), (3, 2))),
    "GENBB": (
        _status_proved,
        _h_genbb,
        tuple(
            (q, n1, n2)
            for q in (2, 3)
            for n1 in range(1, 5)
            for n2 in range(1, n1 + 1)
        ),
    ),
    "ELEMSPLIT": (
        _status_proved,
        _h_elemsplit,
        ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2)),
    ),
    "WEAK_SSC": (_status_proved, _h_weak_ssc, _WEAK_GRID),
    "ENDO_SSC": (_status_proved, _h_endo_ssc, _ENDO_GRID),
    "NILPOTENT": (
        _status_proved,
        _h_nilpotent,
        ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)),
    ),
    "PVRC": (_status_qmn, _h_pvrc, ((2, 1, 2), (2, 2, 1), (2, 2, 2))),
    "BCSCC": (_status_qmn, _h_bcscc, ((2, 1, 2), (2, 2, 1), (2, 2, 2))),
    "PFC": (_status_qmn, _h_pfc, ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2))),
    "IFC": (_status_qmn, _h_ifc, ((2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2))),
    "CHAIN": (_status_qmn, _h_chain, ((2, 1, 2), (2, 2, 2))),
}


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


def verify(job: VerificationJob) -> Verdict:
    """Run every grid point of the job and collect the verdicts.

    Distinct points are processed once each, in sorted parameter order,
    so the report layout is deterministic for a given job.  Resource
    bound errors mark the point skipped instead of aborting the run.
    """
    if job.statement_id not in _REGISTRY:
        raise UnknownStatement(
            f"unknown statement {job.statement_id!r}; "
            f"known: {', '.join(statement_ids())}"
        )
    status_fn, handler, grid = _REGISTRY[job.statement_id]
    if job.grid is not None:
        grid = job.grid
    points = sorted({tuple(int(x) for x in p) for p in grid})
    started = time.perf_counter()
    results = []
    for point in points:
        status = status_fn(point)
        t0 = time.perf_counter()
        try:
            brute, formula, verdict, note = handler(point)
        except _BOUND_ERRORS as err:
            results.append(
                PointResult(
                    params=point,
                    brute=None,
                    formula=None,
                    status=status,
                    verdict="skipped",
                    seconds=time.perf_counter() - t0,
                    note=str(err),
                )
            )
            continue
        results.append(
            PointResult(
                params=point,
                brute=brute,
                formula=formula,
                status=status,
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
            "status": p.status,
            "verdict": p.verdict,
            "note": p.note,
        }
        if timing:
            row["seconds"] = round(p.seconds, 6)
        rows.append(row)
    doc = {
        "schema": "splitlab/1",
        "statement": verdict.statement_id,
        "seed": verdict.seed,
        "summary": summary,
        "points": rows,
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(verdict: Verdict, timing: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["statement", "params", "brute", "formula", "status", "verdict", "seconds"]
    )
    for p in verdict.points:
        writer.writerow(
            [
                verdict.statement_id,
                ",".join(str(x) for x in p.params),
                "" if p.brute is None else p.brute,
                "" if p.formula is None else p.formula,
                p.status,
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
            f"brute={p.brute} formula={p.formula} {p.status} {p.verdict}"
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

"""Command line front end.

Literal formats shared by the subcommands:

* field: a prime power like "9", or explicitly "p^e" like "3^2"
* polynomial: comma-separated coefficient codes, constant term first,
  e.g. "1,1,0,0,1" for x^4 + x + 1
* matrix: rows separated by ";", entries by ",", e.g. "0,1;1,1"
* matrix list: matrices separated by "|"
* state: words separated by ";", codes by ","
* grid: parameter tuples separated by ";", components by ","

Exit codes: 0 when every comparison matched (or was skipped), 1 when
any comparison mismatched, 3 for operational errors (bad arguments,
exceeded bounds, IO).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import fields, lfsr, linalg, polys, splitting
from .errors import BadArgs, SplitLabError
from .verify import VerificationJob, emit, fiber_rows, statement_ids, verdict_word, write_report
from .verify import verify as run_verification


def _parse_field(spec: str) -> fields.FieldCtx:
    spec = spec.strip()
    try:
        if "^" in spec:
            p_text, e_text = spec.split("^", 1)
            return fields.build_field(int(p_text), int(e_text))
        return fields.field_from_order(int(spec))
    except ValueError:
        raise BadArgs(f"cannot parse field spec {spec!r}") from None


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BadArgs(f"cannot parse {what} literal {text!r}") from None


def _check_codes(ctx, codes: tuple[int, ...], what: str) -> None:
    for c in codes:
        if not 0 <= c < ctx.size:
            raise BadArgs(f"{what} {c} is not a code in [0, {ctx.size})")


def _parse_poly(ctx, text: str) -> polys.Poly:
    codes = _parse_ints(text, "polynomial")
    _check_codes(ctx, codes, "coefficient")
    return polys.Poly(ctx, codes)


def _parse_matrix(ctx, text: str, m: int) -> linalg.Matrix:
    rows = [_parse_ints(part, "matrix row") for part in text.split(";")]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise BadArgs(f"matrix literal {text!r} is not {m}x{m}")
    for row in rows:
        _check_codes(ctx, row, "entry")
    return linalg.Matrix(ctx, rows, m)


def _parse_state(ctx, text: str, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    words = tuple(_parse_ints(part, "state word") for part in text.split(";"))
    if len(words) != n or any(len(w) != m for w in words):
        raise BadArgs(f"state literal {text!r} is not {n} words of length {m}")
    for word in words:
        _check_codes(ctx, word, "state entry")
    return words


def _parse_grid(text: str) -> tuple[tuple[int, ...], ...]:
    text = text.strip()
    if not text:
        raise BadArgs("the grid is empty; omit --grid for the default grid")
    return tuple(_parse_ints(part, "grid point") for part in text.split(";"))


def _cmd_count_splitting(args: argparse.Namespace) -> int:
    base = _parse_field(args.q)
    q = base.size
    poly = _parse_poly(base, args.poly) if args.poly else None
    inst = splitting.split_instance(
        q, args.m, args.n, defining_poly=poly,
        element=_parse_ints(args.alpha, "coordinates") if args.alpha else None,
    )
    rep = splitting.count_splitting(inst, formula_only=args.formula_only)
    doc = dataclasses.asdict(rep)
    if not args.timing:
        doc.pop("seconds")
    mismatch = rep.brute is not None and rep.brute != rep.formula
    if args.pointed:
        x = inst.tower.element(_parse_ints(args.pointed, "coordinates"))
        pointed = splitting.count_pointed(inst, x)
        expected = splitting.pointed_formula(q, args.m, args.n)
        doc["pointed_x"] = args.pointed
        doc["pointed_brute"] = pointed
        doc["pointed_formula"] = expected
        doc["pointed_verdict"] = verdict_word(pointed == expected)
        mismatch = mismatch or pointed != expected
    if args.format == "json":
        doc = {"schema": "splitlab/2", **doc}
        write_report(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"{key}={value}" for key, value in doc.items()]
        write_report("\n".join(lines) + "\n", args.out)
    return 1 if mismatch else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else None
    job = VerificationJob(statement_id=args.statement, grid=grid, seed=args.seed)
    verdict = run_verification(job)
    emit(verdict, args.format, args.out, timing=args.timing)
    return verdict.exit_code()


def _print_point(statement: str, point: tuple[int, ...], *labels: tuple[str, str]) -> int:
    """Verify one point of a statement and print it: each (label, field)
    of labels as "label value", in order, then the verdict.  Returns the
    exit code.  A point skipped for exceeding a bound is an error here,
    not a pass."""
    verdict = run_verification(VerificationJob(statement, grid=(point,)))
    (result,) = verdict.points
    if result.verdict == "skipped":
        raise SplitLabError(result.note)
    for label, field in labels:
        print(label, getattr(result, field))
    print("verdict", result.verdict)
    return verdict.exit_code()


def _cmd_coprime_census(args: argparse.Namespace) -> int:
    ctx = _parse_field(args.q)
    if args.method in ("closed", "brute"):
        value = polys.coprime_pair_count(args.n1, args.n2, ctx, args.method)
        print(value)
        return 0
    point = (ctx.size, args.n1, args.n2)
    return _print_point("GENBB", point, ("closed", "formula"), ("brute", "brute"))


def _cmd_qbinom(args: argparse.Namespace) -> int:
    print(linalg.gaussian_binomial(args.a, args.b, args.q))
    return 0


def _cmd_nilpotent_census(args: argparse.Namespace) -> int:
    if args.method in ("closed", "brute"):
        print(linalg.count_nilpotent(args.m, args.q, args.method))
        return 0
    point = (args.m, args.q)
    return _print_point("NILPOTENT", point, ("closed", "formula"), ("brute", "brute"))


def _parse_recurrence(args: argparse.Namespace) -> lfsr.BlockRecurrence:
    ctx = _parse_field(args.q)
    mats = [_parse_matrix(ctx, part, args.m) for part in args.C.split("|")]
    if len(mats) != args.n:
        raise BadArgs(f"got {len(mats)} coefficient matrices, expected n={args.n}")
    return lfsr.BlockRecurrence(ctx, args.m, mats)


def _cmd_lfsr_simulate(args: argparse.Namespace) -> int:
    rec = _parse_recurrence(args)
    init = _parse_state(rec.ctx, args.init, args.m, args.n)
    for word in lfsr.simulate(rec, init, args.steps):
        print(",".join(str(c) for c in word))
    return 0


def _cmd_lfsr_period(args: argparse.Namespace) -> int:
    rec = _parse_recurrence(args)
    init = _parse_state(rec.ctx, args.init, args.m, args.n)
    report = lfsr.period_preperiod(rec, init)
    print(
        f"preperiod={report.preperiod} period={report.period} "
        f"periodic={'true' if report.periodic else 'false'}"
    )
    return 0


def _cmd_singer_census(args: argparse.Namespace) -> int:
    base = _parse_field(args.q)
    q = base.size
    if args.method == "scan":
        print(lfsr.census_singer(args.m, args.n, q))
        return 0
    if args.method == "formula":
        print(lfsr.pvrc_formula(args.m, args.n, q))
        return 0
    point = (q, args.m, args.n)
    return _print_point("BCSCC", point, ("scan", "brute"), ("formula", "formula"))


def _cmd_fiber_census(args: argparse.Namespace) -> int:
    base = _parse_field(args.q)
    q = base.size
    mn = args.m * args.n
    per_fiber = lfsr.nofiber_formula(args.m, args.n, q)
    if args.poly:
        members = [_parse_poly(base, args.poly)]
    elif args.all_primitive:
        members = polys.find_irreducibles(base, mn, "primitive_only")
    else:
        members = polys.find_irreducibles(base, mn, "all")
    total = 0
    any_mismatch = False
    for f, scan, bridge in fiber_rows(base, members, args.m, args.n):
        literal = ",".join(str(c) for c in f.coeffs)
        total += scan
        if bridge is not None:
            ok = scan == per_fiber == bridge
            any_mismatch |= not ok
            print(
                f"poly={literal} scan={scan} formula={per_fiber} "
                f"bridge={bridge} verdict={verdict_word(ok)}"
            )
        else:
            print(f"poly={literal} scan={scan}")
    print(f"total {total} over {len(members)} polynomials")
    return 1 if any_mismatch else 0


def _add_qmn(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", required=True, help="field size, or p^e")
    sub.add_argument("--m", required=True, type=int, help="subspace dimension / word length")
    sub.add_argument("--n", required=True, type=int, help="number of power translates / recurrence length")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitlab",
        description="Exhaustive counts and closed-form checks for splitting "
        "subspaces, block companion matrices, and vector recurrences over "
        "finite fields.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cs = commands.add_parser(
        "count-splitting", help="count splitting subspaces and compare routes"
    )
    _add_qmn(cs)
    cs.add_argument("--poly", help="defining polynomial (constant term first)")
    cs.add_argument("--alpha", help="generator coordinates over the base field")
    cs.add_argument("--pointed", metavar="X", help="also count subspaces through X")
    cs.add_argument("--formula-only", action="store_true", help="skip the scan")
    cs.add_argument("--format", choices=("json", "text"), default="json")
    cs.add_argument("--out", help="write the report to this path instead of stdout")
    cs.add_argument("--no-timing", dest="timing", action="store_false")
    cs.set_defaults(func=_cmd_count_splitting)

    vf = commands.add_parser("verify", help="verify one statement over a grid")
    vf.add_argument(
        "--statement",
        required=True,
        metavar="ID",
        help="one of: " + ", ".join(statement_ids()),
    )
    vf.add_argument("--grid", help='points "q,m,n;..." (default grid if omitted)')
    vf.add_argument("--format", choices=("json", "csv", "text"), default="json")
    vf.add_argument("--out", help="write the report to this path instead of stdout")
    vf.add_argument("--seed", type=int, default=0, help="echoed into the report")
    vf.add_argument(
        "--no-timing",
        dest="timing",
        action="store_false",
        help="omit seconds fields so repeated runs are byte-identical",
    )
    vf.set_defaults(func=_cmd_verify)

    cc = commands.add_parser("coprime-census", help="count coprime polynomial pairs")
    cc.add_argument("--q", required=True, help="field size, or p^e")
    cc.add_argument("--n1", required=True, type=int)
    cc.add_argument("--n2", required=True, type=int)
    cc.add_argument("--method", choices=("closed", "brute", "both"), default="both")
    cc.set_defaults(func=_cmd_coprime_census)

    qb = commands.add_parser("qbinom", help="Gaussian binomial coefficient")
    qb.add_argument("a", type=int)
    qb.add_argument("b", type=int)
    qb.add_argument("q", type=int)
    qb.set_defaults(func=_cmd_qbinom)

    nc = commands.add_parser("nilpotent-census", help="count nilpotent matrices")
    nc.add_argument("m", type=int)
    nc.add_argument("q", type=int)
    nc.add_argument("--method", choices=("closed", "brute", "both"), default="both")
    nc.set_defaults(func=_cmd_nilpotent_census)

    lf = commands.add_parser("lfsr", help="run block recurrences")
    lf_sub = lf.add_subparsers(dest="lfsr_command", required=True)
    sim = lf_sub.add_parser("simulate", help="print the first words of a sequence")
    _add_qmn(sim)
    sim.add_argument("--C", required=True, help='coefficient matrices "M0|M1|..."')
    sim.add_argument("--init", required=True, help='initial state "w0;w1;..."')
    sim.add_argument("--steps", required=True, type=int, help="words to print")
    sim.set_defaults(func=_cmd_lfsr_simulate)
    per = lf_sub.add_parser("period", help="preperiod and period of a trajectory")
    _add_qmn(per)
    per.add_argument("--C", required=True, help='coefficient matrices "M0|M1|..."')
    per.add_argument("--init", required=True, help='initial state "w0;w1;..."')
    per.set_defaults(func=_cmd_lfsr_period)

    sc = commands.add_parser(
        "singer-census", help="count block companion matrices of maximal order"
    )
    _add_qmn(sc)
    sc.add_argument("--method", choices=("scan", "formula", "both"), default="both")
    sc.set_defaults(func=_cmd_singer_census)

    fc = commands.add_parser(
        "fiber-census", help="count block companions by characteristic polynomial"
    )
    _add_qmn(fc)
    group = fc.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="one polynomial (constant term first)")
    group.add_argument(
        "--all-irreducible", action="store_true", help="every irreducible of degree m*n"
    )
    group.add_argument(
        "--all-primitive", action="store_true", help="every primitive of degree m*n"
    )
    fc.set_defaults(func=_cmd_fiber_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed usage and its error; bad arguments exit 3
        # like every other operational error.  --help exits 0.
        return 3 if exc.code else 0
    # argparse drops a value of exactly "--" (as in --q=--) and stores an
    # empty list in its place; no option here takes a list
    empty = [name for name, value in vars(args).items() if value == []]
    if empty:
        print(f"error: --{empty[0]} needs a value", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except SplitLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

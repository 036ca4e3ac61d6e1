"""Command-line front end.

Subcommands: partitions, hurwitz, zclosed, verify-curve, cutjoin-check,
selftest.  Exit codes: 0 success, 1 a verification reported failure,
2 usage error.  All mathematical output is deterministic (exact rationals
as "p/q" strings, fixed orderings); the only non-reproducible field is
the ``millis`` timing in verification reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .curves import (
    CurveCase,
    CurveKind,
    recurrence_check,
    verify_annihilation,
)
from .hurwitz import verify_cut_and_join
from .selftest import (
    default_golden_dir,
    hurwitz_payload,
    partitions_payload,
    run_selftest,
    zclosed_payload,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _table_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _render(args, payload, rows: list[dict]) -> None:
    """Emit payload as JSON, or its flat rows as CSV or a text table."""
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        _emit(_csv_text(rows), args.out)
    else:
        _emit(_table_text(rows), args.out)


def _cases_for(label: str, framings: list[int] | None) -> list[CurveCase]:
    kind = CurveKind(label)
    if kind is CurveKind.LAMBERT:
        return [CurveCase(kind)]
    if not framings:
        framings = list(range(-3, 4))
    return [CurveCase(kind, a) for a in framings]


def cmd_partitions(args) -> int:
    rows = partitions_payload(args.n)
    _render(args, rows, rows)
    return 0


def cmd_hurwitz(args) -> int:
    rows = hurwitz_payload(args.dmax, args.gmax)
    _render(args, rows, rows)
    return 0


def cmd_zclosed(args) -> int:
    payload = zclosed_payload(args.case, args.framing, args.xorder)
    rows = [
        {"degree": c["degree"], "coefficient": c["text"]}
        for c in payload["coefficients"]
    ]
    _render(args, payload, rows)
    return 0


def cmd_verify_curve(args) -> int:
    cases = _cases_for(args.case, args.framing)
    reports = [
        verify_annihilation(case, args.xorder, args.y_direction) for case in cases
    ]
    if args.format == "json":
        _emit(_json_text([r.to_json() for r in reports]), args.out)
    else:
        lines = []
        for r in reports:
            framing = "-" if r.framing is None else r.framing
            line = (
                f"{r.case} framing={framing} order={r.order} "
                f"y={r.y_direction}: {r.status} ({r.millis}ms)"
            )
            if r.first_failure is not None:
                line += f"  first failure at x^{r.first_failure[0]}"
            lines.append(line)
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


def cmd_recurrence(args) -> int:
    cases = _cases_for(args.case, args.framing)
    reports = [recurrence_check(case, args.xorder) for case in cases]
    if args.format == "json":
        _emit(_json_text([r.to_json() for r in reports]), args.out)
    else:
        lines = [
            f"{r.case} framing={'-' if r.framing is None else r.framing} "
            f"order={r.order}: {'ok' if r.ok else f'fails at n={r.first_failure}'}"
            for r in reports
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


def cmd_cutjoin_check(args) -> int:
    rep = verify_cut_and_join(args.dmax, args.lam_order)
    payload = {
        "degree_cap": rep.degree_cap,
        "lam_order": rep.lam_order,
        "ok": rep.ok,
        "coefficients_checked": rep.coefficients_checked,
        "first_mismatch": (
            None
            if rep.first_mismatch is None
            else {
                "partition": str(list(rep.first_mismatch[0])),
                "lam_power": rep.first_mismatch[1],
                "lhs": rep.first_mismatch[2],
                "rhs": rep.first_mismatch[3],
            }
        ),
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        status = "holds" if rep.ok else f"fails: {payload['first_mismatch']}"
        _emit(
            f"cut-and-join through degree {rep.degree_cap}, "
            f"lam order {rep.lam_order}: {status}\n",
            args.out,
        )
    return 0 if rep.ok else 1


def cmd_selftest(args) -> int:
    golden = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    results = run_selftest(golden_dir=golden)
    ok = all(r.ok for r in results)
    if args.json:
        payload = {
            "ok": ok,
            "suites": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "millis": r.millis,
                }
                for r in results
            ],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [
            f"{'PASS' if r.ok else 'FAIL'}  {r.name}  ({r.millis}ms)"
            + ("" if r.ok else f"  {r.detail}")
            for r in results
        ]
        lines.append(f"selftest: {'all suites passed' if ok else 'FAILURES'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurve",
        description=(
            "Exact partition functions for the Lambert, framed C3, and "
            "resolved-conifold curves, and machine verification that each "
            "is annihilated by its quantum curve operator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("partitions", help="list partitions with z, aut, kappa, dim")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("hurwitz", help="exact Hurwitz numbers H_{g,mu}")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--gmax", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("zclosed", help="closed-form partition function coefficients")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument("--framing", type=int, default=0)
    p.add_argument("--xorder", type=int, default=8)
    common(p)
    p.set_defaults(fn=cmd_zclosed)

    p = sub.add_parser("verify-curve", help="check operator * Z == 0 exactly")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument(
        "--framing",
        type=int,
        nargs="+",
        help="framings to test (default: -3..3 for c3/conifold)",
    )
    p.add_argument("--xorder", type=int, default=12)
    p.add_argument(
        "--y-direction",
        choices=["forward", "inverse"],
        default="forward",
        dest="y_direction",
        help="conifold dilation direction (inverse is the failing reading)",
    )
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_verify_curve)

    p = sub.add_parser("recurrence", help="check the coefficient recurrences")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument("--framing", type=int, nargs="+")
    p.add_argument("--xorder", type=int, default=12)
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_recurrence)

    p = sub.add_parser("cutjoin-check", help="d/dlam == cut-and-join on the series")
    p.add_argument("--dmax", type=int, default=4)
    p.add_argument("--lam-order", type=int, default=8, dest="lam_order")
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_cutjoin_check)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--golden-dir", dest="golden_dir")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_selftest)

    # usage errors found after parsing are reported with the subcommand's usage
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def _validate(args) -> None:
    parser = args.subparser
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            parser.error(f"--out {args.out} is a directory")
        if not out.parent.is_dir():
            parser.error(f"--out {args.out}: directory {out.parent} does not exist")
    if getattr(args, "golden_dir", None) and not Path(args.golden_dir).is_dir():
        parser.error(f"--golden-dir {args.golden_dir} is not a directory")
    if args.command == "partitions" and args.n < 0:
        parser.error("n must be >= 0")
    if args.command == "hurwitz" and (args.dmax < 1 or args.gmax < 0):
        parser.error("need --dmax >= 1 and --gmax >= 0")
    if args.command in ("zclosed", "verify-curve", "recurrence"):
        if args.case == "lambert" and getattr(args, "framing", None):
            parser.error("the lambert case has no framing parameter")
    if args.command in ("zclosed", "verify-curve") and args.xorder < 0:
        parser.error("--xorder must be >= 0")
    if getattr(args, "y_direction", None) == "inverse" and args.case != "conifold":
        parser.error("--y-direction inverse applies to the conifold case only")
    if args.command == "recurrence" and args.xorder < 1:
        parser.error("--xorder must be >= 1")
    if args.command == "cutjoin-check" and (args.dmax < 0 or args.lam_order < 1):
        parser.error("need --dmax >= 0 and --lam-order >= 1")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args)
    return args.fn(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

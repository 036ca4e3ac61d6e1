"""Command-line front end.

Subcommands: partitions, hurwitz, zclosed, verify-curve, recurrence,
cutjoin-check, selftest.  Exit codes: 0 success, 1 a verification
reported failure, 2 usage error.  All mathematical output is
deterministic (exact rationals as "p/q" strings, fixed orderings); the
only non-reproducible field is the ``millis`` timing in verification
reports.  Each verification report renders itself (``to_json`` and
``text``); ``_report`` writes either and picks the exit code.

The sizes are capped, and a larger value is a usage error caught before
any work.  Each cap keeps one run within seconds on a 2.1 GHz x86 core:
``partitions N`` 40 (every partition of 40 listed in 3.4 s at 63 MB;
n = 50 takes 22.7 s at 311 MB), ``--xorder`` 40 (annihilation of the
conifold about 1 s per framing, 5.9-6.8 s for the default seven),
``--dmax`` 14 and ``--gmax`` 8 (the Hurwitz table at both caps 1.4 s),
``--lam-order`` 30 (the cut-and-join check at degree 14 and lam^30
about 1 s) and ``--framing`` 10 in absolute value, for every value of a
multi-value ``--framing`` (the failing inverse reading of the conifold
normalizes dense slices about 2 |a| n wide: at x^40 it takes 5.3 s at
87 MB for a = 3, 8.3 s at 117 MB for a = 10 and 19 s at 229 MB
for a = 40).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .curves import (
    CurveCase,
    CurveKind,
    recurrence_check,
    verify_annihilation,
    z_closed,
)
from .hurwitz import verify_cut_and_join
from .selftest import (
    default_golden_dir,
    hurwitz_payload,
    partitions_payload,
    run_selftest,
    zclosed_payload,
)


PARTITIONS_MAX = 40
XORDER_MAX = 40
DMAX_MAX = 14
GMAX_MAX = 8
LAM_ORDER_MAX = 30
FRAMING_MAX = 10


def _output(out: str | None):
    return open(out, "w") if out else nullcontext(sys.stdout)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fp:
        fp.write(text)


def _emit_json(payload, out: str | None) -> None:
    """Stream payload as indented JSON, never held as one string.

    The bytes are those of ``json.dump(payload, fp, indent=2)``; its
    chunks are joined in batches, as one write per chunk is slower than
    building the whole string.
    """
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    with _output(out) as fp:
        for batch in iter(lambda: "".join(islice(chunks, 8192)), ""):
            fp.write(batch)
        fp.write("\n")


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


def _render(args, rows: list[dict]) -> None:
    """Emit the rows as JSON, CSV or a text table."""
    if args.format == "json":
        _emit_json(rows, args.out)
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
    _render(args, partitions_payload(args.n))
    return 0


def cmd_hurwitz(args) -> int:
    _render(args, hurwitz_payload(args.dmax, args.gmax))
    return 0


def cmd_zclosed(args) -> int:
    (case,) = _cases_for(args.case, [args.framing])
    if args.format == "json":
        _emit_json(zclosed_payload(case, args.xorder), args.out)
        return 0
    # text and CSV read only each coefficient's text, not its JSON terms
    series = z_closed(case, args.xorder)
    _render(args, [
        {"degree": n, "coefficient": str(c)} for n, c in enumerate(series.coeffs)
    ])
    return 0


def _report(args, payload, lines: list[str], ok: bool) -> int:
    """Emit a verification verdict as JSON or text lines; exit 1 if it failed."""
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_verify_curve(args) -> int:
    cases = _cases_for(args.case, args.framing)
    reports = [verify_annihilation(c, args.xorder, args.y_direction) for c in cases]
    return _report(args, [r.to_json() for r in reports], [r.text() for r in reports],
                   all(r.ok for r in reports))


def cmd_recurrence(args) -> int:
    cases = _cases_for(args.case, args.framing)
    reports = [recurrence_check(c, args.xorder) for c in cases]
    return _report(args, [r.to_json() for r in reports], [r.text() for r in reports],
                   all(r.ok for r in reports))


def cmd_cutjoin_check(args) -> int:
    rep = verify_cut_and_join(args.dmax, args.lam_order)
    return _report(args, rep.to_json(), [rep.text()], rep.ok)


def cmd_selftest(args) -> int:
    golden = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    results = run_selftest(golden)
    ok = all(r.ok for r in results)
    lines = [r.text() for r in results]
    lines.append(f"selftest: {'all suites passed' if ok else 'FAILURES'}")
    payload = {"ok": ok, "suites": [r.to_json() for r in results]}
    return _report(args, payload, lines, ok)


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
    p.add_argument("n", type=int, help=f"at most {PARTITIONS_MAX}")
    common(p)
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("hurwitz", help="exact Hurwitz numbers H_{g,mu}")
    p.add_argument("--dmax", type=int, required=True, help=f"at most {DMAX_MAX}")
    p.add_argument("--gmax", type=int, default=0, help=f"at most {GMAX_MAX}")
    common(p)
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("zclosed", help="closed-form partition function coefficients")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument(
        "--framing", type=int, default=0,
        help=f"at most {FRAMING_MAX} in absolute value",
    )
    p.add_argument("--xorder", type=int, default=8, help=f"at most {XORDER_MAX}")
    common(p)
    p.set_defaults(fn=cmd_zclosed)

    p = sub.add_parser("verify-curve", help="check operator * Z == 0 exactly")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument(
        "--framing",
        type=int,
        nargs="+",
        help=f"framings to test, each at most {FRAMING_MAX} in absolute value "
        "(default: -3..3 for c3/conifold)",
    )
    p.add_argument("--xorder", type=int, default=12, help=f"at most {XORDER_MAX}")
    p.add_argument(
        "--y-direction",
        choices=["forward", "inverse"],
        default="forward",
        help="conifold dilation direction (inverse is the failing reading)",
    )
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_verify_curve)

    p = sub.add_parser("recurrence", help="check the coefficient recurrences")
    p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
    p.add_argument(
        "--framing", type=int, nargs="+",
        help=f"each at most {FRAMING_MAX} in absolute value",
    )
    p.add_argument("--xorder", type=int, default=12, help=f"at most {XORDER_MAX}")
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_recurrence)

    p = sub.add_parser("cutjoin-check", help="d/dlam == cut-and-join on the series")
    p.add_argument("--dmax", type=int, default=4, help=f"at most {DMAX_MAX}")
    p.add_argument("--lam-order", type=int, default=8, help=f"at most {LAM_ORDER_MAX}")
    common(p, formats=("text", "json"))
    p.set_defaults(fn=cmd_cutjoin_check)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.add_argument("--json", action="store_const", const="json", dest="format",
                   default="text")
    p.add_argument("--golden-dir")
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
    for name, cap in (("n", PARTITIONS_MAX), ("--xorder", XORDER_MAX),
                      ("--dmax", DMAX_MAX), ("--gmax", GMAX_MAX),
                      ("--lam-order", LAM_ORDER_MAX), ("--framing", FRAMING_MAX)):
        values = getattr(args, name.lstrip("-").replace("-", "_"), None)
        for value in values if isinstance(values, list) else [values]:
            if value is not None and abs(value) > cap:
                parser.error(f"{name} {value} exceeds the cap {cap}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args)
    return args.fn(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

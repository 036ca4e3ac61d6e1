"""Command-line front end.

Subcommands: partitions, hurwitz, zclosed, verify-curve, recurrence,
cutjoin-check, selftest.  Exit codes: 0 success, 1 a verification
reported failure, 2 usage error, 141 (the shell's 128 + SIGPIPE) when
the reader closes stdout before the output ends, as ``| head`` does.
All mathematical output is deterministic (exact rationals as "p/q"
strings, fixed orderings); the only non-reproducible field is the
``millis`` timing in verification reports.  Each verification report
renders itself (``to_json`` and ``text``); ``_report`` writes either and
picks the exit code.  Tables are written line by line: JSON is
streamed, CSV goes through ``csv.DictWriter`` and a text table takes its
widths from one pass over the rows.

Every bounded int argument is declared once, by ``_size``, which records
its lower bound and cap for ``_validate``.  A value beyond a cap is a
usage error caught before any work.  Each cap keeps one run within
seconds on a 2.1 GHz x86 core: ``partitions N`` 40 (every partition of
40 listed in 1.0-1.8 s at 38 MB; n = 50 takes 6.8 s at 139 MB in text),
``--xorder`` 40 (annihilation of the conifold 0.2-0.4 s per framing,
1.0-1.2 s at 57 MB for the default seven, holding one framing's series
at a time), ``--dmax`` 14 and ``--gmax`` 8 (the Hurwitz table at both
caps 0.5-0.8 s; ``cutjoin-check --dmax 14``, exact in E, 0.2-0.3 s at
19 MB) and ``--framing`` 10 in absolute value, for every value of a
multi-value ``--framing`` (the failing inverse reading of the conifold
tests every degree for zero without a gcd and normalizes only the
degree-1 coefficient its report prints: at x^40 it takes 0.3 s at
72 MB for a = 3 and 0.3-0.4 s at 76 MB for a = 10).  Times are whole
processes, three runs each; other load on the host has stretched them
to about twice these.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
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
    json_chunks,
    partitions_payload,
    run_selftest,
    zclosed_payload,
)


PARTITIONS_MAX = 40
XORDER_MAX = 40
DMAX_MAX = 14
GMAX_MAX = 8
FRAMING_MAX = 10


def _output(out: str | None):
    return open(out, "w") if out else nullcontext(sys.stdout)


def _emit_json(payload, out: str | None) -> None:
    """Stream payload as indented JSON, never held as one string.

    The bytes are those of ``json.dump(payload, fp, indent=2)``, an
    iterator written as a list read one item at a time.
    """
    with _output(out) as fp:
        fp.writelines(json_chunks(payload))
        fp.write("\n")


def _render(args, rows: list[dict]) -> None:
    """Write the rows as streamed JSON, CSV or a text table, never joined.

    CSV and the table go out a line at a time; the table's column widths
    come from one pass over the rows.
    """
    if args.format == "json":
        return _emit_json(rows, args.out)
    cols = list(rows[0])
    with _output(args.out) as fp:
        if args.format == "csv":
            writer = csv.DictWriter(fp, fieldnames=cols, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            return
        widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in cols]
        for r in [dict(zip(cols, cols)), *rows]:
            fp.write("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)) + "\n")


def _cases_for(label: str, framings: list[int]) -> list[CurveCase]:
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
        with _output(args.out) as fp:
            fp.writelines(line + "\n" for line in lines)
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
    rep = verify_cut_and_join(args.dmax)
    return _report(args, rep.to_json(), [rep.text()], rep.ok)


def cmd_selftest(args) -> int:
    golden = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    results = run_selftest(golden)
    ok = all(r.ok for r in results)
    lines = [r.text() for r in results]
    lines.append(f"selftest: {'all suites passed' if ok else 'FAILURES'}")
    payload = {"ok": ok, "suites": [r.to_json() for r in results]}
    return _report(args, payload, lines, ok)


def _size(p, flag: str, lo: int, cap: int, help: str | None = None, **kwargs) -> None:
    """Add a bounded int argument and record its bounds for ``_validate``."""
    p.add_argument(flag, type=int, help=help or f"at most {cap}", **kwargs)
    p.set_defaults(sizes=p.get_default("sizes") + ((flag, lo, cap),))


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

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary)
        # usage errors found after parsing are reported with this usage line
        p.set_defaults(fn=fn, subparser=p, sizes=())
        return p

    p = command("partitions", cmd_partitions, "list partitions with z, aut, kappa, dim")
    _size(p, "n", 0, PARTITIONS_MAX)
    p = command("hurwitz", cmd_hurwitz, "exact Hurwitz numbers H_{g,mu}")
    _size(p, "--dmax", 1, DMAX_MAX, required=True)
    _size(p, "--gmax", 0, GMAX_MAX, default=0)
    # a repeated --framing adds its values to the earlier ones
    framings = {"nargs": "+", "action": "extend", "default": [], "help": (
        f"framings to test, each at most {FRAMING_MAX} in absolute value "
        "(default: -3..3 for c3/conifold)")}
    for name, fn, summary, xorder, lo, framing in (
        ("zclosed", cmd_zclosed, "closed-form partition function coefficients", 8, 0,
         {"action": "append", "default": [],
          "help": f"at most {FRAMING_MAX} in absolute value"}),
        ("verify-curve", cmd_verify_curve, "check operator * Z == 0 exactly", 12, 0,
         framings),
        ("recurrence", cmd_recurrence, "check the coefficient recurrences", 12, 1,
         framings),
    ):
        p = command(name, fn, summary)
        p.add_argument("--case", choices=[k.value for k in CurveKind], required=True)
        _size(p, "--framing", -FRAMING_MAX, FRAMING_MAX, **framing)
        _size(p, "--xorder", lo, XORDER_MAX, default=xorder)
        if name == "verify-curve":
            p.add_argument(
                "--y-direction",
                choices=["forward", "inverse"],
                default="forward",
                help="conifold dilation direction (inverse is the failing reading)",
            )
    p = command("cutjoin-check", cmd_cutjoin_check,
                "d/dlam == cut-and-join on the series")
    _size(p, "--dmax", 0, DMAX_MAX, default=4)

    # each command's own arguments come first in its usage line
    for name, p in sub.choices.items():
        tables = name in ("partitions", "hurwitz", "zclosed")
        p.add_argument("--format", default="text",
                       choices=("text", "json", "csv") if tables else ("text", "json"))
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = command("selftest", cmd_selftest, "run the full invariant suite")
    p.add_argument("--json", action="store_const", const="json", dest="format",
                   default="text")
    p.add_argument("--golden-dir")
    p.add_argument("--out")
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
    # zclosed takes one --framing, which defaults to 0, no framing
    if args.fn is cmd_zclosed:
        if len(args.framing) > 1:
            parser.error("--framing may be given only once")
        args.framing = args.framing[0] if args.framing else 0
    if getattr(args, "case", None) == "lambert" and args.framing:
        parser.error("the lambert case has no framing parameter")
    if getattr(args, "y_direction", None) == "inverse" and args.case != "conifold":
        parser.error("--y-direction inverse applies to the conifold case only")
    for flag, lo, cap in args.sizes:
        values = getattr(args, flag.lstrip("-").replace("-", "_"))
        for value in values if isinstance(values, list) else [values]:
            # the cap first, so a framing (lo = -cap) is reported as beyond its cap
            if abs(value) > cap:
                parser.error(f"{flag} {value} exceeds the cap {cap}")
            if value < lo:
                parser.error(f"{flag} must be >= {lo}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse would report them under the top-level usage line
        args.subparser.error(f"unrecognized arguments: {' '.join(extras)}")
    _validate(args)
    return args.fn(args)


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to the null device,
        # so the exit flush cannot fail, and the exit is the shell's SIGPIPE one
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main_entry()

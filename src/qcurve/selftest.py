"""Self-verification suites and golden-file payload builders.

``run_selftest`` exercises the cross-cutting identities at moderate caps
(the exhaustive versions live in the test suite) and compares a few
canonical outputs against golden files shipped with the package.  Fault
injection (the ``QCURVE_FAULT_INJECT`` environment variable) deliberately
perturbs one computed coefficient so the harness itself can be seen to
catch errors.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import factorial
from operator import mul
from pathlib import Path

from .combinatorics import (
    automorphism_count,
    centralizer_order,
    character_table,
    format_partition,
    irrep_dimension,
    kappa,
    partitions_of,
)
from .curves import (
    CurveCase,
    classical_curve,
    classical_limit,
    conifold,
    curve_operator,
    framed_c3,
    lambert,
    verify_annihilation,
    z_closed,
    z_from_characters,
)
from .hurwitz import (
    elsv_genus0,
    hurwitz_genus1,
    hurwitz_one_part,
    hurwitz_table,
    verify_cut_and_join,
)
from .ring import LaurentPoly, RatFun, XSeries
from .symfun import (
    Specialization,
    cut_and_join,
    quantum_dimension,
    schur_to_powersums,
    specialize,
)

FAULT_ENV = "QCURVE_FAULT_INJECT"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str
    millis: float

    def to_json(self) -> dict:
        return asdict(self)

    def text(self) -> str:
        line = f"{'PASS' if self.ok else 'FAIL'}  {self.name}  ({self.millis}ms)"
        return line if self.ok else f"{line}  {self.detail}"


def default_golden_dir() -> Path:
    return Path(__file__).parent / "golden" / "v1"


# ---------------------------------------------------------------------------
# canonical payloads (shared by the CLI and the golden comparison)
# ---------------------------------------------------------------------------

def partitions_payload(n: int) -> list[dict]:
    return [
        {
            "partition": format_partition(mu),
            "z": centralizer_order(mu),
            "aut": automorphism_count(mu),
            "kappa": kappa(mu),
            "dim": irrep_dimension(mu),
        }
        for mu in partitions_of(n)
    ]


def hurwitz_payload(dmax: int, gmax: int) -> list[dict]:
    table = hurwitz_table(dmax, gmax)
    return [
        {"genus": g, "partition": format_partition(mu), "value": str(v)}
        for g, mu, v in table.rows()
    ]


def zclosed_payload(case: CurveCase, order: int) -> dict:
    """The closed-form coefficients through x^order.

    "coefficients" is an iterator: each coefficient's text and terms are
    built as it is read, so ``json_chunks`` holds one at a time.
    """
    series = z_closed(case, order)
    return {
        "case": case.label(),
        "framing": case.reported_framing(),
        "order": order,
        "coefficients": (
            {"degree": n, "text": str(c), "value": c.to_json()}
            for n, c in enumerate(series.coeffs)
        ),
    }


def json_chunks(value, level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)`` at nesting depth level,
    in chunks.

    A dict is written a member at a time and an iterator, as a JSON list,
    an item at a time, so a payload's lazy rows are built one by one.
    Any other value, a list included, holds no iterator.  Below the top
    level (one zclosed coefficient's terms at most) it is one chunk,
    indented to its depth (a JSON string holds no raw newline).  At the
    top level (a table's rows) the encoder streams it, its chunks joined
    in batches of 8192, so that each chunk yielded is worth one write: a
    write per encoder chunk is slower than building the whole string.
    """
    if isinstance(value, dict):
        members = ((json.dumps(k) + ": ", v) for k, v in value.items())
        brackets = "{}"
    elif isinstance(value, Iterator):
        members = (("", v) for v in value)
        brackets = "[]"
    elif level:
        yield json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)
        return
    else:
        chunks = json.JSONEncoder(indent=2).iterencode(value)
        yield from iter(lambda: "".join(islice(chunks, 8192)), "")
        return
    pad = "\n" + "  " * (level + 1)
    sep = brackets[0]
    for key, v in members:
        yield sep + pad + key
        yield from json_chunks(v, level + 1)
        sep = ","
    yield brackets if sep == brackets[0] else "\n" + "  " * level + brackets[1]


def json_text(payload) -> str:
    """The whole document ``json_chunks`` writes, with its final newline."""
    return "".join(json_chunks(payload)) + "\n"


# golden file name -> builder of its payload
GOLDEN = {
    "partitions_n6.json": lambda: partitions_payload(6),
    "hurwitz_d4_g2.json": lambda: hurwitz_payload(4, 2),
    "zclosed_lambert_n6.json": lambda: zclosed_payload(lambert(), 6),
    "zclosed_c3_a1_n6.json": lambda: zclosed_payload(framed_c3(1), 6),
    "zclosed_conifold_a1_n6.json": lambda: zclosed_payload(conifold(1), 6),
}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_characters() -> str | None:
    """Row orthogonality and the collapse identity of S_1 .. S_6: table
    rows summed in ints against the class sizes n!/z_mu."""
    for n in range(1, 7):
        ps = partitions_of(n)
        nfact = factorial(n)
        sizes = [nfact // centralizer_order(m) for m in ps]
        rows = character_table(n).rows
        for a in ps:
            for b in ps:
                s = sum(map(mul, map(mul, rows[a], rows[b]), sizes))
                if s != (nfact if a == b else 0):
                    return f"orthogonality fails at {a}, {b}"
        for nu in ps:
            if sum(map(mul, rows[nu], sizes)) != (nfact if nu == (n,) else 0):
                return f"collapse identity fails at {nu}"
    return None


def _suite_cutjoin_eigenvalue() -> str | None:
    for n in range(0, 7):
        for nu in partitions_of(n):
            s = schur_to_powersums(nu, n)
            if cut_and_join(s) != s.scale(Fraction(kappa(nu), 2)):
                return f"eigenvalue fails at {nu}"
    return None


def _suite_cutjoin_equation() -> str | None:
    rep = verify_cut_and_join(4)
    if not rep.ok:
        return f"mismatch at {rep.first_mismatch}"
    return None


def _suite_hurwitz_elsv() -> str | None:
    table = hurwitz_table(5, 2)
    if table.value(0, (1,)) != 1:
        return "H(0,[1]) != 1"
    if table.value(0, (2,)) != Fraction(1, 2):
        return "H(0,[2]) != 1/2"
    for g in (1, 2):
        if table.value(g, (1,)) != 0:
            return f"H({g},[1]) != 0"
    for n in range(3, 6):
        for mu in partitions_of(n):
            if len(mu) >= 3 and table.value(0, mu) != elsv_genus0(mu):
                return f"closed form disagrees at {mu}"
    for n in range(1, 6):
        for mu in partitions_of(n):
            if table.value(1, mu) != hurwitz_genus1(mu):
                return f"genus-1 formula disagrees at {mu}"
        for g in (0, 1, 2):
            if table.value(g, (n,)) != hurwitz_one_part(g, n):
                return f"one-part formula disagrees at genus {g}, degree {n}"
    return None


def _suite_specializations() -> str | None:
    for n in range(1, 7):
        lhs = specialize(schur_to_powersums((n,), n), Specialization.PRINCIPAL)
        den = LaurentPoly.one()
        for j in range(1, n + 1):
            den = den * (LaurentPoly.symbol("u", j) - LaurentPoly.symbol("u", -j))
        if lhs != RatFun(LaurentPoly.symbol("u", n * (n - 1) // 2), den):
            return f"principal identity fails at n={n}"
    for n in range(1, 5):
        for mu in partitions_of(n):
            if quantum_dimension(mu) != specialize(
                schur_to_powersums(mu, n), Specialization.CONIFOLD_Y
            ):
                return f"quantum dimension disagrees at {mu}"
    return None


def _suite_route_equivalence() -> str | None:
    fault_inject = bool(os.environ.get(FAULT_ENV))
    cases = [lambert(), framed_c3(-1), framed_c3(2), conifold(-1), conifold(2)]
    for case in cases:
        rebuilt = z_from_characters(case, 5)
        if fault_inject:
            coeffs = list(rebuilt.coeffs)
            coeffs[2] = coeffs[2] + RatFun.one()
            rebuilt = XSeries(rebuilt.order, coeffs)
        if rebuilt != z_closed(case, 5):
            return f"routes disagree for {case.label()} framing {case.framing}"
    return None


def _suite_annihilation() -> str | None:
    reports = [verify_annihilation(lambert(), 8)]
    for a in range(-2, 3):
        reports.append(verify_annihilation(framed_c3(a), 8))
        reports.append(verify_annihilation(conifold(a), 8))
    for r in reports:
        if not r.ok:
            return f"{r.case} framing {r.framing} failed at {r.first_failure}"
    negative = verify_annihilation(conifold(1), 6, y_direction="inverse")
    if negative.ok:
        return "inverse y-direction unexpectedly annihilates"
    return None


def _suite_classical_limits() -> str | None:
    cases = [lambert()]
    for a in range(-3, 4):
        cases.append(framed_c3(a))
        cases.append(conifold(a))
    for case in cases:
        if classical_limit(curve_operator(case)) != classical_curve(case):
            return f"classical limit disagrees for {case.label()} framing {case.framing}"
    return None


def _suite_golden(golden_dir: Path) -> str | None:
    for name, build in GOLDEN.items():
        path = golden_dir / name
        if not path.exists():
            return f"missing golden file {path}"
        stored = json.loads(path.read_text())
        if stored != json.loads(json_text(build())):
            return f"golden mismatch in {name}"
    return None


def run_selftest(golden_dir: Path) -> list[SuiteResult]:
    suites = [
        ("character-orthogonality", _suite_characters),
        ("cutjoin-eigenvalue", _suite_cutjoin_eigenvalue),
        ("cutjoin-equation", _suite_cutjoin_equation),
        ("hurwitz-elsv", _suite_hurwitz_elsv),
        ("specializations", _suite_specializations),
        ("route-equivalence", _suite_route_equivalence),
        ("annihilation", _suite_annihilation),
        ("classical-limits", _suite_classical_limits),
        ("golden-files", lambda: _suite_golden(golden_dir)),
    ]
    results = []
    for name, fn in suites:
        start = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            detail = f"{type(exc).__name__}: {exc}"
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        results.append(
            SuiteResult(name, detail is None, detail or "ok", millis)
        )
    return results


def write_golden_files(golden_dir: Path) -> None:
    """Regenerate the golden payloads (maintenance helper)."""
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name, build in GOLDEN.items():
        (golden_dir / name).write_text(json_text(build()))

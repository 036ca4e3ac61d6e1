"""Partition functions and their annihilating curve operators.

Three cases, each with a closed-form series Z and a normal-ordered
operator A(x^, y^) built from x^ (multiplication by x) and a y^-action
realized on series coefficients:

  lambert    coefficient of x^n is E^(n(n-1)) lam^(-n) / n!;
             operator y^ - x^ e^(y^) with y^ = lam * x d/dx, so y^ scales
             the x^n coefficient by n*lam and e^(y^) dilates by E^(2n)
  c3         coefficient E^(-a n(n-1) + n) / prod_{j<=n} (1 - E^(2j));
             operator 1 - y^ - E x^ y^(-a) with y^ the dilation by E^2
  conifold   coefficient prod_{j<=n} (Qh^2 - u^(2(j-1)))/(1 - u^(2j))
             * u^(a n(n-1) + n);
             operator 1 - y^ + u x^ y^(a+1) - u Qh^2 x^ y^a with y^ the
             dilation by u^2

Every Z is also rebuilt independently from symmetric-group character
sums (``z_from_characters``), with the inner character sum evaluated
honestly rather than collapsed to its known delta value; agreement of
the two routes is the computational content of the closed forms.

The conifold y^ admits two sign conventions.  The dilation must send
x^n to q^n x^n ("forward") for the operator to reproduce the coefficient
recurrence; the opposite reading ("inverse", x^n to q^-n x^n)
demonstrably fails and is kept available for negative tests via the
``y_direction`` argument.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .combinatorics import (
    centralizer_order,
    character,
    irrep_dimension,
    kappa,
    partitions_of,
)
from .ring import LaurentPoly, OrderMismatchError, RatFun, XSeries
from .symfun import Specialization, quantum_dimension, schur_to_powersums, specialize


class CurveKind(enum.Enum):
    LAMBERT = "lambert"
    C3 = "c3"
    CONIFOLD = "conifold"


@dataclass(frozen=True)
class CurveCase:
    kind: CurveKind
    framing: int = 0

    def __post_init__(self):
        if self.kind is CurveKind.LAMBERT and self.framing != 0:
            raise ValueError("the lambert case has no framing parameter")

    def label(self) -> str:
        return self.kind.value


def lambert() -> CurveCase:
    return CurveCase(CurveKind.LAMBERT)


def framed_c3(framing: int) -> CurveCase:
    return CurveCase(CurveKind.C3, framing)


def conifold(framing: int) -> CurveCase:
    return CurveCase(CurveKind.CONIFOLD, framing)


# ---------------------------------------------------------------------------
# operator machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dilation:
    """Scale the x^n coefficient by symbol^(step * n)."""

    symbol: str
    step: int

    def apply(self, n: int, c: RatFun) -> RatFun:
        if self.step == 0 or n == 0:
            return c
        return c.mul_term(1, **{self.symbol: self.step * n})


@dataclass(frozen=True)
class LambdaEuler:
    """Scale the x^n coefficient by n * lam (the Euler operator)."""

    def apply(self, n: int, c: RatFun) -> RatFun:
        if n == 0:
            return RatFun.zero()
        return c.mul_term(n, lam=1)


@dataclass(frozen=True)
class QOpTerm:
    coeff: RatFun
    xpow: int
    action: Dilation | LambdaEuler


@dataclass(frozen=True)
class QOp:
    case: CurveCase
    y_direction: str
    terms: tuple[QOpTerm, ...]


def curve_operator(case: CurveCase, y_direction: str = "forward") -> QOp:
    """The annihilating operator for the case, in normal-ordered terms.

    ``y_direction`` selects the dilation direction of the conifold y^
    ("forward" is the adopted reading, see module docstring).  The other
    cases have a single reading, so only "forward" is accepted for them.
    """
    if y_direction not in ("forward", "inverse"):
        raise ValueError(f"unknown y_direction {y_direction!r}")
    if y_direction == "inverse" and case.kind is not CurveKind.CONIFOLD:
        raise ValueError("y_direction 'inverse' applies to the conifold only")
    one = RatFun.one()
    a = case.framing
    if case.kind is CurveKind.LAMBERT:
        terms = (
            QOpTerm(one, 0, LambdaEuler()),
            QOpTerm(-one, 1, Dilation("E", 2)),
        )
    elif case.kind is CurveKind.C3:
        terms = (
            QOpTerm(one, 0, Dilation("E", 0)),
            QOpTerm(-one, 0, Dilation("E", 2)),
            QOpTerm(RatFun.term(-1, E=1), 1, Dilation("E", -2 * a)),
        )
    else:
        s = 2 if y_direction == "forward" else -2
        terms = (
            QOpTerm(one, 0, Dilation("u", 0)),
            QOpTerm(-one, 0, Dilation("u", s)),
            QOpTerm(RatFun.term(1, u=1), 1, Dilation("u", s * (a + 1))),
            QOpTerm(RatFun.term(-1, u=1, Qh=2), 1, Dilation("u", s * a)),
        )
    return QOp(case, y_direction, terms)


def apply_operator(op: QOp, series: XSeries, order: int) -> XSeries:
    """A(x^, y^) applied to a series, exact through x^order.

    Works one degree at a time: the x^n coefficient of the result is the
    sum, in term order, of coeff * action(z_(n - xpow)) over the terms
    with xpow <= n.  Terms raise the x-degree by at most one (asserted
    structurally), so a series exact through x^order determines the
    result through x^order.
    """
    if any(not 0 <= t.xpow <= 1 for t in op.terms):
        raise ValueError("operator terms must have x-power 0 or 1")
    if order > series.order:
        raise OrderMismatchError(
            f"series order {series.order} below requested {order}"
        )
    z = series.coeffs
    coeffs = []
    for n in range(order + 1):
        acc = RatFun.zero()
        for t in op.terms:
            if t.xpow <= n:
                m = n - t.xpow
                acc = acc + t.coeff * t.action.apply(m, z[m])
        coeffs.append(acc)
    return XSeries(order, coeffs)


# ---------------------------------------------------------------------------
# the partition functions
# ---------------------------------------------------------------------------

@cache
def z_closed(case: CurveCase, order: int) -> XSeries:
    """Closed-form series for the case, exact through x^order."""
    a = case.framing
    coeffs = [RatFun.one()]
    if case.kind is CurveKind.LAMBERT:
        for n in range(1, order + 1):
            coeffs.append(
                RatFun.term(Fraction(1, factorial(n)), E=n * (n - 1), lam=-n)
            )
    elif case.kind is CurveKind.C3:
        den = LaurentPoly.one()
        for n in range(1, order + 1):
            den = den * (LaurentPoly.one() - LaurentPoly.symbol("E", 2 * n))
            num = LaurentPoly.term(1, E=-a * n * (n - 1) + n)
            coeffs.append(RatFun(num, den))
    else:
        num = LaurentPoly.one()
        den = LaurentPoly.one()
        for n in range(1, order + 1):
            num = num * (
                LaurentPoly.symbol("Qh", 2) - LaurentPoly.symbol("u", 2 * (n - 1))
            )
            den = den * (LaurentPoly.one() - LaurentPoly.symbol("u", 2 * n))
            coeffs.append(RatFun(num.mul_term(1, u=a * n * (n - 1) + n), den))
    return XSeries(order, coeffs)


def _character_sum(n: int) -> dict[tuple, Fraction]:
    """sum over classes mu of chi_nu(mu)/z_mu, per shape nu, evaluated
    honestly (no delta shortcut)."""
    out = {}
    for nu in partitions_of(n):
        out[nu] = sum(
            Fraction(character(nu, mu), centralizer_order(mu))
            for mu in partitions_of(n)
        )
    return out


def _weight(case: CurveCase, nu: tuple, n: int) -> RatFun:
    a = case.framing
    k = kappa(nu)
    if case.kind is CurveKind.LAMBERT:
        return RatFun.term(
            Fraction(irrep_dimension(nu), factorial(n)), E=k, lam=-n
        )
    if case.kind is CurveKind.C3:
        # q^(a*kappa/2) * s_nu(principal), then u -> E^(-1): the change of
        # expansion variable sends q to e^(-lam), i.e. u to E^(-1).
        w = specialize(schur_to_powersums(nu, n), Specialization.PRINCIPAL)
        w = w.mul_term(1, u=a * k)
        return w.subs_symbol_power("u", "E", -1)
    return quantum_dimension(nu).mul_term(1, Qh=n, u=a * k)


def z_from_characters(case: CurveCase, order: int) -> XSeries:
    """Z rebuilt from character sums; must equal ``z_closed`` exactly."""
    coeffs = [RatFun.one()]
    for n in range(1, order + 1):
        sums = _character_sum(n)
        acc = RatFun.zero()
        for nu in partitions_of(n):
            acc = acc + _weight(case, nu, n).scale(sums[nu])
        coeffs.append(acc)
    return XSeries(order, coeffs)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnihilationReport:
    case: str
    framing: int | None
    order: int
    y_direction: str
    status: str  # "annihilated" | "failed"
    degrees_ok: tuple[bool, ...]
    first_failure: tuple[int, str] | None
    millis: float

    @property
    def ok(self) -> bool:
        return self.status == "annihilated"

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "framing": self.framing,
            "order": self.order,
            "y_direction": self.y_direction,
            "status": self.status,
            "first_failure": (
                None
                if self.first_failure is None
                else {
                    "degree": self.first_failure[0],
                    "coefficient": self.first_failure[1],
                }
            ),
            "millis": self.millis,
        }


@dataclass(frozen=True)
class RecurrenceReport:
    case: str
    framing: int | None
    order: int
    ok: bool
    first_failure: int | None

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "framing": self.framing,
            "order": self.order,
            "ok": self.ok,
            "first_failure": self.first_failure,
        }


def _framing_field(case: CurveCase) -> int | None:
    return None if case.kind is CurveKind.LAMBERT else case.framing


def verify_annihilation(
    case: CurveCase, order: int, y_direction: str = "forward"
) -> AnnihilationReport:
    """Apply the curve operator to the closed-form Z and check for zero.

    Checks coefficients of x^0 .. x^order; each term raises the x-degree
    by at most one, so Z through x^order determines them all.  Failure is
    reported, not raised.
    """
    start = time.perf_counter()
    op = curve_operator(case, y_direction)
    z = z_closed(case, order)
    result = apply_operator(op, z, order)
    degrees = tuple(c.is_zero() for c in result.coeffs)
    first = None
    for n, ok in enumerate(degrees):
        if not ok:
            first = (n, str(result.coeffs[n]))
            break
    millis = (time.perf_counter() - start) * 1000.0
    return AnnihilationReport(
        case.label(),
        _framing_field(case),
        order,
        y_direction,
        "annihilated" if first is None else "failed",
        degrees,
        first,
        round(millis, 3),
    )


def recurrence_check(case: CurveCase, order: int) -> RecurrenceReport:
    """Check the two-term coefficient recurrence of the closed form.

    lambert:   (n+1) lam a_{n+1} - E^(2n) a_n = 0
    c3:        (1 - E^(2(n+1))) a_{n+1} - E^(1 - 2an) a_n = 0
    conifold:  (1 - u^(2(n+1))) a_{n+1} + u^(2(a+1)n + 1) a_n
                                        - Qh^2 u^(2an + 1) a_n = 0

    Each line is a deliberately independent restatement of the operator,
    written by hand and not derived from ``curve_operator``: an oracle.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    a = case.framing
    z = z_closed(case, order)
    first = None
    for n in range(order):
        cn, cn1 = z.coeff(n), z.coeff(n + 1)
        if case.kind is CurveKind.LAMBERT:
            lhs = cn1.mul_term(n + 1, lam=1) - cn.mul_term(1, E=2 * n)
        elif case.kind is CurveKind.C3:
            poly = RatFun.from_poly(
                LaurentPoly.one() - LaurentPoly.symbol("E", 2 * (n + 1))
            )
            lhs = cn1 * poly - cn.mul_term(1, E=1 - 2 * a * n)
        else:
            poly = RatFun.from_poly(
                LaurentPoly.one() - LaurentPoly.symbol("u", 2 * (n + 1))
            )
            lhs = (
                cn1 * poly
                + cn.mul_term(1, u=2 * (a + 1) * n + 1)
                - cn.mul_term(1, Qh=2, u=2 * a * n + 1)
            )
        if not lhs.is_zero():
            first = n
            break
    return RecurrenceReport(
        case.label(), _framing_field(case), order, first is None, first
    )


def conifold_statement_coeff(n: int, framing: int) -> RatFun:
    """The x^n coefficient in its inverse-power presentation:

    prod_{j<=n} (1 - Qh^2 u^(-2(j-1))) / (1 - u^(-2j)) * u^(a n(n-1) - n).

    Clearing the negative powers multiplies each factor by u^2, which the
    trailing u^(-n) (instead of u^(+n)) exactly compensates, so this must
    equal the ``z_closed`` coefficient.
    """
    acc = RatFun.term(1, u=framing * n * (n - 1) - n)
    for j in range(1, n + 1):
        num = LaurentPoly.one() - LaurentPoly.term(1, Qh=2, u=-2 * (j - 1))
        den = LaurentPoly.one() - LaurentPoly.symbol("u", -2 * j)
        acc = acc * RatFun(num, den)
    return acc


# ---------------------------------------------------------------------------
# classical limits
# ---------------------------------------------------------------------------

_CLASSICAL_SYMBOLS = ("x", "y", "ey", "emt")  # ey = e^y kept formal


class ClassicalCurve:
    """Bivariate Laurent polynomial in (x, y) with formal e^y and the
    parameter emt = e^(-t)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], Fraction]):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalCurve):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for mono, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            body = "*".join(
                f"{s}^{e}" if e != 1 else s
                for s, e in zip(_CLASSICAL_SYMBOLS, mono)
                if e
            )
            mag = abs(c)
            piece = body if body and mag == 1 else (
                f"{mag}*{body}" if body else str(mag)
            )
            if not out:
                out = piece if c > 0 else f"-{piece}"
            else:
                out += f" + {piece}" if c > 0 else f" - {piece}"
        return out

    def __repr__(self) -> str:
        return f"ClassicalCurve<{self}>"


def classical_curve(case: CurveCase) -> ClassicalCurve:
    """The classical mirror curve the operator degenerates to.

    lambert:   y - x*e^y          (e^y formal)
    c3:        1 - y - x*y^(-a)
    conifold:  1 - y + x*y^(a+1) - emt*x*y^a

    The conifold curve is also what the bracket-parameter form
    y + x*y^(-a') - 1 - emt*x*y^(-a'-1) = 0 becomes after sending x to -x
    and a' to -a-1; source texts sometimes typo the x*y^(a+1) term as
    x^(a+1), which the operator degeneration below disambiguates.
    """
    a = case.framing
    one = Fraction(1)
    if case.kind is CurveKind.LAMBERT:
        return ClassicalCurve({(0, 1, 0, 0): one, (1, 0, 1, 0): -one})
    if case.kind is CurveKind.C3:
        return ClassicalCurve(
            {(0, 0, 0, 0): one, (0, 1, 0, 0): -one, (1, -a, 0, 0): -one}
        )
    return ClassicalCurve(
        {
            (0, 0, 0, 0): one,
            (0, 1, 0, 0): -one,
            (1, a + 1, 0, 0): one,
            (1, a, 0, 1): -one,
        }
    )


def classical_limit(op: QOp) -> ClassicalCurve:
    """Substitute commuting symbols into the operator terms.

    Dilations become powers of y (for the lambert exponential dilation,
    powers of the formal e^y), the Euler action becomes y, and in the
    coefficients E and u go to 1 while Qh^2 is kept as emt.
    """
    out: dict[tuple[int, int, int, int], Fraction] = {}
    for term in op.terms:
        ye = eye = 0
        if isinstance(term.action, LambdaEuler):
            ye = 1
        else:
            step = term.action.step
            if step % 2:
                raise ValueError("dilation steps are even by construction")
            if op.case.kind is CurveKind.LAMBERT:
                eye = step // 2
            else:
                ye = step // 2
        if not term.coeff.den.is_one():
            raise ValueError("operator coefficients are polynomial")
        for mono, c in term.coeff.num.sorted_terms():
            e_exp, qh_exp, lam_exp, u_exp = mono
            if lam_exp:
                raise ValueError("no lam in operator coefficients")
            if qh_exp % 2:
                raise ValueError("odd power of Qh has no classical image")
            key = (term.xpow, ye, eye, qh_exp // 2)
            prev = out.get(key, Fraction(0)) + c
            if prev:
                out[key] = prev
            else:
                out.pop(key, None)
    return ClassicalCurve(out)

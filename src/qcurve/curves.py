"""Partition functions and their annihilating curve operators.

Three cases.  Each closed form Z = sum z_n x^n is q-hypergeometric:
z_0 = 1 and z_n = r(n) z_(n-1), with the term ratio r(n) stated once, by
``_ratio``.  Each operator A(x^, y^) is the q-difference operator that
encodes the same recurrence, a tuple of normal-ordered terms built from
x^ (multiplication by x) and a y^-action realized on series coefficients,
applied by ``apply_operator`` through the series' own order:

  lambert    r(n) = E^(2(n-1)) lam^(-1) / n, so z_n = E^(n(n-1)) lam^(-n) / n!;
             operator y^ - x^ e^(y^) with y^ = lam * x d/dx, so y^ scales
             the x^n coefficient by n*lam and e^(y^) dilates by E^(2n)
  c3         r(n) = E^(1 - 2a(n-1)) / (1 - E^(2n)), so
             z_n = E^(-a n(n-1) + n) / prod_{j<=n} (1 - E^(2j));
             operator 1 - y^ - E x^ y^(-a) with y^ the dilation by E^2
  conifold   r(n) = (Qh^2 - u^(2(n-1))) u^(2a(n-1) + 1) / (1 - u^(2n)), so
             z_n = prod_{j<=n} (Qh^2 - u^(2(j-1)))/(1 - u^(2j)) * u^(a n(n-1) + n);
             operator 1 - y^ + u x^ y^(a+1) - u Qh^2 x^ y^a with y^ the
             dilation by u^2

Every Z is also rebuilt independently from symmetric-group character
sums (``z_from_characters``), with the inner character sum evaluated
honestly rather than collapsed to its known delta value; agreement of
the two routes is the computational content of the closed forms.  Each
shape's sum is its row of ``character_table(n)`` summed against the
class sizes, so every class of every shape is read, and each degree is
one ``RatFun.combine`` of the (sum, weight) pairs.  A shape whose sum
is exactly 0 contributes nothing and builds no weight; the sums are
still evaluated in full, so a wrong table entry that makes a multi-row
sum nonzero brings that shape's weight into Z.  Each weight is built
canonical, so the route runs no normalization and no gcd: lambert's is
one term, the conifold's a quantum dimension, and c3's the principal
image of the Schur function (``principal_schur``), its hook-content
product.

The conifold y^ admits two sign conventions.  The dilation must send
x^n to q^n x^n ("forward") for the operator to reproduce the coefficient
recurrence; the opposite reading ("inverse", x^n to q^-n x^n)
demonstrably fails and is kept available for negative tests via the
``y_direction`` argument.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .combinatorics import (
    centralizer_order,
    character_table,
    irrep_dimension,
    kappa,
    partitions_of,
)
from .ring import LaurentPoly, RatFun, XSeries
from .symfun import principal_schur, quantum_dimension


class CurveKind(enum.Enum):
    LAMBERT = "lambert"
    C3 = "c3"
    CONIFOLD = "conifold"


@dataclass(frozen=True)
class CurveCase:
    kind: CurveKind
    framing: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, CurveKind):
            raise TypeError(f"kind must be a CurveKind, got {self.kind!r}")
        if type(self.framing) is not int:
            raise TypeError(f"framing must be an int, got {self.framing!r}")
        if self.kind is CurveKind.LAMBERT and self.framing != 0:
            raise ValueError("the lambert case has no framing parameter")

    def label(self) -> str:
        return self.kind.value

    def reported_framing(self) -> int | None:
        """The framing as reports and payloads give it: lambert has none."""
        return None if self.kind is CurveKind.LAMBERT else self.framing


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

    def apply(self, n: int, c: LaurentPoly) -> LaurentPoly:
        if self.step == 0 or n == 0:
            return c
        return c.mul_term(1, **{self.symbol: self.step * n})


@dataclass(frozen=True)
class LambdaEuler:
    """Scale the x^n coefficient by n * lam (the Euler operator)."""

    def apply(self, n: int, c: LaurentPoly) -> LaurentPoly:
        if n == 0:
            return LaurentPoly.zero()
        return c.mul_term(n, lam=1)


@dataclass(frozen=True)
class QOpTerm:
    """coeff * x^xpow * action, with a polynomial coefficient."""

    coeff: LaurentPoly
    xpow: int
    action: Dilation | LambdaEuler

    def __post_init__(self):
        if not isinstance(self.coeff, LaurentPoly):
            raise TypeError(f"coeff must be a LaurentPoly, got {self.coeff!r}")


def curve_operator(
    case: CurveCase, y_direction: str = "forward"
) -> tuple[QOpTerm, ...]:
    """The annihilating operator for the case, in normal-ordered terms.

    ``y_direction`` selects the dilation direction of the conifold y^
    ("forward" is the adopted reading, see module docstring).  The other
    cases have a single reading, so only "forward" is accepted for them.
    """
    if y_direction not in ("forward", "inverse"):
        raise ValueError(f"unknown y_direction {y_direction!r}")
    if y_direction == "inverse" and case.kind is not CurveKind.CONIFOLD:
        raise ValueError("y_direction 'inverse' applies to the conifold only")
    one, term = LaurentPoly.one(), LaurentPoly.term
    a = case.framing
    if case.kind is CurveKind.LAMBERT:
        return (
            QOpTerm(one, 0, LambdaEuler()),
            QOpTerm(-one, 1, Dilation("E", 2)),
        )
    if case.kind is CurveKind.C3:
        return (
            QOpTerm(one, 0, Dilation("E", 0)),
            QOpTerm(-one, 0, Dilation("E", 2)),
            QOpTerm(term(-1, E=1), 1, Dilation("E", -2 * a)),
        )
    s = 2 if y_direction == "forward" else -2
    return (
        QOpTerm(one, 0, Dilation("u", 0)),
        QOpTerm(-one, 0, Dilation("u", s)),
        QOpTerm(term(1, u=1), 1, Dilation("u", s * (a + 1))),
        QOpTerm(term(-1, u=1, Qh=2), 1, Dilation("u", s * a)),
    )


def _ratio(case: CurveCase, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The term ratio z_n / z_(n-1) of the closed form, n >= 1, as a
    numerator factor and a monic denominator factor (signs as in
    ``z_closed``)."""
    a = case.framing
    if case.kind is CurveKind.LAMBERT:
        num = LaurentPoly.term(Fraction(1, n), E=2 * (n - 1), lam=-1)
        return num, LaurentPoly.one()
    if case.kind is CurveKind.C3:
        num = LaurentPoly.term(-1, E=1 - 2 * a * (n - 1))
        return num, LaurentPoly.symbol("E", 2 * n) - LaurentPoly.one()
    p = 2 * a * (n - 1) + 1
    num = LaurentPoly.symbol("u", 2 * (n - 1) + p) - LaurentPoly.term(1, Qh=2, u=p)
    return num, LaurentPoly.symbol("u", 2 * n) - LaurentPoly.one()


def apply_operator(op: tuple[QOpTerm, ...], series: XSeries) -> XSeries:
    """A(x^, y^) applied to a series, exact through the series' order.

    Works one degree at a time.  At a fixed degree n every action
    multiplies by a monomial or a scalar, so it is applied to the term's
    polynomial coefficient, and the series coefficient is never copied:
    the applied coefficients of each x-power are added, and the x^n
    coefficient of the result is one ``RatFun.combine`` of the two pairs
    (the x^0 sum, z_n) and (the x^1 sum, z_(n-1)).  For the c3 and
    conifold operators the x^0 sum, 1 - s^(2n) forward and 1 - s^(-2n)
    inverse, is a one-term multiple of the factor s^(2n) - 1 that z_n's
    denominator steps from z_(n-1)'s by, so ``combine`` cancels that
    factor: z_n's numerator is multiplied by the one-term quotient and
    z_(n-1)'s by its bare x^1 sum, into one numerator over z_(n-1)'s
    denominator.  An operator whose x^0 sum is no such multiple takes
    ``combine``'s dense fold.  A degree that vanishes runs no
    normalization, and a degree that does not is normalized only when its
    value is read.  Terms raise the x-degree by at most one (asserted
    structurally), so a series exact through x^N determines the result
    through x^N, and the result has the series' order.
    """
    if any(not 0 <= t.xpow <= 1 for t in op):
        raise ValueError("operator terms must have x-power 0 or 1")
    z, zero = series.coeffs, LaurentPoly.zero()

    def degree(n):
        c0 = c1 = zero  # the applied coefficients on z_n and on z_(n-1)
        for t in op:
            if t.xpow == 0:
                c0 = c0 + t.action.apply(n, t.coeff)
            elif n:
                c1 = c1 + t.action.apply(n - 1, t.coeff)
        return RatFun.combine(((c0, z[n]), (c1, z[n - 1])) if n else ((c0, z[0]),))

    return XSeries(series.order, [degree(n) for n in range(series.order + 1)])


# ---------------------------------------------------------------------------
# the partition functions
# ---------------------------------------------------------------------------

def _check_order(order) -> None:
    """Raise a TypeError naming ``order`` unless it is an int (a bool is
    not one)."""
    if type(order) is not int:
        raise TypeError(f"order must be an int, got {order!r}")


@lru_cache(maxsize=1, typed=True)  # typed: 2.0 is no key for 2
def z_closed(case: CurveCase, order: int) -> XSeries:
    """Closed-form series for the case, exact through x^order.

    Only the last series is cached, so a run over many framings holds one
    series at a time.  An order that is not an int raises a TypeError.

    z_n is z_(n-1) times the term ratio: its numerator and denominator
    are the products of the factors ``_ratio`` gives for 1..n, and each
    coefficient is wrapped without a normalization.  The c3 and conifold
    factors keep the denominator monic: it is multiplied by s^(2n) - 1 in
    place of 1 - s^(2n) (s is E for c3, u for the conifold), and the
    numerator factor carries the sign.  That is canonical:
    - the lambert numerator is one term over 1;
    - the other denominators are monic in one symbol with constant term
      +-1;
    - the c3 numerator is a unit, so it shares no factor with it;
    - the conifold numerator's top Qh slice, Qh^(2n) times a power of u,
      is a unit, so its content in u is 1 and it shares no factor with a
      denominator in u alone.

    Each c3 and conifold coefficient also records its denominator's step
    (z_(n-1)'s den object, the factor), the very objects multiplied.  So
    ``RatFun.combine`` of z_(n-1) and z_n, where z_n's coefficient is a
    one-term multiple of the factor, cancels the factor and sums over
    z_(n-1)'s den with no division; any other such sum takes the dense
    fold.  A wrong factor is recorded as it is, and the degree it enters
    fails.  Lambert's factor is 1, so its coefficients record no step.
    """
    _check_order(order)
    coeffs = [RatFun.one()]
    num = den = LaurentPoly.one()
    for n in range(1, order + 1):
        f, d = _ratio(case, n)
        step = None if d.is_one() else (den, d)
        num, den = num * f, den * d
        coeffs.append(RatFun._raw(num, den, step))
    return XSeries(order, coeffs)


def _character_sum(n: int) -> dict[tuple, Fraction]:
    """sum over classes mu of chi_nu(mu)/z_mu, per shape nu, evaluated
    honestly (no delta shortcut): every class of every shape is read.

    Each sum is nu's row of ``character_table(n)`` summed against the
    class sizes n!/z_mu, in ``partitions_of(n)`` order, over n!; the
    class sizes are computed once per n.
    """
    classes = partitions_of(n)
    nfact = factorial(n)
    sizes = [nfact // centralizer_order(mu) for mu in classes]
    rows = character_table(n).rows
    return {nu: Fraction(sum(map(mul, rows[nu], sizes)), nfact) for nu in classes}


def _weight(case: CurveCase, nu: tuple, n: int) -> RatFun:
    """The shape's weight in Z's x^n coefficient, canonical as built:

    lambert    dim(nu)/n! E^kappa lam^-n
    c3         q^(a kappa/2) s_nu(principal) at u = E^-1, the
               hook-content product of ``principal_schur``
    conifold   the quantum dimension times Qh^n u^(a kappa)
    """
    a = case.framing
    k = kappa(nu)
    if case.kind is CurveKind.LAMBERT:
        return RatFun.term(
            Fraction(irrep_dimension(nu), factorial(n)), E=k, lam=-n
        )
    if case.kind is CurveKind.C3:
        # q^(a*kappa/2) * s_nu(principal), then u -> E^(-1): the change of
        # expansion variable sends q to e^(-lam), i.e. u to E^(-1).
        return principal_schur(nu).mul_term(1, E=-a * k)
    return quantum_dimension(nu).mul_term(1, Qh=n, u=a * k)


def z_from_characters(case: CurveCase, order: int) -> XSeries:
    """Z rebuilt from character sums; must equal ``z_closed`` exactly.

    Each degree is one ``RatFun.combine`` of the (character sum, weight)
    pairs.  A shape whose character sum is exactly 0 adds 0 * weight, so
    its weight is not built.  An order that is not an int raises a
    TypeError.
    """
    _check_order(order)
    coeffs = [RatFun.one()]
    for n in range(1, order + 1):
        sums = _character_sum(n).items()
        coeffs.append(RatFun.combine(
            (LaurentPoly.term(s), _weight(case, nu, n)) for nu, s in sums if s
        ))
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
        out = asdict(self)
        del out["degrees_ok"]
        if self.first_failure is not None:
            degree, coefficient = self.first_failure
            out["first_failure"] = {"degree": degree, "coefficient": coefficient}
        return out

    def text(self) -> str:
        line = f"{_heading(self)} y={self.y_direction}: {self.status} ({self.millis}ms)"
        if self.first_failure is not None:
            line += f"  first failure at x^{self.first_failure[0]}"
        return line


@dataclass(frozen=True)
class RecurrenceReport:
    case: str
    framing: int | None
    order: int
    ok: bool
    first_failure: int | None

    def to_json(self) -> dict:
        return asdict(self)

    def text(self) -> str:
        verdict = "ok" if self.ok else f"fails at n={self.first_failure}"
        return f"{_heading(self)}: {verdict}"


def _heading(report) -> str:
    framing = "-" if report.framing is None else report.framing
    return f"{report.case} framing={framing} order={report.order}"


def verify_annihilation(
    case: CurveCase, order: int, y_direction: str = "forward"
) -> AnnihilationReport:
    """Apply the curve operator to the closed-form Z and check for zero.

    Checks coefficients of x^0 .. x^order; each term raises the x-degree
    by at most one, so Z through x^order determines them all.  Each degree
    is tested for zero without a gcd; only the first failing degree,
    whose text the report prints, is normalized.  Failure is reported,
    not raised.
    """
    start = time.perf_counter()
    op = curve_operator(case, y_direction)
    z = z_closed(case, order)
    result = apply_operator(op, z)
    degrees = tuple(c.is_zero() for c in result.coeffs)
    first = None
    for n, ok in enumerate(degrees):
        if not ok:
            first = (n, str(result.coeffs[n]))
            break
    millis = (time.perf_counter() - start) * 1000.0
    return AnnihilationReport(
        case.label(),
        case.reported_framing(),
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
    Each line is one ``RatFun.combine`` of a_n and a_(n+1) with polynomial
    coefficients, so no multiple of a coefficient is built, a line that
    vanishes runs no gcd, and neither does the failing line, as only its
    index is reported.
    """
    _check_order(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    a = case.framing
    z = z_closed(case, order)
    one, term = LaurentPoly.one(), LaurentPoly.term
    first = None
    for n in range(order):
        cn, cn1 = z.coeff(n), z.coeff(n + 1)
        if case.kind is CurveKind.LAMBERT:
            lhs = RatFun.combine(((term(n + 1, lam=1), cn1), (term(-1, E=2 * n), cn)))
        elif case.kind is CurveKind.C3:
            lhs = RatFun.combine((
                (one - term(1, E=2 * (n + 1)), cn1),
                (term(-1, E=1 - 2 * a * n), cn),
            ))
        else:
            lhs = RatFun.combine((
                (one - term(1, u=2 * (n + 1)), cn1),
                (term(1, u=2 * (a + 1) * n + 1) - term(1, Qh=2, u=2 * a * n + 1), cn),
            ))
        if not lhs.is_zero():
            first = n
            break
    return RecurrenceReport(
        case.label(), case.reported_framing(), order, first is None, first
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


def classical_limit(op: tuple[QOpTerm, ...]) -> ClassicalCurve:
    """Substitute commuting symbols into the operator terms.

    The Euler action becomes y, and in the coefficients E and u go to 1
    while Qh^2 is kept as emt.  A dilation by s^(2k) becomes y^k, unless
    the operator has an Euler term: then y^ is the Euler operator, the
    dilation is e^(k y^), and it becomes the formal e^y to the k.
    """
    euler = any(isinstance(t.action, LambdaEuler) for t in op)
    out: dict[tuple[int, int, int, int], Fraction] = {}
    for term in op:
        ye = eye = 0
        if isinstance(term.action, LambdaEuler):
            ye = 1
        else:
            step = term.action.step
            if step % 2:
                raise ValueError("dilation steps are even by construction")
            if euler:
                eye = step // 2
            else:
                ye = step // 2
        for mono, c in term.coeff.sorted_terms():
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

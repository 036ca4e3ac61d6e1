"""Hurwitz numbers via the character generating series.

The generating identity equates

  exp  sum_{mu != 0, g >= 0}  lam^b / b! * H_{g,mu} * p_mu,
       b = 2g - 2 + l(mu) + |mu|,

with the character-weighted Schur sum

  sum_nu  dim(nu)/|nu|! * e^(kappa_nu * lam / 2) * s_nu.

With the ring symbol E = e^(lam/2) the exponential is exact,
e^(kappa_nu * lam / 2) = E^kappa_nu, so expanding
s_nu = sum_mu chi_nu(mu)/z_mu * p_mu the coefficient of p_mu (|mu| = n)
is the short Laurent polynomial

  sum_nu chi_nu(mu) * dim(nu) / (z_mu * n!) * E^kappa_nu,

built from the rows of ``character_table(n)`` with equal kappa merged;
no lam order is chosen and nothing is truncated.  Its graded log has
coefficients sum_e c_e E^e as well, since E -> e^(lam/2) is a ring map
and the log uses only ring operations.  Reading E^e = sum_b (e/2)^b
lam^b / b! gives every genus from that one log:

  H_{g,mu} = b! * [lam^b p_mu] log = sum_e c_e * (e/2)^b,

one integer sum per (g, mu).  The lam series through a fixed order,
``burnside_series``, is derived from the same exact series by that rule
and is what the cut-and-join equation d/dlam = K is checked on,
coefficient by coefficient; the genus-0 values with at least three
parts also have an independent closed form, ``elsv_genus0``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import factorial

from .combinatorics import (
    Partition,
    automorphism_count,
    centralizer_order,
    character_table,
    irrep_dimension,
    kappa,
    partitions_of,
)
from .ring import LaurentPoly, RatFun
from .symfun import SymFunc, cut_and_join, graded_log


class LengthTooSmallError(ValueError):
    """The genus-0 closed form is only asserted for length >= 3."""


@dataclass(frozen=True)
class BurnsideSeries:
    """Character-weighted Schur sum with coefficients exact through lam^lam_order."""

    sym: SymFunc
    degree_cap: int
    lam_order: int


@dataclass(frozen=True)
class HurwitzTable:
    """Exact Hurwitz numbers for |mu| <= degree_cap, g <= genus_cap."""

    entries: dict[tuple[int, Partition], Fraction]
    degree_cap: int
    genus_cap: int

    def value(self, g: int, mu: Partition) -> Fraction:
        return self.entries[(g, tuple(mu))]

    def rows(self) -> list[tuple[int, Partition, Fraction]]:
        """Deterministic row order: genus, then degree, then reverse-lex."""

        def key(item):
            (g, mu) = item[0]
            n = sum(mu)
            return (g, n, partitions_of(n).index(mu))

        return [(g, mu, v) for (g, mu), v in sorted(self.entries.items(), key=key)]


@dataclass(frozen=True)
class CutJoinReport:
    degree_cap: int
    lam_order: int
    ok: bool
    coefficients_checked: int
    first_mismatch: tuple[Partition, int, str, str] | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.first_mismatch is not None:
            mu, power, lhs, rhs = self.first_mismatch
            out["first_mismatch"] = {
                "partition": str(list(mu)), "lam_power": power, "lhs": lhs, "rhs": rhs,
            }
        return out

    def text(self) -> str:
        status = "holds" if self.ok else f"fails: {self.to_json()['first_mismatch']}"
        return (
            f"cut-and-join through degree {self.degree_cap}, "
            f"lam order {self.lam_order}: {status}"
        )


def _exact_series(degree_cap: int) -> SymFunc:
    """The Schur-side series with every coefficient exact in E.

    One pass per degree n over the rows of ``character_table(n)``, the
    zero characters skipped and the weights chi * dim of equal kappa
    merged into one E^kappa term.
    """
    terms = {(): RatFun.one()}
    for n in range(1, degree_cap + 1):
        rows = character_table(n).rows
        shapes = [(irrep_dimension(nu), kappa(nu), rows[nu]) for nu in partitions_of(n)]
        for j, mu in enumerate(partitions_of(n)):
            weights: dict[int, int] = {}
            for dim, kap, row in shapes:
                if row[j]:
                    weights[kap] = weights.get(kap, 0) + dim * row[j]
            base = centralizer_order(mu) * factorial(n)
            terms[mu] = RatFun.from_poly(LaurentPoly(
                {(kap, 0, 0, 0): Fraction(w, base) for kap, w in weights.items()}
            ))
    return SymFunc(degree_cap, terms)


def _lam_moment(p: LaurentPoly, k: int) -> Fraction:
    """k! * [lam^k] p(E) at E = e^(lam/2): sum_e c_e * (e/2)^k."""
    return Fraction(sum(c * mono[0] ** k for mono, c in p.terms.items()), p.den * 2**k)


def burnside_series(degree_cap: int, lam_order: int) -> BurnsideSeries:
    """The Schur-side series expanded in lam, exact through lam^lam_order.

    The lam expansion of the exact series: [lam^k] of a coefficient
    sum_e c_e E^e is sum_e c_e * (e/2)^k / k!.
    """
    if degree_cap < 0 or lam_order < 0:
        raise ValueError("caps must be >= 0")
    sym = _exact_series(degree_cap).map_coeffs(lambda c: RatFun.from_poly(LaurentPoly({
        (0, 0, k, 0): _lam_moment(c.num, k) / factorial(k) for k in range(lam_order + 1)
    })))
    return BurnsideSeries(sym, degree_cap, lam_order)


def hurwitz_table(degree_cap: int, genus_cap: int) -> HurwitzTable:
    """Extract H_{g,mu} for 1 <= |mu| <= degree_cap, 0 <= g <= genus_cap.

    One graded log of the exact series; each entry is the integer sum
    H_{g,mu} = sum_e c_e * (e/2)^b over the E^e terms of its p_mu
    coefficient, with b = 2g - 2 + l + |mu|.  Pairs with b < 0 are
    omitted.
    """
    logseries = graded_log(_exact_series(degree_cap))
    entries: dict[tuple[int, Partition], Fraction] = {}
    for n in range(1, degree_cap + 1):
        for mu in partitions_of(n):
            num = logseries.coeff(mu).num  # a Laurent polynomial in E
            for g in range(genus_cap + 1):
                b = 2 * g - 2 + len(mu) + n
                if b >= 0:
                    entries[(g, mu)] = _lam_moment(num, b)
    return HurwitzTable(entries, degree_cap, genus_cap)


def elsv_genus0(mu: Partition) -> Fraction:
    """Genus-0 closed form, valid for partitions with at least 3 parts.

    H_{0,mu} = b! / |Aut(mu)| * prod_i mu_i^mu_i / mu_i! * |mu|^(l-3),
    with b = |mu| + l(mu) - 2 the number of simple branch points.  The b!
    normalizes the count to match the generating series (H_{g,mu} there
    multiplies lam^b / b!); an independent monodromy enumeration confirms
    e.g. H_{0,(1,1,1)} = 4.
    """
    mu = tuple(mu)
    if len(mu) < 3:
        raise LengthTooSmallError(
            f"closed form requires l(mu) >= 3, got {len(mu)}"
        )
    b = sum(mu) + len(mu) - 2
    acc = Fraction(factorial(b), automorphism_count(mu))
    for p in mu:
        acc *= Fraction(p**p, factorial(p))
    return acc * Fraction(sum(mu)) ** (len(mu) - 3)


def compare_cut_and_join(series: BurnsideSeries) -> CutJoinReport:
    """Check d/dlam(series) == cut_and_join(series) through lam_order - 1.

    The lam-derivative of a series exact through lam^M is exact through
    lam^(M-1), so both sides are compared after truncation there.
    """
    M = series.lam_order
    lhs = series.sym.map_coeffs(lambda c: c.diff("lam"))
    rhs = cut_and_join(series.sym)
    checked = 0
    for n in range(series.degree_cap + 1):
        for mu in partitions_of(n):
            a = lhs.coeff(mu).num.truncate_symbol("lam", M - 1)
            b = rhs.coeff(mu).num.truncate_symbol("lam", M - 1)
            if a == b:
                checked += len(a.terms) if a.terms else 1
                continue
            for power in range(M):
                ca = a.coefficient_of("lam", power)
                cb = b.coefficient_of("lam", power)
                if ca != cb:
                    return CutJoinReport(
                        series.degree_cap, M, False, checked,
                        (mu, power, str(ca), str(cb)),
                    )
    return CutJoinReport(series.degree_cap, M, True, checked)


def verify_cut_and_join(degree_cap: int, lam_order: int) -> CutJoinReport:
    return compare_cut_and_join(burnside_series(degree_cap, lam_order))

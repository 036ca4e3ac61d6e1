"""Hurwitz numbers via the character generating series.

The generating identity equates

  exp  sum_{mu != 0, g >= 0}  lam^b / b! * H_{g,mu} * p_mu,
       b = 2g - 2 + l(mu) + |mu|,

with the character-weighted Schur sum

  sum_nu  dim(nu)/|nu|! * e^(kappa_nu * lam / 2) * s_nu.

We build the right-hand side exactly through lam^M from integer
character moments.  Expanding s_nu = sum_mu chi_nu(mu)/z_mu * p_mu and
the exponential, the coefficient of lam^k p_mu (|mu| = n) is

  S_k(mu) / (z_mu * n! * 2^k * k!),
  S_k(mu) = sum_nu chi_nu(mu) * dim(nu) * kappa_nu^k,

where S_k(mu) is an integer.  We then take the graded log and read off
H_{g,mu} from the lam^b coefficient.  The same series satisfies the
cut-and-join equation d/dlam = K, which ``verify_cut_and_join`` checks
coefficient by coefficient; the genus-0 values with at least three
parts also have an independent closed form, ``elsv_genus0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinatorics import (
    Partition,
    automorphism_count,
    centralizer_order,
    character,
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
    """Character-weighted Schur sum with lam-truncated coefficients."""

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


def burnside_series(degree_cap: int, lam_order: int) -> BurnsideSeries:
    """The Schur-side series, exact through the stated caps.

    One pass per degree n: the integer moments S_k(mu) of the module
    docstring, then one Fraction per nonzero lam^k p_mu coefficient.
    """
    if degree_cap < 0 or lam_order < 0:
        raise ValueError("caps must be >= 0")
    terms = {(): RatFun.one()}
    for n in range(1, degree_cap + 1):
        shapes = [(irrep_dimension(nu), kappa(nu), nu) for nu in partitions_of(n)]
        for mu in partitions_of(n):
            weights = [(dim * character(nu, mu), kap) for dim, kap, nu in shapes]
            base = centralizer_order(mu) * factorial(n)
            poly = {}
            for k in range(lam_order + 1):
                moment = sum(w * kap**k for w, kap in weights)
                if moment:
                    poly[(0, 0, k, 0)] = Fraction(moment, base * 2**k * factorial(k))
            terms[mu] = RatFun.from_poly(LaurentPoly(poly))
    return BurnsideSeries(SymFunc(degree_cap, terms), degree_cap, lam_order)


def default_lam_order(degree_cap: int, genus_cap: int) -> int:
    """Smallest lam order covering every (g, mu) in range: 2G - 2 + 2D."""
    return max(0, 2 * genus_cap - 2 + 2 * degree_cap)


def hurwitz_table(degree_cap: int, genus_cap: int) -> HurwitzTable:
    """Extract H_{g,mu} for 1 <= |mu| <= degree_cap, 0 <= g <= genus_cap.

    H_{g,mu} = b! * [lam^b p_mu] log(series) with b = 2g - 2 + l + |mu|;
    pairs with b < 0 are omitted.
    """
    M = default_lam_order(degree_cap, genus_cap)
    series = burnside_series(degree_cap, M)
    logseries = graded_log(series.sym, lam_cap=M)
    entries: dict[tuple[int, Partition], Fraction] = {}
    for n in range(1, degree_cap + 1):
        for mu in partitions_of(n):
            poly = logseries.coeff(mu)
            num = poly.num  # coefficients of the log are lam-polynomials
            for g in range(genus_cap + 1):
                b = 2 * g - 2 + len(mu) + n
                if b < 0:
                    continue
                c = num.coefficient_of("lam", b).as_scalar()
                if c is None:
                    raise AssertionError("log coefficient not scalar in lam")
                entries[(g, mu)] = c * factorial(b)
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

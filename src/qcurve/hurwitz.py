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
no lam order is chosen and nothing is truncated.  It lies in Q[E^+-1]
with no denominator in E, so it is held as a map {e: int} over the
denominator z_mu * n! that its partition implies, which is never
stored.  The graded log is computed on those maps (the recursion of
``symfun.graded_log``) and its p_mu coefficients are held over the
same z_mu * n!: a product of coefficients on alpha and beta
(|alpha| = k, mu = alpha + beta) is over z_alpha k! z_beta (n-k)!,
which divides z_mu n!, so each product is scaled by the quotient
straight into mu's one int map; no gcd or lcm is taken.  Its
coefficients are sums sum_e c_e E^e as well, since E -> e^(lam/2) is a
ring map and the log uses only ring operations.  Reading
E^e = sum_b (e/2)^b lam^b / b! gives every genus from that one log:

  H_{g,mu} = b! * [lam^b p_mu] log = sum_e c_e * (e/2)^b,

one integer sum per (g, mu).  The cut-and-join equation d/dlam F = K F
is checked exactly in E: d/dlam acts on E^e as multiplication by e/2,
so d/dlam = (E/2) d/dE, and as distinct E^e = e^(e lam/2) are linearly
independent, two equal Laurent polynomials in E agree at every lam order
at once; the check runs on the maps of ``burnside_series``, and a ring
value is built only to print a mismatch.  Three closed forms share no
code with the series: ``elsv_genus0`` (genus 0, at least three parts),
``hurwitz_genus1`` (genus 1, every mu) and ``hurwitz_one_part``
(mu = (d), every genus); the first two take their common factor
prod_i mu_i^mu_i / mu_i! / |Aut(mu)| from ``_elsv_prefactor``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import factorial, prod
from operator import mul

from .combinatorics import (
    Partition,
    _cut_join_moves,
    _sorted_merge,
    automorphism_count,
    centralizer_order,
    character_table,
    kappa,
    partitions_of,
)
from .ring import LaurentPoly


class LengthTooSmallError(ValueError):
    """The genus-0 closed form is only asserted for length >= 3."""


@dataclass(frozen=True)
class HurwitzTable:
    """Exact Hurwitz numbers for 1 <= |mu| <= degree_cap, g <= genus_cap.

    ``entries`` holds every (g, mu) up to the caps, and ``rows`` reads
    them by genus, then degree, then ``partitions_of`` order.
    """

    entries: dict[tuple[int, Partition], Fraction]
    degree_cap: int
    genus_cap: int

    def value(self, g: int, mu: Partition) -> Fraction:
        return self.entries[(g, _parts(mu))]

    def rows(self) -> list[tuple[int, Partition, Fraction]]:
        """Every entry, by genus, then degree, then reverse-lex."""
        return [
            (g, mu, self.entries[(g, mu)])
            for g in range(self.genus_cap + 1)
            for n in range(1, self.degree_cap + 1)
            for mu in partitions_of(n)
        ]


@dataclass(frozen=True)
class CutJoinReport:
    degree_cap: int
    ok: bool
    coefficients_checked: int
    first_mismatch: tuple[Partition, str, str] | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.first_mismatch is not None:
            mu, lhs, rhs = self.first_mismatch
            out["first_mismatch"] = {"partition": str(list(mu)), "lhs": lhs, "rhs": rhs}
        return out

    def text(self) -> str:
        status = "holds" if self.ok else f"fails: {self.to_json()['first_mismatch']}"
        return f"cut-and-join through degree {self.degree_cap}, every lam order: {status}"


# One degree n of a series maps each partition mu to its coefficient
# sum_e c_e E^e / (z_mu * n!), held as {e: c_e} with the c_e nonzero
# ints; zero coefficients are left out.
_Degree = dict[Partition, dict[int, int]]


def burnside_series(degree_cap: int) -> list[_Degree]:
    """The Schur-side series, one map per degree, every coefficient exact in E.

    One pass per degree n over the rows of ``character_table(n)``, the
    zero characters skipped and the weights chi * dim of equal kappa
    merged into one E^kappa term over z_mu * n!.  Each dim is read off
    its row, as the character at the last class, (1^n).
    """
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    comps = [{(): {0: 1}}]
    for n in range(1, degree_cap + 1):
        rows = character_table(n).rows
        shapes = [(row[-1], kappa(nu), row) for nu, row in rows.items()]
        comp = {}
        for j, mu in enumerate(partitions_of(n)):
            weights: dict[int, int] = {}
            for dim, kap, row in shapes:
                if row[j]:
                    weights[kap] = weights.get(kap, 0) + dim * row[j]
            if weights := {e: c for e, c in weights.items() if c}:
                comp[mu] = weights
        comps.append(comp)
    return comps


def _graded_dlog(comps: list[_Degree]) -> list[_Degree]:
    """dlogs[n] = n * L_n, the degree-n part of log F times n.

    The recursion of ``symfun.graded_log``,

      n L_n = n F_n - sum_{0<k<n} k L_k * F_{n-k},

    on maps over the implied denominators: a product of the maps of
    alpha and beta is scaled by z_mu n! / (z_alpha k! z_beta (n-k)!)
    and added into the one map of mu = alpha + beta.
    """
    dens = {mu: centralizer_order(mu) * factorial(n)
            for n in range(len(comps)) for mu in partitions_of(n)}
    dlogs: list[_Degree] = [{}]
    for n in range(1, len(comps)):
        # n F_n is F_n times the constant n
        dlog = {mu: {e: n * c for e, c in f.items()} for mu, f in comps[n].items()}
        for k in range(1, n):
            for alpha, a in dlogs[k].items():
                for beta, b in comps[n - k].items():
                    mu = _sorted_merge(alpha, beta)
                    scale = -(dens[mu] // (dens[alpha] * dens[beta]))
                    bitems = [(eb, scale * cb) for eb, cb in b.items()]
                    total = dlog.setdefault(mu, {})
                    get = total.get
                    for ea, ca in a.items():
                        for eb, cb in bitems:
                            total[ea + eb] = get(ea + eb, 0) + ca * cb
        # no p_mu coefficient of the log vanishes, as H_{0,mu} > 0
        dlogs.append({mu: {e: c for e, c in t.items() if c} for mu, t in dlog.items()})
    return dlogs


def _moments(num: dict[int, int], first: int, count: int) -> list[int]:
    """sum_e c_e * e^b for b = first, first + 2, ...: count sums.

    Each is b! * 2^b * [lam^b] of sum_e c_e E^e at E = e^(lam/2).
    """
    terms = [c * e**first for e, c in num.items()]
    squares = [e * e for e in num]
    sums = []
    for _ in range(count):
        sums.append(sum(terms))
        terms = list(map(mul, terms, squares))
    return sums


def hurwitz_table(degree_cap: int, genus_cap: int) -> HurwitzTable:
    """Extract H_{g,mu} for 1 <= |mu| <= degree_cap, 0 <= g <= genus_cap.

    One graded log of the exact series; each entry is the integer sum
    H_{g,mu} = sum_e c_e * e^b / (z_mu * n! * n * 2^b) over the E^e
    terms of the p_mu coefficient of n * L_n, with n = |mu| and
    b = 2g - 2 + l + n >= 0.
    """
    if genus_cap < 0:
        raise ValueError("genus cap must be >= 0")
    dlogs = _graded_dlog(burnside_series(degree_cap))
    entries: dict[tuple[int, Partition], Fraction] = {}
    for n in range(1, degree_cap + 1):
        for mu in partitions_of(n):
            den, b = centralizer_order(mu) * factorial(n) * n, len(mu) + n - 2
            for g, m in enumerate(_moments(dlogs[n].get(mu, {}), b, genus_cap + 1)):
                entries[(g, mu)] = Fraction(m, den * 2 ** (b + 2 * g))
    return HurwitzTable(entries, degree_cap, genus_cap)


def _parts(mu: Partition) -> Partition:
    mu = tuple(mu)
    if any(p < 1 for p in mu):
        raise ValueError(f"every part of mu must be >= 1, got {mu}")
    # the closed forms are symmetric; automorphism_count reads runs of parts
    return tuple(sorted(mu, reverse=True))


def _elsv_prefactor(mu: Partition) -> Fraction:
    """prod_i mu_i^mu_i / mu_i! / |Aut(mu)|, shared by the closed forms."""
    return Fraction(prod(p**p for p in mu),
                    automorphism_count(mu) * prod(map(factorial, mu)))


def elsv_genus0(mu: Partition) -> Fraction:
    """Genus-0 closed form, valid for partitions with at least 3 parts.

    H_{0,mu} = b! / |Aut(mu)| * prod_i mu_i^mu_i / mu_i! * |mu|^(l-3),
    with b = |mu| + l(mu) - 2 the number of simple branch points.  The b!
    normalizes the count to match the generating series (H_{g,mu} there
    multiplies lam^b / b!); an independent monodromy enumeration confirms
    e.g. H_{0,(1,1,1)} = 4.
    """
    mu = _parts(mu)
    if len(mu) < 3:
        raise LengthTooSmallError(
            f"closed form requires l(mu) >= 3, got {len(mu)}"
        )
    b = sum(mu) + len(mu) - 2
    return factorial(b) * _elsv_prefactor(mu) * sum(mu) ** (len(mu) - 3)


def hurwitz_genus1(mu: Partition) -> Fraction:
    """Genus-1 closed form (Goulden-Jackson; Vakil), every mu.

    H_{1,mu} = r! / (24 |Aut(mu)|) * prod_i mu_i^mu_i / mu_i!
               * (d^n - d^(n-1) - sum_{k=2..n} (k-2)! d^(n-k) e_k(mu)),

    with d = |mu|, n = l(mu), r = d + n and e_k the elementary symmetric
    polynomial in the parts; the r! normalizes as in ``elsv_genus0``.
    """
    mu = _parts(mu)
    if not mu:
        raise ValueError("mu must have at least one part")
    d, n = sum(mu), len(mu)
    elementary = [1]  # e_0 .. e_n of the parts, from prod_i (1 + mu_i t)
    for p in mu:
        elementary = [
            a + p * b for a, b in zip(elementary + [0], [0] + elementary)
        ]
    bracket = d**n - d ** (n - 1) - sum(
        factorial(k - 2) * d ** (n - k) * elementary[k] for k in range(2, n + 1)
    )
    return Fraction(factorial(d + n) * bracket, 24) * _elsv_prefactor(mu)


def hurwitz_one_part(g: int, d: int) -> Fraction:
    """One-part closed form (Shapiro-Shapiro-Vainshtein), every genus.

    H_{g,(d)} = r! * d^(d-2) / d! * [t^(2g)] (sinh(dt/2) / (dt/2))^(d-1),

    with r = 2g - 1 + d.  sinh(x)/x = sum_j x^(2j) / (2j+1)!, so the
    power is taken on a series in t^2 truncated after t^(2g).
    """
    if g < 0 or d < 1:
        raise ValueError("need g >= 0 and d >= 1")
    sinhc = [Fraction(d**2, 4) ** j / factorial(2 * j + 1) for j in range(g + 1)]
    power = [Fraction(1)] + [Fraction(0)] * g
    for _ in range(d - 1):
        power = [
            sum(power[i] * sinhc[j - i] for i in range(j + 1)) for j in range(g + 1)
        ]
    return factorial(2 * g - 1 + d) * Fraction(d) ** (d - 2) / factorial(d) * power[g]


def compare_cut_and_join(series: list[_Degree]) -> CutJoinReport:
    """Check d/dlam F == K F exactly in E on the maps of ``burnside_series``.

    With E = e^(lam/2), d/dlam = (E/2) d/dE takes c E^e to c e/2 E^e, and
    each move (mu, w) of ``_cut_join_moves(nu)`` adds w times the p_nu
    coefficient into mu's map.  Degree n is held over 2 * (n!)^2, so
    every term is an int: nu's map, over z_nu * n!, is multiplied by its
    class size n! / z_nu, and 2w is an int.
    The two sides are compared partition by partition, by degree and then
    in reverse-lex order; the first mismatch is reported as (mu, lhs, rhs).
    ``coefficients_checked`` counts the E terms of the left side, an empty
    coefficient as one.
    """
    cap, checked = len(series) - 1, 0
    for n, comp in enumerate(series):
        lhs, rhs = {}, {}
        for nu, num in comp.items():
            size = factorial(n) // centralizer_order(nu)
            lhs[nu] = {e: c * e * size for e, c in num.items() if e}
            for mu, w in _cut_join_moves(nu):
                factor, total = int(2 * w) * size, rhs.setdefault(mu, {})
                for e, c in num.items():
                    total[e] = total.get(e, 0) + factor * c
        for mu in partitions_of(n):
            a, b = lhs.get(mu, {}), {e: c for e, c in rhs.get(mu, {}).items() if c}
            if a != b:
                texts = [str(LaurentPoly({(e, 0, 0, 0): Fraction(c, 2 * factorial(n) ** 2)
                                          for e, c in m.items()})) for m in (a, b)]
                return CutJoinReport(cap, False, checked, (mu, *texts))
            checked += len(a) or 1
    return CutJoinReport(cap, True, checked)


def verify_cut_and_join(degree_cap: int) -> CutJoinReport:
    return compare_cut_and_join(burnside_series(degree_cap))

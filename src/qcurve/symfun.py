"""Symmetric functions in the power-sum basis, graded and truncated.

A ``SymFunc`` stores coefficients of the monomials p_mu = prod_i p_{mu_i},
indexed by partitions mu with |mu| <= degree cap; arithmetic truncates
above the cap.  On top of that sit the Schur expansion through symmetric
group characters, the cut-and-join operator (whose eigenfunctions are the
Schur functions, with eigenvalue kappa/2), graded log/exp, and the two
evaluation homomorphisms used by the curve constructions:

  PRINCIPAL        p_m -> 1/[m] = u^m/(u^(2m) - 1), the principal
                   specialization at (q^(-1/2), q^(-3/2), ...) summed as
                   a geometric series
  CONIFOLD_Y       p_m -> (Qh^-m - Qh^m)/[m]; each p_mu's image is built
                   canonical in one pass over its parts, not normalized

The Schur function's principal image at u = E^-1, the c3 weight of the
character route, is built by ``principal_schur`` without a ``SymFunc``,
from the hook-content product as ``quantum_dimension`` builds the
conifold weight.  ``specialize`` of ``schur_to_powersums`` stays as its
independent reference.

Adding is one rule.  Every sum of symmetric functions (``+`` and ``-``,
the product, scaling, the constructor, the Schur inversion, cut-and-join,
graded log and exp) hands its (partition, coefficient) pairs to one
helper, which groups them by partition, adds each group by one
``RatFun.sum``, and drops zero sums and partitions above the cap.  The
constructor sorts the parts of each partition first, so keys that are
equal after sorting are added; ``coeff`` sorts its argument the same way.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from itertools import chain

from .combinatorics import (
    Partition,
    _cut_join_moves,
    _shape,
    _sorted_merge,
    centralizer_order,
    character,
    character_table,
    hooks_and_contents,
    partitions_of,
)
from .ring import LaurentPoly, RatFun


class DegreeCapExceededError(ValueError):
    """A partition of degree above the truncation cap was requested."""


class BadConstantTermError(ValueError):
    """log needs constant term 1; exp needs constant term 0."""


class Specialization(enum.Enum):
    PRINCIPAL = "principal"
    CONIFOLD_Y = "conifold-y"


class SymFunc:
    """Symmetric function as a finite map partition -> RatFun coefficient."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: dict[Partition, RatFun] | None = None):
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        self.cap = cap
        pairs = ((tuple(sorted(mu, reverse=True)), c) for mu, c in (terms or {}).items())
        self.terms = _collect(cap, pairs).terms

    @classmethod
    def zero(cls, cap: int) -> SymFunc:
        return cls(cap)

    @classmethod
    def one(cls, cap: int) -> SymFunc:
        return cls(cap, {(): RatFun.one()})

    def coeff(self, mu: Partition) -> RatFun:
        return self.terms.get(tuple(sorted(mu, reverse=True)), RatFun.zero())

    def constant_term(self) -> RatFun:
        return self.coeff(())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.cap == other.cap and self.terms == other.terms

    def __add__(self, other: SymFunc) -> SymFunc:
        if not isinstance(other, SymFunc):
            return NotImplemented
        cap = min(self.cap, other.cap)
        return _collect(cap, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> SymFunc:
        return _sf(self.cap, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: SymFunc) -> SymFunc:
        return self + (-other)

    def scale(self, c) -> SymFunc:
        if isinstance(c, (int, Fraction)):
            c = RatFun.term(c)
        return self.map_coeffs(lambda v: v * c)

    def mul(self, other: SymFunc) -> SymFunc:
        """Graded product, truncated at the degree cap."""
        cap = min(self.cap, other.cap)
        products = (
            (_sorted_merge(mu, nu), a * b)
            for mu, a in self.terms.items()
            for nu, b in other.terms.items()
            if sum(mu) + sum(nu) <= cap
        )
        return _collect(cap, products)

    def __mul__(self, other: SymFunc) -> SymFunc:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.mul(other)

    def map_coeffs(self, fn) -> SymFunc:
        return _collect(self.cap, ((mu, fn(c)) for mu, c in self.terms.items()))


def _sf(cap: int, terms: dict[Partition, RatFun]) -> SymFunc:
    """Wrap terms that are already clean: sorted keys of degree <= cap, no zero."""
    res = SymFunc.__new__(SymFunc)
    res.cap = cap
    res.terms = terms
    return res


def _collect(cap: int, pairs: Iterable[tuple[Partition, RatFun]]) -> SymFunc:
    """The sum of the (sorted partition, coefficient) pairs, truncated at cap.

    The one adding rule of this module: pairs are grouped by partition,
    each group is added by one ``RatFun.sum`` and zero sums are dropped.
    """
    groups: dict[Partition, list[RatFun]] = {}
    for mu, c in pairs:
        if sum(mu) <= cap:
            groups.setdefault(mu, []).append(c)
    terms = {}
    for mu, cs in groups.items():
        c = RatFun.sum(cs)
        if not c.is_zero():
            terms[mu] = c
    return _sf(cap, terms)


def schur_to_powersums(nu: Partition, cap: int) -> SymFunc:
    """Schur function expanded in the power-sum basis.

    s_nu = sum over classes mu of chi_nu(mu)/z_mu * p_mu, read from nu's
    row of ``character_table(|nu|)``; all terms have degree exactly |nu|.
    """
    nu = _shape(nu)
    n = sum(nu)
    if n > cap:
        raise DegreeCapExceededError(f"|{nu}| exceeds cap {cap}")
    # sorted partitions of degree |nu| <= cap, nonzero coefficients: clean
    return _sf(cap, {
        mu: RatFun.term(Fraction(chi, centralizer_order(mu)))
        for mu, chi in zip(partitions_of(n), character_table(n).rows[nu])
        if chi
    })


def powersum_from_schurs(nu: Partition, cap: int) -> SymFunc:
    """p_nu rebuilt from the inverse relation p_nu = sum_mu chi_mu(nu) s_mu."""
    nu = tuple(nu)
    if sum(nu) > cap:
        raise DegreeCapExceededError(f"|{nu}| exceeds cap {cap}")
    return _collect(cap, chain.from_iterable(
        schur_to_powersums(mu, cap).scale(chi).terms.items()
        for mu in partitions_of(sum(nu))
        if (chi := character(mu, nu))
    ))


def cut_and_join(f: SymFunc) -> SymFunc:
    """The cut-and-join operator, applied term by term.

    (1/2) * sum_{i,j>=1} [ i*j*p_{i+j} d^2/dp_i dp_j
                           + (i+j)*p_i*p_j d/dp_{i+j} ],
    degree-preserving.  On a p-monomial with part multiplicities m:
    join of two distinct parts a,b contributes a*b*m_a*m_b, join of a
    repeated part a contributes a^2*m_a*(m_a-1)/2, and each part k is
    cut into ordered pairs (i, k-i) with weight k*m_k/2.
    """
    return _collect(f.cap, (
        (key, c.scale(weight))
        for mu, c in f.terms.items()
        for key, weight in _cut_join_moves(mu)
    ))


@cache
def _powersum_product_image(mu: Partition, kind: Specialization) -> RatFun:
    """p_mu's image: u^|mu|, times Qh^-m - Qh^m per part m for CONIFOLD_Y,
    over prod (u^(2m) - 1), both multiplied out in one pass over the parts.

    Canonical as built, so not normalized (as in ``quantum_dimension``):
    the denominator is monic in u, has no negative exponents and has
    constant term +-1; the numerator is u^|mu| times a polynomial in Qh
    alone, so it shares no factor with a denominator in u alone.
    """
    num, den = LaurentPoly.symbol("u", sum(mu)), LaurentPoly.one()
    for m in mu:
        if kind is Specialization.CONIFOLD_Y:
            num = num * (LaurentPoly.symbol("Qh", -m) - LaurentPoly.symbol("Qh", m))
        den = den * (LaurentPoly.symbol("u", 2 * m) - LaurentPoly.one())
    return RatFun._raw(num, den)


def principal_schur(nu: Partition) -> RatFun:
    """s_nu(E, E^3, E^5, ...), the PRINCIPAL image of s_nu at u = E^-1,
    written in E.

    Hook-content product form (Macdonald I.3 Ex. 2):
    (-1)^n E^(sum h - sum c) / prod over cells of (E^(2h) - 1), with h
    the hook length and c the content of each cell and n = |nu|.  As in
    ``quantum_dimension`` the binomials are multiplied out and the
    monomial is applied once.  The result is canonical as built, so it is
    not normalized: a unit over a denominator that is monic in E, has no
    negative exponents and has constant term +-1.
    """
    nu = _shape(nu)
    den = LaurentPoly.one()
    minus_one = LaurentPoly.term(-1)
    shift = 0
    for hook, content in hooks_and_contents(nu):
        den = den * (LaurentPoly.symbol("E", 2 * hook) + minus_one)
        shift += hook - content
    return RatFun._raw(LaurentPoly.term((-1) ** sum(nu), E=shift), den)


def specialize(f: SymFunc, kind: Specialization) -> RatFun:
    """Apply one of the evaluation homomorphisms to the p-basis."""
    return RatFun.sum(
        c * _powersum_product_image(mu, kind) for mu, c in f.terms.items()
    )


@cache
def quantum_dimension(mu: Partition) -> RatFun:
    """Hook-content product form of the quantum dimension.

    prod over cells of (Qh^-1 u^c - Qh u^-c) / (u^h - u^-h), with c the
    content and h the hook length of the cell.  Agrees with the
    CONIFOLD_Y specialization of the Schur function.  Each cell factor is
    Qh^-1 u^(h-c) (u^(2c) - Qh^2) / (u^(2h) - 1): the binomials are
    multiplied out and the monomial Qh^-|mu| u^(sum h - sum c) is applied
    once.  The result is canonical as built, so it is not normalized (as
    in ``z_closed``): the denominator is monic in u, has no negative
    exponents and has constant term +-1; the numerator's extreme Qh
    slices ((-1)^|mu| Qh^(2|mu|) and u^(2 sum c), times the monomial) are
    units, so its u-content is 1 and it shares no factor with a
    denominator in u alone.
    """
    _shape(mu)
    num = den = LaurentPoly.one()
    minus_qh2, minus_one = LaurentPoly.term(-1, Qh=2), LaurentPoly.term(-1)
    shift = 0
    for hook, content in hooks_and_contents(mu):
        num = num * (LaurentPoly.symbol("u", 2 * content) + minus_qh2)
        den = den * (LaurentPoly.symbol("u", 2 * hook) + minus_one)
        shift += hook - content
    return RatFun._raw(num.mul_term(1, Qh=-sum(mu), u=shift), den)


def graded_exp(f: SymFunc) -> SymFunc:
    """exp of a symmetric function with zero constant term, by grading."""
    if not f.constant_term().is_zero():
        raise BadConstantTermError("exp needs constant term 0")
    summands = [SymFunc.one(f.cap)]
    power = summands[0]
    kfact = 1
    for k in range(1, f.cap + 1):
        power = power.mul(f)
        if power.is_zero():
            break
        kfact *= k
        summands.append(power.scale(Fraction(1, kfact)))
    return _collect(f.cap, chain.from_iterable(g.terms.items() for g in summands))


def graded_log(f: SymFunc) -> SymFunc:
    """log of a symmetric function with constant term 1, by grading.

    The degree operator D (D p_mu = |mu| p_mu) is a derivation, so
    F = exp(L) gives D F = F * D L, which degree by degree reads

      n L_n = n F_n - sum_{0<k<n} k L_k * F_{n-k}.

    One pass over the degrees yields every L_n.
    """
    if not f.constant_term().is_one():
        raise BadConstantTermError("log needs constant term 1")
    comps = [  # comps[n] = F_n
        _sf(f.cap, {mu: c for mu, c in f.terms.items() if sum(mu) == n})
        for n in range(f.cap + 1)
    ]
    dlogs = [SymFunc.zero(f.cap)]  # dlogs[k] = k * L_k
    for n in range(1, f.cap + 1):
        products = chain.from_iterable(
            dlogs[k].mul(comps[n - k]).terms.items() for k in range(1, n)
        )
        # -(products - n F_n): negated once per partition, not once per product
        dlogs.append(-_collect(f.cap, chain(comps[n].scale(-n).terms.items(), products)))
    return _collect(f.cap, chain.from_iterable(
        dlogs[n].scale(Fraction(1, n)).terms.items() for n in range(1, f.cap + 1)
    ))

"""Symmetric functions in the power-sum basis, graded and truncated.

A ``SymFunc`` stores coefficients of the monomials p_mu = prod_i p_{mu_i},
indexed by partitions mu with |mu| <= degree cap; arithmetic truncates
above the cap.  On top of that sit the Schur expansion through symmetric
group characters, the cut-and-join operator (whose eigenfunctions are the
Schur functions, with eigenvalue kappa/2), graded log/exp, and the two
evaluation homomorphisms used by the curve constructions:

  PRINCIPAL        p_m -> 1/[m], the principal specialization at
                   (q^(-1/2), q^(-3/2), ...) summed as a geometric series
  CONIFOLD_Y       p_m -> (Qh^-m - Qh^m)/[m]
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    centralizer_order,
    character,
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


def _sorted_merge(mu: Partition, nu: Partition) -> Partition:
    return tuple(sorted(mu + nu, reverse=True))


class SymFunc:
    """Symmetric function as a finite map partition -> RatFun coefficient."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: dict[Partition, RatFun] | None = None):
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        self.cap = cap
        clean: dict[Partition, RatFun] = {}
        if terms:
            for mu, c in terms.items():
                if sum(mu) <= cap and not c.is_zero():
                    clean[mu] = c
        self.terms = clean

    @classmethod
    def zero(cls, cap: int) -> SymFunc:
        return cls(cap)

    @classmethod
    def one(cls, cap: int) -> SymFunc:
        return cls(cap, {(): RatFun.one()})

    @classmethod
    def p(cls, mu: Partition, cap: int) -> SymFunc:
        """The power-sum monomial p_mu."""
        return cls(cap, {tuple(sorted(mu, reverse=True)): RatFun.one()})

    def coeff(self, mu: Partition) -> RatFun:
        return self.terms.get(tuple(mu), RatFun.zero())

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
        out = {m: c for m, c in self.terms.items() if sum(m) <= cap}
        for mu, c in other.terms.items():
            if sum(mu) > cap:
                continue
            s = out.get(mu, RatFun.zero()) + c
            if s.is_zero():
                out.pop(mu, None)
            else:
                out[mu] = s
        res = SymFunc.__new__(SymFunc)
        res.cap = cap
        res.terms = out
        return res

    def __neg__(self) -> SymFunc:
        res = SymFunc.__new__(SymFunc)
        res.cap = self.cap
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: SymFunc) -> SymFunc:
        return self + (-other)

    def scale(self, c) -> SymFunc:
        if isinstance(c, (int, Fraction)):
            c = RatFun.from_scalar(c)
        if c.is_zero():
            return SymFunc(self.cap)
        res = SymFunc.__new__(SymFunc)
        res.cap = self.cap
        res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def mul(self, other: SymFunc, lam_cap: int | None = None) -> SymFunc:
        """Graded product, truncated at the degree cap.

        ``lam_cap`` additionally truncates every coefficient at the given
        power of lam; exact for all retained lam-orders since dropping
        high lam-powers is an ideal.
        """
        cap = min(self.cap, other.cap)
        out: dict[Partition, RatFun] = {}
        for mu, a in self.terms.items():
            wa = sum(mu)
            if wa > cap:
                continue
            for nu, b in other.terms.items():
                if wa + sum(nu) > cap:
                    continue
                key = _sorted_merge(mu, nu)
                c = a * b
                if lam_cap is not None:
                    c = _truncate_lam(c, lam_cap)
                s = out.get(key, RatFun.zero()) + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        res = SymFunc.__new__(SymFunc)
        res.cap = cap
        res.terms = out
        return res

    def __mul__(self, other: SymFunc) -> SymFunc:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.mul(other)

    def map_coeffs(self, fn) -> SymFunc:
        out = {}
        for mu, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[mu] = v
        res = SymFunc.__new__(SymFunc)
        res.cap = self.cap
        res.terms = out
        return res

    def sorted_terms(self) -> list[tuple[Partition, RatFun]]:
        """Terms sorted by (degree, reverse-lex partition order)."""

        def key(item):
            mu = item[0]
            n = sum(mu)
            return (n, partitions_of(n).index(mu))

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mu, c in self.sorted_terms():
            label = "p[" + ",".join(str(p) for p in mu) + "]" if mu else "1"
            parts.append(f"({c}) * {label}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SymFunc(cap={self.cap}, {self})"


def _truncate_lam(c: RatFun, lam_cap: int) -> RatFun:
    # lam-truncation is only meaningful on polynomial coefficients
    if not c.den.is_one():
        raise ValueError("lam_cap requires polynomial coefficients")
    return RatFun.from_poly(c.num.truncate_symbol("lam", lam_cap))


@cache
def _schur_terms(nu: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    n = sum(nu)
    out = []
    for mu in partitions_of(n):
        chi = character(nu, mu)
        if chi:
            out.append((mu, Fraction(chi, centralizer_order(mu))))
    return tuple(out)


def schur_to_powersums(nu: Partition, cap: int) -> SymFunc:
    """Schur function expanded in the power-sum basis.

    s_nu = sum over classes mu of chi_nu(mu)/z_mu * p_mu; all terms have
    degree exactly |nu|.
    """
    nu = tuple(nu)
    if sum(nu) > cap:
        raise DegreeCapExceededError(f"|{nu}| exceeds cap {cap}")
    return SymFunc(
        cap, {mu: RatFun.from_scalar(c) for mu, c in _schur_terms(nu)}
    )


def powersum_from_schurs(nu: Partition, cap: int) -> SymFunc:
    """p_nu rebuilt from the inverse relation p_nu = sum_mu chi_mu(nu) s_mu."""
    nu = tuple(nu)
    if sum(nu) > cap:
        raise DegreeCapExceededError(f"|{nu}| exceeds cap {cap}")
    acc = SymFunc.zero(cap)
    for mu in partitions_of(sum(nu)):
        chi = character(mu, nu)
        if chi:
            acc = acc + schur_to_powersums(mu, cap).scale(chi)
    return acc


def cut_and_join(f: SymFunc) -> SymFunc:
    """The cut-and-join operator, applied term by term.

    (1/2) * sum_{i,j>=1} [ i*j*p_{i+j} d^2/dp_i dp_j
                           + (i+j)*p_i*p_j d/dp_{i+j} ],
    degree-preserving.  On a p-monomial with part multiplicities m:
    join of two distinct parts a,b contributes a*b*m_a*m_b, join of a
    repeated part a contributes a^2*m_a*(m_a-1)/2, and each part k is
    cut into ordered pairs (i, k-i) with weight k*m_k/2.
    """
    out = SymFunc.zero(f.cap)
    half = Fraction(1, 2)
    for mu, c in f.terms.items():
        parts = list(mu)
        distinct = sorted(set(parts))
        mult = {a: parts.count(a) for a in distinct}
        # joins
        for ai, a in enumerate(distinct):
            for b in distinct[ai:]:
                if a == b:
                    m = mult[a]
                    if m < 2:
                        continue
                    weight = Fraction(a * a * m * (m - 1), 2)
                    rest = parts.copy()
                    rest.remove(a)
                    rest.remove(a)
                else:
                    weight = Fraction(a * b * mult[a] * mult[b])
                    rest = parts.copy()
                    rest.remove(a)
                    rest.remove(b)
                key = tuple(sorted(rest + [a + b], reverse=True))
                out = out + SymFunc(f.cap, {key: c.scale(weight)})
        # cuts
        for k in distinct:
            base = parts.copy()
            base.remove(k)
            weight = half * k * mult[k]
            for i in range(1, k):
                key = tuple(sorted(base + [i, k - i], reverse=True))
                out = out + SymFunc(f.cap, {key: c.scale(weight)})
    return out


@cache
def _principal_image(m: int) -> RatFun:
    # p_m at (q^(-1/2), q^(-3/2), ...): geometric series = 1/(u^m - u^-m)
    return RatFun(
        LaurentPoly.one(),
        LaurentPoly.symbol("u", m) - LaurentPoly.symbol("u", -m),
    )


@cache
def _conifold_image(m: int) -> RatFun:
    # p_m -> (Qh^-m - Qh^m) / (u^m - u^-m)
    return RatFun(
        LaurentPoly.symbol("Qh", -m) - LaurentPoly.symbol("Qh", m),
        LaurentPoly.symbol("u", m) - LaurentPoly.symbol("u", -m),
    )


@cache
def _powersum_product_image(mu: Partition, kind: Specialization) -> RatFun:
    image = _principal_image if kind is Specialization.PRINCIPAL else _conifold_image
    acc = RatFun.one()
    for m in mu:
        acc = acc * image(m)
    return acc


def specialize(f: SymFunc, kind: Specialization) -> RatFun:
    """Apply one of the evaluation homomorphisms to the p-basis."""
    acc = RatFun.zero()
    for mu, c in f.terms.items():
        acc = acc + c * _powersum_product_image(mu, kind)
    return acc


@cache
def quantum_dimension(mu: Partition) -> RatFun:
    """Hook-content product form of the quantum dimension.

    prod over cells of (Qh^-1 u^c - Qh u^-c) / (u^h - u^-h), with c the
    content and h the hook length of the cell.  Agrees with the
    CONIFOLD_Y specialization of the Schur function.
    """
    mu = tuple(mu)
    acc = RatFun.one()
    for _, hook, content in hooks_and_contents(mu):
        num = LaurentPoly.term(1, Qh=-1, u=content) - LaurentPoly.term(1, Qh=1, u=-content)
        den = LaurentPoly.symbol("u", hook) - LaurentPoly.symbol("u", -hook)
        acc = acc * RatFun(num, den)
    return acc


def graded_exp(f: SymFunc, lam_cap: int | None = None) -> SymFunc:
    """exp of a symmetric function with zero constant term, by grading."""
    if not f.constant_term().is_zero():
        raise BadConstantTermError("exp needs constant term 0")
    acc = SymFunc.one(f.cap)
    power = SymFunc.one(f.cap)
    kfact = 1
    for k in range(1, f.cap + 1):
        power = power.mul(f, lam_cap=lam_cap)
        if power.is_zero():
            break
        kfact *= k
        acc = acc + power.scale(Fraction(1, kfact))
    return acc


def graded_log(f: SymFunc, lam_cap: int | None = None) -> SymFunc:
    """log of a symmetric function with constant term 1, by grading.

    The degree operator D (D p_mu = |mu| p_mu) is a derivation, so
    F = exp(L) gives D F = F * D L, which degree by degree reads

      n L_n = n F_n - sum_{0<k<n} k L_k * F_{n-k}.

    One pass over the degrees yields every L_n.  With ``lam_cap`` the
    coefficients must be polynomials in lam; F is truncated there first
    and every product after, which is exact because truncation is the
    quotient by the ideal (lam^(lam_cap+1)).
    """
    if not f.constant_term().is_one():
        raise BadConstantTermError("log needs constant term 1")
    if lam_cap is not None:
        f = f.map_coeffs(lambda c: _truncate_lam(c, lam_cap))
    comps = [  # comps[n] = F_n
        SymFunc(f.cap, {mu: c for mu, c in f.terms.items() if sum(mu) == n})
        for n in range(f.cap + 1)
    ]
    dlogs = [SymFunc.zero(f.cap)]  # dlogs[k] = k * L_k
    acc = SymFunc.zero(f.cap)
    for n in range(1, f.cap + 1):
        dlog = comps[n].scale(n)
        for k in range(1, n):
            dlog = dlog - dlogs[k].mul(comps[n - k], lam_cap=lam_cap)
        dlogs.append(dlog)
        acc = acc + dlog.scale(Fraction(1, n))
    return acc

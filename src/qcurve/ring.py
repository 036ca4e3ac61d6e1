"""Exact coefficient tower for the curve computations.

Three layers, all immutable and exact:

  LaurentPoly  multivariate Laurent polynomial with rational coefficients
               in the fixed symbol set ``SYMBOLS``
  RatFun       normalized quotient of Laurent polynomials whose denominator
               involves at most one symbol (a nonzero sum is normalized
               when first read)
  XSeries      power series in a formal variable x, truncated at a fixed
               order, with RatFun coefficients

Symbol semantics (half-weights keep every exponent integral):

  E    e^(lam/2), so e^(n*lam) = E^(2n)
  Qh   e^(-t/2),  so e^(-t)   = Qh^2
  lam  the expansion variable of the generating functions
  u    q^(1/2),   so the quantum integer [n] = u^n - u^(-n)

Canonical RatFun form: the denominator is monic in its single symbol, has
no negative exponents and a nonzero constant term (monomial content is
pushed into the numerator), and shares no nontrivial univariate factor
with the numerator.  Equal values therefore compare equal structurally.

Every product runs one loop, ``_sum_of_products``, which adds
scale * a * b over (a, b, scale) triples of int term maps into one new
map: the longer factor inner, a term into an empty map a plain copy, a
key deleted where it cancels.  ``LaurentPoly.__mul__`` is its one-triple
case after the zero and identity shortcuts, so a unit costs one copy and
a binomial one copy and one merge.  The map is never an operand's:
``z_closed`` shares numerators across coefficients, which a write into
an operand would corrupt silently.  ``LaurentPoly.__add__`` keeps its
own merge loop: as a zero-shift product it cost about 3 % of the
annihilate and routes workloads' throughput (three seeds of 10 s each).
``RatFun.__mul__`` by a unit, one term c * monomial over
1, keeps the other denominator and skips normalization: a unit adds no
univariate factor.  ``scale`` and ``mul_term`` delegate to the two.

Adding is one rule, ``RatFun.combine``, the linear combination sum c * r
with LaurentPoly coefficients c; ``RatFun.sum`` is its case with every c
equal to 1, and ``+`` the two-term case of that.  The lcm of the distinct
denominators is built once, and each numerator is multiplied once, by
its coefficient times its cofactor lcm / d, into one int map over the
lcm, by the same ``_sum_of_products``.  Where there are two denominators
and one carries a step from the other (``RatFun._step``, den == prev *
factor with prev the other's very object, recorded by ``z_closed``), that
denominator is the lcm and the factor the other's cofactor: no dense
view and no division.  Any other set of denominators takes the dense
fold, lcm = lcm * (d / gcd(lcm, d)), and one exact division per
cofactor.  So a caller that would add unit multiples of a value (a curve
operator's shifted copies of one series coefficient) passes the units as
coefficients instead, and no copy is built.  An empty map is a zero
total and the answer, so no normalization runs (an annihilated degree of
a ``z_closed`` series costs no division at all); any other total is
normalized once, when its ``num`` or ``den`` is first read, and the
canonical form makes the result the same as a pairwise fold would give.
Zero-ness needs no read: the numerator over the lcm decides it exactly,
so a failing degree that nobody prints costs no normalization either.

Storage: a LaurentPoly holds int numerators over one positive int
denominator, with no common factor, built through one canonicalizing
constructor.  An int term or a symbol is already canonical (its
numerator over 1) and is built as such, with no Fraction and no gcd.
Products convolve the numerators and multiply the denominators; the gcd
(primitive pseudo-remainder sequence) and exact division of
normalization run on the numerators of dense slices, all in Python ints.
The gcd is one chain: it starts from the denominator's primitive
numerators, takes in each numerator slice's primitive part, and stops
once it is a constant.
A normalization in which nothing cancels and whose denominator is
already monic returns that denominator object, not a rebuilt copy.
Fractions appear only at the edges: the public constructor (and so a
Fraction term), ``sorted_terms`` (and so text and JSON) and the one
scalar that makes a denominator monic.  Invariant: every divisor handed to
``_dense_divexact`` is a primitive integer polynomial, so by Gauss's lemma
exact division over Q never leaves Z and keeps the numerators' content.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import itemgetter

SYMBOLS = ("E", "Qh", "lam", "u")
_NSYM = len(SYMBOLS)
_SYM_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_ZERO_MONO = (0,) * _NSYM


class ZeroDenominatorError(ZeroDivisionError):
    """Denominator of a rational function is the zero polynomial."""


class MultivariateDenominatorError(ValueError):
    """Denominator involves more than one symbol after content extraction."""


class OrderMismatchError(ValueError):
    """Series operand is not truncated at a sufficient order."""


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _mono_key(powers: dict[str, int]) -> tuple[int, ...]:
    exps = [0] * _NSYM
    for name, e in powers.items():
        exps[_SYM_INDEX[name]] = e
    return tuple(exps)


def _mono_str(mono: tuple[int, ...]) -> str:
    return "*".join(
        f"{SYMBOLS[i]}^{e}" for i, e in enumerate(mono) if e != 0
    )


class LaurentPoly:
    """Laurent polynomial in the fixed symbols with rational coefficients.

    Stored as int numerators over one positive int ``den``: ``terms`` maps
    exponent vectors (ordered as ``SYMBOLS``) to nonzero ints, and
    gcd(den, numerators) == 1, so equal values have equal fields.
    Instances are value objects: hashable, comparable, never mutated after
    construction.  Fractions appear only at the edges (the constructor, a
    Fraction ``term`` and ``sorted_terms``); an int ``term`` and ``symbol``
    are built with none.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None):
        clean = {m: _coerce(c) for m, c in (terms or {}).items()}
        # over the lcm of the denominators the numerators are already coprime
        den = _int_lcm(*(c.denominator for c in clean.values()))
        self.terms = {
            m: c.numerator * (den // c.denominator) for m, c in clean.items() if c
        }
        self.den = den

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _LP_ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _LP_ONE

    @classmethod
    def symbol(cls, name: str, power: int = 1) -> LaurentPoly:
        """name^power, built canonical: numerator 1 over 1."""
        return _lp({_mono_key({name: power}): 1}, 1)

    @classmethod
    def term(cls, coeff, **powers: int) -> LaurentPoly:
        """Single term, e.g. ``LaurentPoly.term(-1, E=2, lam=-1)``.

        An int coefficient is its own numerator over 1, so it is built
        canonical with no Fraction; 0 gives the zero polynomial.  A
        Fraction (or bool) goes through the public constructor.
        """
        if type(coeff) is int:
            return _lp({_mono_key(powers): coeff}, 1) if coeff else _LP_ZERO
        return cls({_mono_key(powers): _coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (
            self.den == 1 and len(self.terms) == 1 and self.terms.get(_ZERO_MONO) == 1
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()), self.den))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        den = _int_lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = dict(self.terms) if ka == 1 else {
            m: c * ka for m, c in self.terms.items()
        }
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c * kb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return _lp(out, den)

    def __neg__(self) -> LaurentPoly:
        return _lp({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.term(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return _LP_ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        terms = _sum_of_products(((self.terms, other.terms, 1),))
        return _lp(terms, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers only via mul_term on monomials")
        res = _LP_ONE
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def mul_term(self, coeff, **powers: int) -> LaurentPoly:
        """Multiply by a single (possibly Laurent) term; stays canonical."""
        return self * LaurentPoly.term(coeff, **powers)

    def diff(self, name: str) -> LaurentPoly:
        """Formal derivative with respect to one symbol (Laurent rule)."""
        i = _SYM_INDEX[name]
        # m -> m - e_i is injective, so no two terms meet
        return _lp(
            {
                m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                for m, c in self.terms.items()
                if m[i]
            },
            self.den,
        )

    def subs_symbol_power(self, src: str, dst: str, k: int) -> LaurentPoly:
        """Replace src^e by dst^(k*e) in every term."""
        si, di = _SYM_INDEX[src], _SYM_INDEX[dst]
        out: dict[tuple[int, ...], int] = {}
        for mono, c in self.terms.items():
            e = mono[si]
            exps = list(mono)
            exps[si] = 0
            exps[di] += k * e
            key = tuple(exps)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _lp(out, self.den)

    def truncate_symbol(self, name: str, max_power: int) -> LaurentPoly:
        """Drop terms whose exponent in ``name`` exceeds ``max_power``."""
        i = _SYM_INDEX[name]
        return _lp(
            {m: c for m, c in self.terms.items() if m[i] <= max_power}, self.den
        )

    def coefficient_of(self, name: str, power: int) -> LaurentPoly:
        """Coefficient of name^power, as a polynomial in the other symbols."""
        i = _SYM_INDEX[name]
        return _lp(
            {
                m[:i] + (0,) + m[i + 1:]: c
                for m, c in self.terms.items()
                if m[i] == power
            },
            self.den,
        )

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms with their Fraction coefficients in canonical order:
        (total degree, exponent vector)."""
        return [
            (m, Fraction(c, self.den))
            for m, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            ms = _mono_str(mono)
            parts.append(f"({c})*{ms}" if ms else str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly<{self}>"

    def to_json_terms(self) -> list[dict]:
        return [
            {
                "coeff": str(c),
                "mono": {SYMBOLS[i]: e for i, e in enumerate(mono) if e},
            }
            for mono, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_terms(cls, terms: list[dict]) -> LaurentPoly:
        return cls(
            {
                _mono_key(t.get("mono", {})): Fraction(t["coeff"])
                for t in terms
            }
        )


def _lp(terms: dict[tuple[int, ...], int], den: int) -> LaurentPoly:
    """LaurentPoly from nonzero int numerators over a positive den, with
    the common factor of den and the numerators divided out."""
    if den != 1:
        g = den
        for v in terms.values():
            g = _int_gcd(g, v)
            if g == 1:
                break
        if g != 1:
            den //= g
            terms = {m: v // g for m, v in terms.items()}
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    res.den = den
    return res


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly.term(1)


# ---------------------------------------------------------------------------
# dense univariate helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

# (exponents of the other symbols, lowest exponent, ascending numerators)
_Slice = tuple[tuple[int, ...], int, list[int]]
# the exponents of the other symbols, per symbol index
_OTHERS = [itemgetter(*(j for j in range(_NSYM) if j != i)) for i in range(_NSYM)]


def _dense_strip(cs: list) -> None:
    while cs and not cs[-1]:
        cs.pop()


def _from_dense(cs: list[int], sidx: int, den: int = 1) -> LaurentPoly:
    terms = {}
    for k, c in enumerate(cs):
        if c:
            mono = [0] * _NSYM
            mono[sidx] = k
            terms[tuple(mono)] = c
    return _lp(terms, den)


def _int_primitive(ints: list[int]) -> list[int]:
    """ints divided by their content; the scan stops once the gcd is 1."""
    g = 0
    for v in ints:
        g = _int_gcd(g, v)
        if g == 1:
            return ints
    return [v // g for v in ints] if g else ints


def _dense_prem_int(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of integer dense polys (sign/scale irrelevant).

    Each step cancels the leading term of r with lg * r - top * g; for a
    unit lg = +-1 the step is r - (top * lg) * g, with no rescale of r.
    """
    r = f[:]
    dg = len(g) - 1
    lg = g[-1]
    low = g[:dg]
    while len(r) > dg:
        top = r.pop()
        k = len(r) - dg
        if lg == 1 or lg == -1:
            top *= lg
        else:
            r = [lg * c for c in r]
        r[k:] = [a - top * b for a, b in zip(r[k:], low)]
        _dense_strip(r)
    return r


def _dense_gcd_int(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd via the primitive pseudo-remainder sequence."""
    f, g = f[:], g[:]
    _dense_strip(f)
    _dense_strip(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _int_primitive(_dense_prem_int(f, g))
    if f and f[-1] < 0:
        f = [-v for v in f]
    return f


def _dense_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _dense_divexact(f: list[int], g: list[int]) -> list[int] | None:
    """f / g (ascending dense ints) for a primitive g, or None if inexact.

    By Gauss's lemma a primitive integer polynomial that divides an integer
    polynomial over Q divides it over Z, so the long division runs in int
    and any remainder, at a leading coefficient or at the end, means g does
    not divide f.
    """
    if not f:
        return []
    dg = len(g) - 1
    n = len(f) - dg
    if n < 1:
        return None
    r = f[:]
    lg = g[-1]
    low = g[:dg]
    q = [0] * n
    for k in range(n - 1, -1, -1):
        c, rem = divmod(r[dg + k], lg)
        if rem:
            return None
        if c:
            q[k] = c
            r[k:dg + k] = [a - c * b for a, b in zip(r[k:dg + k], low)]
    if any(r[:dg]):
        return None
    return q


def _dense_view(den: LaurentPoly) -> tuple[int | None, list[int]]:
    """The symbol index of den (None for a constant) and its ascending
    numerators, for a den in one symbol with lowest exponent 0, as a
    canonical denominator is.

    The monomials differ only at that index, so the largest is the top
    term: one ``max`` finds the symbol and the length.
    """
    top = max(den.terms)
    for sidx, e in enumerate(top):
        if e:
            break
    else:
        return None, [den.terms[top]]
    cs = [0] * (e + 1)
    for mono, c in den.terms.items():
        cs[mono[sidx]] = c
    return sidx, cs


def _slices_by_others(p: LaurentPoly, sidx: int) -> list[_Slice]:
    """Dense views in symbol sidx, one per monomial in the other symbols.

    Each slice is (that monomial, without the sidx entry; its lowest
    exponent of sidx; ascending numerators over ``p.den`` from there).
    Shifting to exponent 0 drops a unit factor, which cannot affect
    divisibility by polynomials with nonzero constant term.
    """
    others = _OTHERS[sidx]
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for mono, c in p.terms.items():
        groups.setdefault(others(mono), {})[mono[sidx]] = c
    out = []
    for key, exps in groups.items():
        lo, hi = min(exps), max(exps)
        cs = [0] * (hi - lo + 1)
        for e, c in exps.items():
            cs[e - lo] = c
        out.append((key, lo, cs))
    return out


def _divexact_slices(
    slices: list[_Slice], g_dense: list[int], sidx: int, den: int
) -> LaurentPoly:
    """Divide the sliced poly (numerators over den) by a primitive integer
    poly in sidx; must be exact.  By Gauss's lemma the quotient keeps the
    numerators' content, so den stays."""
    terms: dict[tuple[int, ...], int] = {}
    for key, lo, cs in slices:
        q = _dense_divexact(cs, g_dense)
        if q is None:
            raise ArithmeticError("inexact division in rational normalization")
        for k, c in enumerate(q):
            if c:
                terms[key[:sidx] + (k + lo,) + key[sidx:]] = c
    return _lp(terms, den)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFun:
    """Quotient of Laurent polynomials with a univariate denominator.

    Canonical (see module docstring) whenever ``num`` or ``den`` is read,
    so ``==`` is plain structural comparison.  A nonzero ``combine`` total
    is held as its numerator over the lcm until the first such read
    normalizes it once, through ``__init__``; ``is_zero`` never normalizes.

    ``_step`` is None or den's step (prev, factor), the exact statement
    den == prev * factor about the very objects a builder multiplied
    (``z_closed``).  Only ``_raw`` sets one; ``combine`` reads it, and
    nothing else does: equality, hash, text, JSON, copying and pickling
    ignore it, and no derived value (a negation, a unit multiple, a sum)
    carries it.
    """

    __slots__ = ("num", "den", "_step")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = _LP_ONE
        n, d = _normalize_ratfun(num, den)
        self.num = n
        self.den = d
        self._step = None

    @classmethod
    def _raw(
        cls,
        num: LaurentPoly,
        den: LaurentPoly,
        step: tuple[LaurentPoly, LaurentPoly] | None = None,
    ) -> RatFun:
        """Wrap already-canonical parts without re-normalizing; ``step`` is
        (prev, factor) with den == prev * factor, if the caller built den so."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        r._step = step
        return r

    @classmethod
    def zero(cls) -> RatFun:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFun:
        return _RF_ONE

    @classmethod
    def term(cls, coeff, **powers: int) -> RatFun:
        return cls._raw(LaurentPoly.term(coeff, **powers), _LP_ONE)

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> RatFun:
        return RatFun._raw(-self.num, self.den)

    @staticmethod
    def sum(terms: Iterable[RatFun]) -> RatFun:
        """The sum of the terms: ``combine`` with every coefficient 1."""
        return RatFun.combine((_LP_ONE, t) for t in terms)

    @staticmethod
    def combine(pairs: Iterable[tuple[LaurentPoly, RatFun]]) -> RatFun:
        """The linear combination of the (c, r) pairs, sum c * r, over one
        common denominator.

        Each c is a LaurentPoly.  A term whose coefficient or value is zero
        is dropped; one term with coefficient 1 is returned as is.  The lcm
        of the distinct denominators and each cofactor lcm / d are read
        from a step when there are two denominators and one steps from the
        other (``_step_lcm``, no division: neighbours in a ``z_closed``
        series), and are otherwise folded by ``_dense_lcm``.  Each
        numerator is multiplied once, by its coefficient times its
        cofactor, into one int map over the lcm.  An empty map is a zero
        sum, returned before any normalization.  Any other sum is returned
        deferred: it holds the numerator over the lcm and is normalized
        once, when ``num`` or ``den`` is first read, so ``is_zero`` of it
        costs no gcd.
        """
        ts = [(r, c) for c, r in pairs if c.terms and r.num.terms]
        if not ts:
            return _RF_ZERO
        if len(ts) == 1 and ts[0][1].is_one():
            return ts[0][0]
        groups: list[list] = []  # [denominator, [(numerator, coefficient)], step]
        for r, c in ts:
            for g in groups:
                if g[0] is r.den or g[0] == r.den:
                    g[1].append((r.num, c))
                    break
            else:
                groups.append([r.den, [(r.num, c)], r._step])
        if len(groups) == 1:
            lcm, products, _ = groups[0]
            return _accumulated(products, lcm)
        lcm, cofactors = _step_lcm(groups) or _dense_lcm(groups)
        products = []
        for (_, members, _), k in zip(groups, cofactors):
            products += members if k is None else [(n, c * k) for n, c in members]
        return _accumulated(products, lcm)

    def __add__(self, other: RatFun) -> RatFun:
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun.sum((self, other))

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __mul__(self, other) -> RatFun:
        if isinstance(other, (int, Fraction)):
            other = RatFun.term(other)
        elif not isinstance(other, RatFun):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _RF_ZERO
        # a unit (one term over 1) keeps the other factor's form canonical
        n1, n2 = self.num, other.num
        if self.den.is_one() and (other.den.is_one() or len(n1.terms) == 1):
            return RatFun._raw(n1 * n2, other.den)
        if other.den.is_one() and len(n2.terms) == 1:
            return RatFun._raw(n1 * n2, self.den)
        return RatFun(n1 * n2, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFun) -> RatFun:
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            raise ValueError("use __truediv__ for inverses")
        res = _RF_ONE
        for _ in range(n):
            res = res * self
        return res

    def scale(self, c) -> RatFun:
        return self * RatFun.term(c)

    def mul_term(self, coeff, **powers: int) -> RatFun:
        """Multiply by coeff * monomial; units keep the form canonical."""
        return self * RatFun.term(coeff, **powers)

    def diff(self, name: str) -> RatFun:
        if self.den.is_one():
            return RatFun._raw(self.num.diff(name), _LP_ONE)
        n, d = self.num, self.den
        return RatFun(n.diff(name) * d - n * d.diff(name), d * d)

    def subs_symbol_power(self, src: str, dst: str, k: int) -> RatFun:
        """Replace src^e by dst^(k*e) throughout; renormalizes."""
        return RatFun(
            self.num.subs_symbol_power(src, dst, k),
            self.den.subs_symbol_power(src, dst, k),
        )

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFun<{self}>"

    def to_json(self) -> dict:
        return {"num": self.num.to_json_terms(), "den": self.den.to_json_terms()}

    @classmethod
    def from_json(cls, data: dict) -> RatFun:
        return cls(
            LaurentPoly.from_json_terms(data["num"]),
            LaurentPoly.from_json_terms(data["den"]),
        )

    def __reduce__(self):
        return RatFun._raw, (self.num, self.den)


def _dense_lcm(groups: list[list]) -> tuple[LaurentPoly, list[LaurentPoly]]:
    """(lcm, cofactors) of the groups' denominators, on their dense
    numerators: the fold big = big * (d / gcd(big, d)), then each cofactor
    lcm / d by one exact division.
    """
    # a canonical denominator is monic, so its numerators are primitive
    sidx, dense = None, []
    for d, *_ in groups:
        s, cs = _dense_view(d)
        dense.append(cs)
        if s is None or s == sidx:
            continue
        if sidx is not None:
            raise MultivariateDenominatorError(
                f"denominators in {SYMBOLS[sidx]} and {SYMBOLS[s]} have no"
                " univariate common denominator"
            )
        sidx = s
    big = dense[0]
    for cs in dense[1:]:
        big = _dense_mul(big, _dense_divexact(cs, _dense_gcd_int(big, cs)))
    lcm = _from_dense(big, sidx, big[-1])
    return lcm, [
        _cofactor(_dense_divexact(big, cs), sidx, d.den, lcm.den)
        for (d, *_), cs in zip(groups, dense)
    ]


def _step_lcm(
    groups: list[list],
) -> tuple[LaurentPoly, list[LaurentPoly | None]] | None:
    """``_dense_lcm`` read from a step, with no division: None unless there
    are two groups and one's denominator steps from the other's, den ==
    prev * factor with prev the other's very object.  That den is the lcm,
    and the factor is the other's cofactor.
    """
    if len(groups) != 2:
        return None
    (d0, _, step0), (d1, _, step1) = groups
    if step1 is not None and step1[0] is d0:
        return d1, [step1[1], None]
    if step0 is not None and step0[0] is d1:
        return d0, [None, step0[1]]
    return None


def _cofactor(q: list[int], sidx: int, d_den: int, lcm_den: int) -> LaurentPoly:
    """lcm / d from q, the quotient of their dense numerators:
    lcm / d = (q / lcm.den) * d.den."""
    return _from_dense([c * d_den for c in q], sidx, lcm_den)


def _sum_of_products(
    products: Iterable[tuple[dict, dict, int]]
) -> dict[tuple[int, ...], int]:
    """sum scale * a * b over the (a, b, scale) triples of int term maps,
    as one new int map with no zero value: the ring's one product loop.

    The longer factor runs in the inner loop.  A term into an empty map is
    a plain copy, with no key rebuilt for a zero shift and no multiply by
    a coefficient 1; any other term is merged in, a key deleted where it
    cancels.  No operand's map is ever returned or written.
    """
    acc: dict[tuple[int, ...], int] = {}
    for a, b, scale in products:
        if len(a) < len(b):
            a, b = b, a
        for shift, c in b.items():
            c *= scale
            s0, s1, s2, s3 = shift
            if not acc:
                if shift == _ZERO_MONO:
                    acc = dict(a) if c == 1 else {m: v * c for m, v in a.items()}
                elif c == 1:
                    acc = {
                        (e0 + s0, e1 + s1, e2 + s2, e3 + s3): v
                        for (e0, e1, e2, e3), v in a.items()
                    }
                else:
                    acc = {
                        (e0 + s0, e1 + s1, e2 + s2, e3 + s3): v * c
                        for (e0, e1, e2, e3), v in a.items()
                    }
                continue
            get = acc.get
            for (e0, e1, e2, e3), v in a.items():
                key = (e0 + s0, e1 + s1, e2 + s2, e3 + s3)
                w = get(key, 0) + v * c
                if w:
                    acc[key] = w
                else:  # v * c != 0, so the key was there
                    del acc[key]
    return acc


def _accumulated(
    products: list[tuple[LaurentPoly, LaurentPoly]], lcm: LaurentPoly
) -> RatFun:
    """sum a * b over the pairs, over lcm: zero, or a ``_DeferredRatFun``
    normalized when its ``num`` or ``den`` is first read.

    Every product is added by ``_sum_of_products`` straight into one int
    map over the lcm of the products' denominators, so an empty map is a
    zero sum.
    """
    den = _int_lcm(*(a.den * b.den for a, b in products))
    acc = _sum_of_products(
        [(a.terms, b.terms, den // (a.den * b.den)) for a, b in products]
    )
    if not acc:
        return _RF_ZERO
    r = _DeferredRatFun.__new__(_DeferredRatFun)
    r._pending = (_lp(acc, den), lcm)
    r._step = None
    return r


def _normalize_ratfun(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero():
        raise ZeroDenominatorError("zero denominator")
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    # the lowest and highest exponent of each symbol in den
    lo = tuple(map(min, zip(*den.terms)))
    hi = tuple(map(max, zip(*den.terms)))
    varying = [name for name, a, b in zip(SYMBOLS, lo, hi) if a != b]
    if len(varying) > 1:
        raise MultivariateDenominatorError(
            f"denominator mixes symbols {varying}: {den}"
        )
    if lo != _ZERO_MONO:
        # the monomial content moves to the numerator as one unit
        num = num * _lp({tuple(-e for e in lo): 1}, 1)
        den = _lp(
            {tuple(e - s for e, s in zip(m, lo)): c for m, c in den.terms.items()},
            den.den,
        )
    sidx, dense = _dense_view(den)
    den_dense = dense
    if sidx is not None:
        slices = _slices_by_others(num, sidx)
        g = _int_primitive(dense)
        for _, _, cs in slices:
            if len(g) == 1:
                break
            g = _dense_gcd_int(g, _int_primitive(cs))
        if len(g) > 1:
            num = _divexact_slices(slices, g, sidx, num.den)
            den_dense = _dense_divexact(dense, g)
            if den_dense is None:
                raise ArithmeticError("gcd does not divide denominator")
    # one scalar, the leading coefficient, makes the denominator monic
    lead = den_dense[-1]
    if lead != den.den:
        num = num * Fraction(den.den, lead)
    if len(den_dense) == 1:
        return num, _LP_ONE
    if den_dense is dense and lead == den.den:
        return num, den  # monic, and nothing cancelled: den is canonical
    if lead < 0:
        den_dense = [-c for c in den_dense]
    return num, _from_dense(den_dense, sidx, abs(lead))


class _DeferredRatFun(RatFun):
    """A nonzero ``RatFun.combine`` total, built by ``_accumulated``, whose
    ``num`` and ``den`` are set when first read.

    Until then it holds the numerator over the lcm in ``_pending``; the
    first read normalizes it once, through ``RatFun.__init__``.
    ``__getattr__`` lives here, not on RatFun: defining it on a class turns
    off CPython's specialized attribute reads for every instance of it.
    """

    __slots__ = ("_pending",)

    def is_zero(self) -> bool:
        return False  # RatFun.combine defers only a nonzero numerator

    def __getattr__(self, name: str):
        # reached only for an unset slot
        if name not in ("num", "den"):
            raise AttributeError(name)
        self.__init__(*self._pending)
        del self._pending  # the un-normalized numerator is not kept
        return getattr(self, name)


_RF_ZERO = RatFun._raw(_LP_ZERO, _LP_ONE)
_RF_ONE = RatFun._raw(_LP_ONE, _LP_ONE)


# ---------------------------------------------------------------------------
# truncated power series in x
# ---------------------------------------------------------------------------

class XSeries:
    """Power series in x, exact through degree ``order``, then truncated."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if coeffs is None:
            cs = (_RF_ZERO,) * (order + 1)
        else:
            cs = tuple(coeffs)
            if len(cs) != order + 1:
                raise OrderMismatchError(
                    f"expected {order + 1} coefficients, got {len(cs)}"
                )
        self.coeffs = cs

    def coeff(self, n: int) -> RatFun:
        if not 0 <= n <= self.order:
            raise OrderMismatchError(f"coefficient {n} beyond order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def truncate(self, order: int) -> XSeries:
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend order {self.order} to {order}"
            )
        return XSeries(order, self.coeffs[: order + 1])

    def _common_order(self, other: XSeries, order: int | None) -> int:
        n = min(self.order, other.order) if order is None else order
        if n > self.order or n > other.order:
            raise OrderMismatchError(
                f"operands truncated below requested order {n}"
            )
        return n

    def add(self, other: XSeries, order: int | None = None) -> XSeries:
        n = self._common_order(other, order)
        return XSeries(
            n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def mul(self, other: XSeries, order: int | None = None) -> XSeries:
        n = self._common_order(other, order)
        out = [_RF_ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return XSeries(n, out)

    def scale(self, f: RatFun) -> XSeries:
        if f.is_zero():
            return XSeries(self.order)
        return XSeries(self.order, [c * f for c in self.coeffs])

    def shift(self, k: int = 1) -> XSeries:
        """Multiply by x^k, truncating at the same order."""
        if k < 0:
            raise ValueError("negative shifts would lose terms")
        cs = (_RF_ZERO,) * k + self.coeffs
        return XSeries(self.order, cs[: self.order + 1])

    def map_coeffs(self, fn) -> XSeries:
        """Apply fn(degree, coefficient) to every coefficient."""
        return XSeries(
            self.order, [fn(n, c) for n, c in enumerate(self.coeffs)]
        )

    def __add__(self, other: XSeries) -> XSeries:
        if not isinstance(other, XSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )
        return self.add(other)

    def __sub__(self, other: XSeries) -> XSeries:
        return self + other.scale(RatFun.term(-1))

    def __mul__(self, other: XSeries) -> XSeries:
        if not isinstance(other, XSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )
        return self.mul(other)

    def __str__(self) -> str:
        parts = [
            f"({c})*x^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"XSeries(order={self.order}, {self})"

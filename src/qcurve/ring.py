"""Exact coefficient tower for the curve computations.

Three layers, all immutable and exact:

  LaurentPoly  multivariate Laurent polynomial with rational coefficients
               in the fixed symbol set ``SYMBOLS``
  RatFun       normalized quotient of Laurent polynomials whose denominator
               involves at most one symbol
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

Multiplying by a unit, one nonzero term c * monomial over denominator 1,
is one rule kept in two places.  ``LaurentPoly.__mul__`` shifts the
exponents of the other factor and scales its coefficients by c (a factor
of exactly 1 returns the other operand).  ``RatFun.__mul__`` keeps the
other factor's denominator and skips normalization: a unit adds no
univariate factor, so the gcd with the denominator stays 1.  Scalar
products, ``scale`` and ``mul_term`` all delegate to these two.

Storage: a LaurentPoly holds int numerators over one positive int
denominator, with no common factor, built through one canonicalizing
constructor.  Products convolve the numerators and multiply the
denominators; the gcd (primitive pseudo-remainder sequence) and exact
division of normalization run on the numerators of dense slices, all in
Python ints.  Fractions appear only at the edges: the public constructor,
``sorted_terms`` (and so text and JSON), ``as_scalar`` and the one scalar
that makes a denominator monic.  Invariant: every divisor handed to
``_dense_divexact`` is a primitive integer polynomial, so by Gauss's lemma
exact division over Q never leaves Z and keeps the numerators' content.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm

SYMBOLS = ("E", "Qh", "lam", "u")
_NSYM = len(SYMBOLS)
_SYM_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_ZERO_MONO = (0,) * _NSYM

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    construction.  Fractions appear only at the edges (the constructor,
    ``sorted_terms`` and ``as_scalar``).
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
    def scalar(cls, c) -> LaurentPoly:
        return cls({_ZERO_MONO: _coerce(c)})

    @classmethod
    def symbol(cls, name: str, power: int = 1) -> LaurentPoly:
        return cls({_mono_key({name: power}): _ONE})

    @classmethod
    def term(cls, coeff, **powers: int) -> LaurentPoly:
        """Single term, e.g. ``LaurentPoly.term(-1, E=2, lam=-1)``."""
        return cls({_mono_key(powers): _coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.den == 1 and self.terms == {_ZERO_MONO: 1}

    def as_scalar(self) -> Fraction | None:
        """The value as a plain Fraction, or None if any symbol appears."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1 and _ZERO_MONO in self.terms:
            return Fraction(self.terms[_ZERO_MONO], self.den)
        return None

    def symbols_used(self) -> tuple[int, ...]:
        """Indices of symbols occurring with nonzero exponent."""
        used = [False] * _NSYM
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
        return tuple(i for i in range(_NSYM) if used[i])

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
            other = LaurentPoly.scalar(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return _LP_ZERO
        if len(self.terms) > len(other.terms):
            self, other = other, self
        a, b = self.terms, other.terms
        den = self.den * other.den
        if len(a) == 1:
            # a unit: shift the exponents of b and scale its numerators
            if self.is_one():
                return other
            ((shift, c),) = a.items()
            items = b.items() if c == 1 else [(m, v * c) for m, v in b.items()]
            s0, s1, s2, s3 = shift
            return _lp(
                {(m[0] + s0, m[1] + s1, m[2] + s2, m[3] + s3): v for m, v in items},
                den,
            )
        bl = list(b.items())
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for (e0, e1, e2, e3), ca in a.items():
            for (f0, f1, f2, f3), cb in bl:
                key = (e0 + f0, e1 + f1, e2 + f2, e3 + f3)
                out[key] = get(key, 0) + ca * cb
        return _lp({m: v for m, v in out.items() if v}, den)

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
_LP_ONE = LaurentPoly({_ZERO_MONO: _ONE})


# ---------------------------------------------------------------------------
# dense univariate helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

# (monomial in the other symbols, lowest exponent, ascending numerators)
_Slice = tuple[tuple[int, ...], int, list[int]]


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
    """Pseudo-remainder of integer dense polys (sign/scale irrelevant)."""
    r = f[:]
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and r:
        top = r[-1]
        shift = len(r) - 1 - dg
        r = [lg * c for c in r]
        for i in range(dg + 1):
            r[shift + i] -= top * g[i]
        r.pop()
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


def _content_gcd(slices: list[_Slice]) -> list[int]:
    """gcd (primitive integer form) of the dense slices."""
    g: list[int] = []
    for _, _, cs in slices:
        gi = _int_primitive(cs)
        g = gi if not g else _dense_gcd_int(g, gi)
        if len(g) == 1:
            break
    return g


def _extract_monomial(p: LaurentPoly) -> tuple[tuple[int, ...], LaurentPoly]:
    """Factor p = mono * core with core having min exponent 0 per symbol."""
    if not p.terms:
        return _ZERO_MONO, p
    mins = [None] * _NSYM
    for mono in p.terms:
        for i, e in enumerate(mono):
            if mins[i] is None or e < mins[i]:
                mins[i] = e
    shift = tuple(m if m else 0 for m in mins)
    if shift == _ZERO_MONO:
        return _ZERO_MONO, p
    core = {tuple(e - s for e, s in zip(m, shift)): c for m, c in p.terms.items()}
    return shift, _lp(core, p.den)


def _slices_by_others(p: LaurentPoly, sidx: int) -> list[_Slice]:
    """Dense views in symbol sidx, one per monomial in the other symbols.

    Each slice is (that monomial, its lowest exponent of sidx, ascending
    numerators over ``p.den`` from there).  Shifting to exponent 0 drops a
    unit factor, which cannot affect divisibility by polynomials with
    nonzero constant term.
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for mono, c in p.terms.items():
        key = mono[:sidx] + (0,) + mono[sidx + 1:]
        groups.setdefault(key, {})[mono[sidx]] = c
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
                terms[key[:sidx] + (k + lo,) + key[sidx + 1:]] = c
    return _lp(terms, den)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFun:
    """Quotient of Laurent polynomials with a univariate denominator.

    Always held in canonical form (see module docstring), so ``==`` is
    plain structural comparison and zero-ness is ``num == 0``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = _LP_ONE
        n, d = _normalize_ratfun(num, den)
        self.num = n
        self.den = d

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> RatFun:
        """Wrap already-canonical parts without re-normalizing."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def zero(cls) -> RatFun:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFun:
        return _RF_ONE

    @classmethod
    def from_scalar(cls, c) -> RatFun:
        return cls.term(c)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> RatFun:
        return cls._raw(p, _LP_ONE)

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

    def equals_cross(self, other: RatFun) -> bool:
        """Equality by cross-multiplication (independent of canonical form)."""
        return (self.num * other.den) == (other.num * self.den)

    def __neg__(self) -> RatFun:
        return RatFun._raw(-self.num, self.den)

    def __add__(self, other: RatFun) -> RatFun:
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RatFun(self.num + other.num, d1)
        s1 = d1.symbols_used()
        s2 = d2.symbols_used()
        if s1 == s2:
            sidx = s1[0]
            ((_, _, c1),) = _slices_by_others(d1, sidx)
            ((_, _, c2),) = _slices_by_others(d2, sidx)
            big, cb, p = (d1, c1, c2) if len(c2) <= len(c1) else (d2, c2, c1)
            # small is monic, so its numerators P are primitive with
            # P[-1] = small.den, and big / small = (B / P) * P[-1] / big.den
            q = _dense_divexact(cb, p)
            if q is not None:
                qp = _from_dense([c * p[-1] for c in q], sidx, big.den)
                if big is d1:
                    return RatFun(self.num + other.num * qp, d1)
                return RatFun(self.num * qp + other.num, d2)
        return RatFun(self.num * d2 + other.num * d1, d1 * d2)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __mul__(self, other) -> RatFun:
        if isinstance(other, (int, Fraction)):
            other = RatFun.from_scalar(other)
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
        return self * RatFun.from_scalar(c)

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


def _normalize_ratfun(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero():
        raise ZeroDenominatorError("zero denominator")
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    mono, core = _extract_monomial(den)
    if mono != _ZERO_MONO:
        num = num.mul_term(1, **{SYMBOLS[i]: -e for i, e in enumerate(mono) if e})
    used = core.symbols_used()
    if len(used) > 1:
        raise MultivariateDenominatorError(
            f"denominator mixes symbols {[SYMBOLS[i] for i in used]}: {den}"
        )
    sidx = used[0] if used else 0  # a constant is one slice in any symbol
    ((_, _, den_dense),) = _slices_by_others(core, sidx)
    if used:
        slices = _slices_by_others(num, sidx)
        content = _content_gcd(slices)
        if len(content) > 1:
            g = _dense_gcd_int(content, _int_primitive(den_dense))
            if len(g) > 1:
                num = _divexact_slices(slices, g, sidx, num.den)
                den_dense = _dense_divexact(den_dense, g)
                if den_dense is None:
                    raise ArithmeticError("gcd does not divide denominator")
    # one scalar, the leading coefficient, makes the denominator monic
    lead = den_dense[-1]
    if lead != core.den:
        num = num * Fraction(core.den, lead)
    if len(den_dense) == 1:
        return num, _LP_ONE
    if lead < 0:
        den_dense = [-c for c in den_dense]
    return num, _from_dense(den_dense, sidx, abs(lead))


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

    @classmethod
    def one(cls, order: int) -> XSeries:
        return cls(order, (_RF_ONE,) + (_RF_ZERO,) * order)

    def coeff(self, n: int) -> RatFun:
        if not 0 <= n <= self.order:
            raise OrderMismatchError(f"coefficient {n} beyond order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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
        return self + other.scale(RatFun.from_scalar(-1))

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

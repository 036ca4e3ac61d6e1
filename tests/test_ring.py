"""Ring kernel: Laurent polynomials, rational normalization, series."""

import json
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcurve import ring
from qcurve.ring import (
    LaurentPoly,
    MultivariateDenominatorError,
    OrderMismatchError,
    RatFun,
    XSeries,
    ZeroDenominatorError,
)

ONE = LaurentPoly.one()


def sym(name, power=1):
    return LaurentPoly.symbol(name, power)


# ---------------------------------------------------------------------------
# Laurent arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    assert (ONE - sym("E", 2)) * (ONE + sym("E", 2)) == ONE - sym("E", 4)


def test_laurent_unit():
    assert sym("lam") * sym("lam", -1) == ONE


def test_additive_inverse():
    a = sym("u") - sym("u", -1)
    b = sym("u", -1) - sym("u")
    assert (a + b).is_zero()


def random_poly(rng, symbols=("E", "u", "Qh", "lam"), terms=3, span=2):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, terms)):
        powers = {s: rng.randint(-span, span) for s in rng.sample(symbols, rng.randint(0, 2))}
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + LaurentPoly.term(coeff, **powers)
    return p


def test_ring_axioms_random():
    rng = random.Random(20260810)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_mul():
    p = ONE + sym("u", 2) - sym("Qh")
    assert p**3 == p * p * p
    assert p**0 == ONE


def test_diff():
    # d/dlam (lam^3 + lam^-1) = 3 lam^2 - lam^-2
    p = sym("lam", 3) + sym("lam", -1)
    assert p.diff("lam") == LaurentPoly.term(3, lam=2) + LaurentPoly.term(-1, lam=-2)
    assert sym("u", 5).diff("lam").is_zero()


def test_subs_symbol_power():
    p = sym("u", 3) - sym("u", -1)
    assert p.subs_symbol_power("u", "E", -1) == sym("E", -3) - sym("E", 1)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_rf_factorization():
    f = RatFun(ONE - sym("u", 4), ONE - sym("u", 2))
    assert f == RatFun(ONE + sym("u", 2))
    assert f.den.is_one()


def test_rf_zero_numerator():
    f = RatFun(LaurentPoly.zero(), ONE - sym("E", 2))
    assert f.is_zero()
    assert f.den.is_one()


def test_rf_mixed_symbol_reduction():
    # derived: verify by cross-multiplication against the unreduced pair
    num = (sym("Qh", 2) - sym("u", 2)) * (ONE - sym("u", 4))
    den = (ONE - sym("u", 2)) * (ONE - sym("u", 4))
    reduced = RatFun(num, den)
    expected = RatFun(sym("Qh", 2) - sym("u", 2), ONE - sym("u", 2))
    assert reduced == expected
    assert reduced.num * den == num * reduced.den  # cross-multiplication
    assert reduced.equals_cross(RatFun._raw(num, den))


def test_rf_scaling_invariance_random():
    rng = random.Random(99)
    for _ in range(30):
        f = random_poly(rng, symbols=("u", "Qh"))
        den = LaurentPoly.zero()
        while den.is_zero():
            den = ONE + sym("u", rng.randint(1, 3)) * rng.randint(-2, 2)
        g = LaurentPoly.zero()
        while g.is_zero():
            g = LaurentPoly.term(rng.randint(1, 3), u=rng.randint(0, 2)) + LaurentPoly.scalar(rng.randint(-2, 2))
        assert RatFun(f * g, den * g) == RatFun(f, den)


def test_rf_canonical_den_monic():
    f = RatFun(sym("E"), ONE - sym("E", 2))
    # denominator stored monic with nonzero constant term
    _, cs = f.den.terms, sorted(f.den.terms.items())
    lead = max(f.den.terms.items(), key=lambda kv: kv[0])
    assert lead[1] == 1
    # value is unchanged
    assert f.equals_cross(RatFun._raw(sym("E"), ONE - sym("E", 2)))


def test_rf_zero_denominator_error():
    with pytest.raises(ZeroDenominatorError):
        RatFun(ONE, LaurentPoly.zero())


def test_rf_multivariate_denominator_error():
    with pytest.raises(MultivariateDenominatorError):
        RatFun(ONE, (ONE - sym("u", 2)) * (ONE - sym("E", 2)))


def test_rf_mixed_denominator_add_error():
    a = RatFun(ONE, ONE - sym("u", 2))
    b = RatFun(ONE, ONE - sym("E", 2))
    with pytest.raises(MultivariateDenominatorError):
        a + b


def test_rf_monomial_denominator_absorbed():
    # den = 6*lam^2 is a unit times a scalar: absorbed into the numerator
    f = RatFun(sym("E", 2), LaurentPoly.term(6, lam=2))
    assert f.den.is_one()
    assert f == RatFun.term(Fraction(1, 6), E=2, lam=-2)


def test_rf_arithmetic_against_fractions():
    # embed plain rationals and compare against Fraction arithmetic
    rng = random.Random(5)
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        fa, fb = RatFun.from_scalar(a), RatFun.from_scalar(b)
        assert fa + fb == RatFun.from_scalar(a + b)
        assert fa * fb == RatFun.from_scalar(a * b)
        if b:
            assert fa / fb == RatFun.from_scalar(a / b)


def test_rf_division_and_pow():
    f = RatFun(ONE - sym("u", 4), ONE - sym("u", 2))  # 1 + u^2
    g = RatFun(ONE + sym("u", 2))
    assert f / g == RatFun.one()
    assert g**2 == g * g


def test_rf_add_paths():
    # same denominator: numerators combine and re-reduce
    d = ONE - sym("u", 2)
    a = RatFun(ONE, d)
    b = RatFun(-sym("u", 2), d)
    assert a + b == RatFun.one()
    # one denominator divides the other
    c = RatFun(ONE, (ONE - sym("u", 2)) * (ONE - sym("u", 4)))
    total = a + c
    expect = RatFun(
        (ONE - sym("u", 4)) + ONE, (ONE - sym("u", 2)) * (ONE - sym("u", 4))
    )
    assert total == expect
    # coprime denominators in the same symbol
    e = RatFun(ONE, ONE - sym("u")) + RatFun(ONE, ONE + sym("u"))
    assert e == RatFun(LaurentPoly.scalar(2), ONE - sym("u", 2))
    # polynomial plus proper fraction
    assert RatFun(sym("u", 2)) + RatFun(ONE, ONE - sym("u", 2)) == RatFun(
        sym("u", 2) * (ONE - sym("u", 2)) + ONE, ONE - sym("u", 2)
    )


def test_rf_laurent_numerator_slices():
    # numerator slices with negative exponents still reduce correctly
    num = LaurentPoly.term(1, u=-3) * (ONE - sym("u", 2))
    f = RatFun(num, ONE - sym("u", 4))
    assert f == RatFun(LaurentPoly.term(1, u=-3), ONE + sym("u", 2))
    assert f.equals_cross(RatFun._raw(num, ONE - sym("u", 4)))


def test_rf_laurent_denominator():
    # Laurent denominator: unit monomial content moves to the numerator
    f = RatFun(ONE, sym("u", -2) - sym("u", 2))
    g = RatFun(-sym("u", 2), sym("u", 4) - ONE)
    assert f == g


# ---------------------------------------------------------------------------
# univariate gcd (integer kernel)
# ---------------------------------------------------------------------------

def _to_ints(cs):
    """(cs * d as ints, d) for d the lcm of the coefficient denominators."""
    d = lcm(*(Fraction(c).denominator for c in cs))
    return [int(c * d) for c in cs], d


def _kernel_gcd_monic(a, b):
    """Monic gcd of two ascending integral lists through the int kernel."""
    ia, ib = _to_ints(a)[0], _to_ints(b)[0]
    assert ia == a and ib == b
    g = ring._dense_gcd_int(ring._int_primitive(ia), ring._int_primitive(ib))
    return [Fraction(c, g[-1]) for c in g]


def test_gcd_basic():
    # gcd(1 - u^2, 1 - u^4): primitive, with a positive leading coefficient
    g = ring._dense_gcd_int([1, 0, -1], [1, 0, 0, 0, -1])
    assert g == [-1, 0, 1]


def _euclid_fraction_oracle(a, b):
    """Plain-Fraction Euclidean algorithm on ascending dense lists."""

    def rem(f, g):
        f = f[:]
        while len(f) >= len(g) and any(f):
            if f[-1] == 0:
                f.pop()
                continue
            c = f[-1] / g[-1]
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] -= c * gi
            f.pop()
        while f and f[-1] == 0:
            f.pop()
        return f

    while b:
        a, b = b, rem(a, b)
    lead = a[-1]
    return [c / lead for c in a]


def test_gcd_euclid_by_hand():
    # independent oracle: dense Euclid over Fraction
    a = [Fraction(1), 0, 0, 0, 0, 0, Fraction(-1)]  # 1 - u^6
    b = [Fraction(1), 0, 0, 0, Fraction(-1)]  # 1 - u^4
    expect = _euclid_fraction_oracle(a, b)
    assert expect == [Fraction(-1), 0, Fraction(1)]  # u^2 - 1 monic
    assert _kernel_gcd_monic(a, b) == expect


def test_gcd_random_against_oracle():
    rng = random.Random(2718)
    for _ in range(25):
        da, db = rng.randint(0, 5), rng.randint(0, 5)
        a = [Fraction(rng.randint(-3, 3)) for _ in range(da + 1)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(db + 1)]
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if not a or not b:
            continue
        expect = _euclid_fraction_oracle(a[:], b[:])
        assert _kernel_gcd_monic(a, b) == expect, (a, b)


def test_gcd_laurent_inputs():
    # unit monomial content is irrelevant to the gcd that RatFun cancels
    a = LaurentPoly.term(1, u=-2) * (ONE - sym("u", 4))
    b = LaurentPoly.term(3, u=5) * (ONE - sym("u", 2))
    want = LaurentPoly.term(Fraction(1, 3), u=-7) * (ONE + sym("u", 2))
    assert RatFun(a, b) == RatFun.from_poly(want)


# ---------------------------------------------------------------------------
# integer division kernel
# ---------------------------------------------------------------------------

def _dense_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _from_coeffs(cs, name="u"):
    return sum(
        (LaurentPoly.term(c, **{name: i}) for i, c in enumerate(cs)),
        LaurentPoly.zero(),
    )


small_fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rational_polys = st.lists(small_fracs, min_size=1, max_size=6).filter(
    lambda cs: cs[-1] != 0
)


@st.composite
def primitive_int_polys(draw, min_degree=1):
    cs = draw(st.lists(st.integers(-6, 6), min_size=min_degree + 1, max_size=4))
    cs[-1] = cs[-1] or draw(st.sampled_from([-3, -2, 2, 3]))
    g = 0
    for c in cs:
        g = gcd(g, c)
    return [c // g for c in cs]


@settings(deadline=None)
@given(rational_polys, primitive_int_polys())
@example([Fraction(1, 2), Fraction(-5, 3)], [3, 2])  # 2u + 3
@example([Fraction(7), Fraction(0), Fraction(1, 4)], [2, 0, -3])  # -3u^2 + 2
def test_divexact_recovers_quotient(f, g):
    ints, d = _to_ints(f)
    prod = [int(c * d) for c in _dense_mul(f, g)]
    assert ring._dense_divexact(prod, g) == ints


@settings(deadline=None)
@given(rational_polys, primitive_int_polys(), st.data())
def test_divexact_rejects_remainder(f, g, data):
    r = data.draw(
        st.lists(small_fracs, min_size=len(g) - 1, max_size=len(g) - 1).filter(any)
    )
    prod = _dense_mul(f, g)
    for i, c in enumerate(r):
        prod[i] += c
    assert ring._dense_divexact(_to_ints(prod)[0], g) is None


def _fraction_divmod(f, g):
    """Reference long division over Fraction on ascending dense lists."""
    r = f[:]
    q = [Fraction(0)] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(g) - 1] / g[-1]
        for i, gi in enumerate(g):
            r[k + i] -= q[k] * gi
    return q, r


@settings(deadline=None)
@given(rational_polys, primitive_int_polys())
@example([Fraction(0), Fraction(1)], [1, 2])  # u / (2u + 1)
def test_divexact_agrees_with_fraction_division(f, g):
    # arbitrary f: the integer kernel is exact exactly when Q-division is
    ints, d = _to_ints(f)
    got = ring._dense_divexact(ints, g)
    if len(f) < len(g):
        assert got is None
        return
    q, r = _fraction_divmod(f, g)
    assert got == (None if any(r) else [c * d for c in q])


@settings(deadline=None)
@given(
    rational_polys,
    primitive_int_polys(min_degree=0),
    primitive_int_polys(),
    st.integers(-3, 3),
)
@example([Fraction(1, 2), Fraction(-1)], [1, 1], [2, 0, -3], 1)  # c = -3u^2 + 2
def test_rf_common_factor_cancels(a, b, c, qh):
    # c is a non-monic integer factor in u; a carries a Qh slice as well
    num = _from_coeffs(a) * (ONE + LaurentPoly.term(1, Qh=2, u=qh))
    den, common = _from_coeffs(b), _from_coeffs(c)
    assert RatFun(num * common, den * common) == RatFun(num, den)


def test_rf_add_shared_denominator_non_integer(monkeypatch):
    # canonical denominators u + 1/2 and (u + 1/2)(u + 1) are not integer
    d1 = sym("u") + LaurentPoly.scalar(Fraction(1, 2))
    d2 = d1 * (sym("u") + ONE)
    a = RatFun(sym("Qh", 2), d1)
    b = RatFun(sym("u") - ONE, d2)
    assert a.den == d1 and b.den == d2
    seen = []
    normalize = ring._normalize_ratfun
    monkeypatch.setattr(
        ring, "_normalize_ratfun", lambda n, d: seen.append(d) or normalize(n, d)
    )
    for total in (a + b, b + a):
        assert seen.pop() == d2  # no product of the denominators was formed
        assert total.equals_cross(RatFun._raw(a.num * d2 + b.num * d1, d1 * d2))


# ---------------------------------------------------------------------------
# integer product kernel
# ---------------------------------------------------------------------------

def _fraction_convolution(a, b):
    """Reference product over Fraction, term by term."""
    out = {}
    for ma, ca in a.sorted_terms():
        for mb, cb in b.sorted_terms():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


monos = st.tuples(*[st.integers(-2, 2)] * len(ring.SYMBOLS))
laurent_polys = st.dictionaries(monos, small_fracs, max_size=5).map(LaurentPoly)
U, HALF, THIRD = sym("u"), Fraction(1, 2), Fraction(1, 3)


@settings(deadline=None)
@given(laurent_polys, laurent_polys)
@example(ONE + U, ONE - U)
@example(U * HALF - LaurentPoly.scalar(THIRD), U * HALF + LaurentPoly.scalar(THIRD))
@example(U * HALF + sym("E") * THIRD, LaurentPoly.term(Fraction(1, 5), Qh=-1) - sym("lam"))
# one-term factors: a rational coefficient, negative exponents, exactly 1
@example(LaurentPoly.term(Fraction(-3, 4), E=1, u=2), U * HALF + sym("Qh") * THIRD)
@example(ONE - sym("u", -3) * THIRD, LaurentPoly.term(Fraction(2, 5), Qh=-2, lam=-1))
@example(ONE, U * HALF - sym("lam", -1))
def test_product_matches_fraction_convolution(a, b):
    p = a * b
    assert dict(p.sorted_terms()) == _fraction_convolution(a, b)
    assert all(type(c) is Fraction and c for _, c in p.sorted_terms())


def test_rf_unit_denominator_keeps_numerator():
    p = sym("u", 2) - LaurentPoly.term(THIRD, Qh=1)
    assert RatFun(p, ONE).num is p


# ---------------------------------------------------------------------------
# canonical storage: int numerators over one denominator
# ---------------------------------------------------------------------------

def _fields(p):
    return p.terms, p.den


names = st.sampled_from(ring.SYMBOLS)


@settings(deadline=None)
@given(laurent_polys, laurent_polys, names, names, st.integers(-2, 2))
@example(U * HALF + ONE * HALF, U * HALF - ONE * HALF, "u", "E", 1)  # sum 1*u
def test_results_are_canonical_and_round_trip(a, b, src, dst, k):
    for p in (
        a, b, a + b, a - b, a * b, a.diff(src),
        a.subs_symbol_power(src, dst, k), a.truncate_symbol(src, k),
        a.coefficient_of(src, k),
    ):
        assert p.den > 0
        assert all(type(c) is int and c for c in p.terms.values())
        assert gcd(p.den, *p.terms.values()) == 1
        text = json.dumps(p.to_json_terms())
        assert _fields(LaurentPoly.from_json_terms(json.loads(text))) == _fields(p)


@settings(deadline=None)
@given(
    st.dictionaries(monos, small_fracs, max_size=5),
    st.integers(-12, 12).filter(bool),
)
@example({(0, 0, 0, 1): HALF, (0, 0, 0, 0): THIRD}, 6)
def test_rescaled_input_gives_the_same_fields(terms, k):
    big, want = LaurentPoly({m: c * k for m, c in terms.items()}), LaurentPoly(terms)
    assert _fields(big * Fraction(1, k)) == _fields(want)
    # values that differ by a scalar factor compare unequal
    assert (big == want) == (k == 1 or want.is_zero())


# ---------------------------------------------------------------------------
# evaluation oracle (independent of the canonical form)
# ---------------------------------------------------------------------------

def _ev(x, point):
    """Value of a LaurentPoly or RatFun at point: symbol -> nonzero Fraction."""
    if isinstance(x, RatFun):
        return _ev(x.num, point) / _ev(x.den, point)
    total = Fraction(0)
    for mono, c in x.sorted_terms():
        for name, e in zip(ring.SYMBOLS, mono):
            c *= point[name] ** e
        total += c
    return total


nonzero_fracs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
points = st.fixed_dictionaries({name: nonzero_fracs for name in ring.SYMBOLS})


def _u_poly(draw):
    """A nonzero Laurent polynomial in u alone."""
    return _from_coeffs(draw(rational_polys)).mul_term(1, u=draw(st.integers(-2, 2)))


@st.composite
def ratfun_pairs(draw, u_only=False):
    """(num, den), den in u alone; num too when u_only (a valid divisor)."""
    num = _u_poly(draw) if u_only else draw(laurent_polys)
    return num, _u_poly(draw)


@settings(deadline=None)
@given(laurent_polys, laurent_polys, points)
def test_evaluation_respects_laurent_arithmetic(a, b, pt):
    assert _ev(a * b, pt) == _ev(a, pt) * _ev(b, pt)
    assert _ev(a + b, pt) == _ev(a, pt) + _ev(b, pt)
    assert _ev(a - b, pt) == _ev(a, pt) - _ev(b, pt)


# a unit: one nonzero term c * monomial over denominator 1
unit_powers = st.fixed_dictionaries({name: st.integers(-3, 3) for name in ring.SYMBOLS})
units = st.tuples(nonzero_fracs, unit_powers)


@settings(deadline=None)
@given(ratfun_pairs(), ratfun_pairs(), ratfun_pairs(u_only=True), units, points)
def test_evaluation_respects_ratfun_arithmetic(fa, fb, fc, unit, pt):
    assume(_ev(fa[1], pt) and _ev(fb[1], pt) and _ev(fc[0], pt) and _ev(fc[1], pt))
    f, g, h = RatFun(*fa), RatFun(*fb), RatFun(*fc)
    w = RatFun.term(unit[0], **unit[1])
    ef, eg, eh = _ev(f, pt), _ev(g, pt), _ev(h, pt)
    # normalization keeps the value of the unreduced quotient
    assert ef == _ev(fa[0], pt) / _ev(fa[1], pt)
    assert _ev(f * g, pt) == ef * eg
    assert _ev(w * f, pt) == _ev(w, pt) * ef
    assert _ev(f + g, pt) == ef + eg
    assert _ev(f - g, pt) == ef - eg
    assert _ev(f / h, pt) == ef / eh


@settings(deadline=None)
@given(units, ratfun_pairs())
@example((Fraction(1), dict.fromkeys(ring.SYMBOLS, 0)), (U * HALF, ONE - U))
def test_unit_product_keeps_the_other_denominator(unit, fa):
    c, powers = unit
    w, f = RatFun.term(c, **powers), RatFun(*fa)
    # the normalizing constructor gives the same canonical form
    want = RatFun(w.num * f.num, f.den)
    assert w * f == f * w == want
    assert (w * f).den == f.den
    assert f.mul_term(c, **powers) == want
    assert f.num.mul_term(c, **powers) == want.num
    assert f.scale(c) == RatFun(f.num * LaurentPoly.scalar(c), f.den) == f * c


def test_unit_zero_and_float_coefficients():
    p = ONE + U
    f = RatFun(p, ONE - sym("u", 3))
    for zero in (f.mul_term(0, u=1), f.scale(0), f * 0, 0 * f):
        assert zero.is_zero() and zero == RatFun.zero()
    for zero in (p.mul_term(0, u=1), p * 0, p * Fraction(0)):
        assert zero.is_zero()
    for bad in (
        lambda: f.scale(1.5),
        lambda: f.mul_term(0.5, u=1),
        lambda: f * 1.5,
        lambda: p.mul_term(2.0, u=1),
        lambda: p * 1.5,
    ):
        with pytest.raises(TypeError):
            bad()


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_xseries_product_truncates():
    one_plus = XSeries(2, [RatFun.one(), RatFun.one(), RatFun.zero()])
    one_minus = XSeries(2, [RatFun.one(), RatFun.from_scalar(-1), RatFun.zero()])
    prod = one_plus * one_minus
    assert prod.coeff(0).is_one()
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2) == RatFun.from_scalar(-1)


def test_xseries_scale_zero():
    s = XSeries(3, [RatFun.one()] * 4)
    assert s.scale(RatFun.zero()).is_zero()


def test_xseries_exponential_identity():
    # independent oracle: direct convolution of the coefficient lists
    N = 6
    exp_pos = [Fraction(1, factorial(n)) for n in range(N + 1)]
    exp_neg = [Fraction((-1) ** n, factorial(n)) for n in range(N + 1)]
    conv = [
        sum(exp_pos[i] * exp_neg[n - i] for i in range(n + 1))
        for n in range(N + 1)
    ]
    assert conv == [1, 0, 0, 0, 0, 0, 0]
    a = XSeries(N, [RatFun.from_scalar(c) for c in exp_pos])
    b = XSeries(N, [RatFun.from_scalar(c) for c in exp_neg])
    prod = a * b
    assert prod == XSeries(N, [RatFun.from_scalar(c) for c in conv])
    assert prod == XSeries.one(N)


def test_xseries_agrees_with_polynomial_convolution():
    rng = random.Random(31)
    N = 8
    for _ in range(20):
        pa = [Fraction(rng.randint(-3, 3)) for _ in range(N // 2 + 1)]
        pb = [Fraction(rng.randint(-3, 3)) for _ in range(N // 2 + 1)]
        conv = [Fraction(0)] * (N + 1)
        for i, ca in enumerate(pa):
            for j, cb in enumerate(pb):
                conv[i + j] += ca * cb
        a = XSeries(N, [RatFun.from_scalar(c) for c in pa] + [RatFun.zero()] * (N - N // 2))
        b = XSeries(N, [RatFun.from_scalar(c) for c in pb] + [RatFun.zero()] * (N - N // 2))
        assert a * b == XSeries(N, [RatFun.from_scalar(c) for c in conv])


def test_xseries_order_discipline():
    a = XSeries(3)
    b = XSeries(5)
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        a.add(b, order=5)
    assert a.add(b).order == 3
    assert b.truncate(2).order == 2
    with pytest.raises(OrderMismatchError):
        a.truncate(9)
    with pytest.raises(OrderMismatchError):
        a.coeff(4)


def test_xseries_shift():
    s = XSeries(3, [RatFun.from_scalar(k) for k in (1, 2, 3, 4)])
    t = s.shift(1)
    assert t.coeff(0).is_zero()
    assert t.coeff(1) == RatFun.from_scalar(1)
    assert t.coeff(3) == RatFun.from_scalar(3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_canonical_text():
    t = LaurentPoly.term(Fraction(-1, 2), E=2, lam=-1)
    assert str(t) == "(-1/2)*E^2*lam^-1"
    assert str(ONE - sym("E", 2)) == "1 + (-1)*E^2"
    assert str(LaurentPoly.zero()) == "0"


def test_text_term_order_is_total_degree_then_lex():
    p = sym("u", 3) + sym("E") * sym("u") + LaurentPoly.scalar(5)
    assert str(p) == "5 + (1)*E^1*u^1 + (1)*u^3"


def test_json_rendering():
    f = RatFun(sym("E"), ONE - sym("E", 2))
    data = f.to_json()
    assert set(data) == {"num", "den"}
    assert all(set(t) == {"coeff", "mono"} for t in data["num"] + data["den"])
    # denominator monic: last (leading) coefficient 1
    assert data["den"][-1]["coeff"] == "1"


def test_json_round_trip():
    rng = random.Random(77)
    for _ in range(15):
        num = random_poly(rng, symbols=("u", "Qh"))
        f = RatFun(num, ONE - sym("u", 2))
        rebuilt = RatFun.from_json(json.loads(json.dumps(f.to_json())))
        assert rebuilt == f


def test_ratfun_text():
    f = RatFun(sym("E"), ONE - sym("E", 2))
    assert str(f) == "((-1)*E^1) / (-1 + (1)*E^2)"
    assert str(RatFun.one()) == "1"

"""Ring kernel: Laurent polynomials, rational normalization, series."""

import contextlib
import copy
import functools
import json
import operator
import pickle
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


def test_rf_scaling_invariance_random():
    rng = random.Random(99)
    for _ in range(30):
        f = random_poly(rng, symbols=("u", "Qh"))
        den = LaurentPoly.zero()
        while den.is_zero():
            den = ONE + sym("u", rng.randint(1, 3)) * rng.randint(-2, 2)
        g = LaurentPoly.zero()
        while g.is_zero():
            g = LaurentPoly.term(rng.randint(1, 3), u=rng.randint(0, 2)) + LaurentPoly.term(rng.randint(-2, 2))
        assert RatFun(f * g, den * g) == RatFun(f, den)


def test_rf_canonical_den_monic():
    f = RatFun(sym("E"), ONE - sym("E", 2))
    # denominator stored monic with nonzero constant term
    _, cs = f.den.terms, sorted(f.den.terms.items())
    lead = max(f.den.terms.items(), key=lambda kv: kv[0])
    assert lead[1] == 1
    # value is unchanged
    assert f.num * (ONE - sym("E", 2)) == sym("E") * f.den


def test_rf_zero_denominator_error():
    with pytest.raises(ZeroDenominatorError):
        RatFun(ONE, LaurentPoly.zero())


def test_rf_multivariate_denominator_error():
    mixed = (ONE - sym("u", 2)) * (ONE - sym("E", 2))
    # monomial content in a third symbol neither hides nor joins the mix
    for content in (ONE, sym("Qh", 3), sym("lam", -2) * sym("Qh")):
        with pytest.raises(
            MultivariateDenominatorError, match=r"mixes symbols \['E', 'u'\]: "
        ):
            RatFun(ONE, mixed * content)


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
        fa, fb = RatFun.term(a), RatFun.term(b)
        assert fa + fb == RatFun.term(a + b)
        assert fa * fb == RatFun.term(a * b)
        if b:
            assert fa / fb == RatFun.term(a / b)


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
    assert e == RatFun(LaurentPoly.term(2), ONE - sym("u", 2))
    # polynomial plus proper fraction
    assert RatFun(sym("u", 2)) + RatFun(ONE, ONE - sym("u", 2)) == RatFun(
        sym("u", 2) * (ONE - sym("u", 2)) + ONE, ONE - sym("u", 2)
    )


def test_rf_laurent_numerator_slices():
    # numerator slices with negative exponents still reduce correctly
    num = LaurentPoly.term(1, u=-3) * (ONE - sym("u", 2))
    f = RatFun(num, ONE - sym("u", 4))
    assert f == RatFun(LaurentPoly.term(1, u=-3), ONE + sym("u", 2))
    assert f.num * (ONE - sym("u", 4)) == num * f.den


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
    assert RatFun(a, b) == RatFun(want)


# ---------------------------------------------------------------------------
# normalization: one gcd chain, from the denominator through each slice
# ---------------------------------------------------------------------------

def _qh_slices(*slices):
    """sum_k Qh^k * slices[k] for ascending int lists in u, its terms
    stored slice by slice, so that normalization reads slices[0] first."""
    return LaurentPoly({
        (0, k, 0, e): Fraction(c)
        for k, cs in enumerate(slices) for e, c in enumerate(cs) if c
    })


def _assert_canonical(r):
    """The denominator is monic in u with no negative exponent and a
    nonzero constant term, and no factor of it divides every numerator
    slice in u, by the plain-Fraction Euclid oracle."""
    assert {i for m in r.den.terms for i, e in enumerate(m) if e} <= {3}
    assert min(m[3] for m in r.den.terms) == 0
    den = [Fraction(r.den.terms.get((0, 0, 0, e), 0), r.den.den)
           for e in range(max(m[3] for m in r.den.terms) + 1)]
    assert den[-1] == 1
    g, slices = den, {}
    for (e, qh, lam, k), c in r.num.terms.items():
        slices.setdefault((e, qh, lam), {})[k] = c
    for exps in slices.values():
        lo, hi = min(exps), max(exps)
        g = _euclid_fraction_oracle(g, [Fraction(exps.get(k, 0)) for k in range(lo, hi + 1)])
    assert g == [1]


@pytest.mark.parametrize("slices, den, gcds, degree", [
    # the slices share 1 + u, which the denominator (1 - u)(1 + u^2) lacks;
    # each slice shares another factor with it
    (([1, 0, -1], [1, 1, 1, 1]), [1, -1, 1, -1], 2, 3),
    # the denominator (1 - u)(1 + u) shares 1 - u with the first slice alone
    (([1, -1], [1, 0, 1]), [1, 0, -1], 2, 2),
    # the first slice, 1 + u^2, is coprime to the denominator: one gcd
    (([1, 0, 1], [1, -1]), [1, 0, -1], 1, 2),
    # every slice and the denominator share 1 + u, which cancels
    (([2, 3, 1], [3, 3]), [1, 1, 0, -1, -1], 2, 3),
])
def test_the_gcd_chain_starts_at_the_denominator(slices, den, gcds, degree):
    num, den = _qh_slices(*slices), _qh_slices(den)
    with _counting("_dense_gcd_int") as calls:
        got = RatFun(num, den)
    assert len(calls) == gcds
    _assert_canonical(got)
    assert max(m[3] for m in got.den.terms) == degree
    parts = [RatFun(_qh_slices(*[[]] * k, cs), den) for k, cs in enumerate(slices)]
    assert got == _over_product(parts)


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
    d1 = sym("u") + LaurentPoly.term(Fraction(1, 2))
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
        total.den  # a total is normalized when first read
        assert seen.pop() == d2  # no product of the denominators was formed
        assert total.num * (d1 * d2) == (a.num * d2 + b.num * d1) * total.den


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
@example(U * HALF - LaurentPoly.term(THIRD), U * HALF + LaurentPoly.term(THIRD))
@example(U * HALF + sym("E") * THIRD, LaurentPoly.term(Fraction(1, 5), Qh=-1) - sym("lam"))
# one-term factors: a rational coefficient, negative exponents, exactly 1
@example(LaurentPoly.term(Fraction(-3, 4), E=1, u=2), U * HALF + sym("Qh") * THIRD)
@example(ONE - sym("u", -3) * THIRD, LaurentPoly.term(Fraction(2, 5), Qh=-2, lam=-1))
@example(ONE, U * HALF - sym("lam", -1))
# three-term factors whose middle keys cancel: 1 + u^2 + u^4
@example(ONE + U + U * U, ONE - U + U * U)
def test_product_matches_fraction_convolution(a, b):
    before = [(dict(x.terms), x.den) for x in (a, b)]
    p = a * b
    assert dict(p.sorted_terms()) == _fraction_convolution(a, b)
    assert all(type(c) is Fraction and c for _, c in p.sorted_terms())
    # the product merges in place into a map seeded from an operand
    assert [(x.terms, x.den) for x in (a, b)] == before


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
# built canonical: int terms and binomial products
# ---------------------------------------------------------------------------

def _same_value_object(got, want):
    assert _fields(got) == _fields(want)
    assert hash(got) == hash(want)
    assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("c", [1, -1, 6, -12, 0, 2**64 + 3, -(2**70)])
@pytest.mark.parametrize("powers", [{}, {"u": 3}, {"E": -2, "lam": 1, "Qh": 5}])
def test_int_term_is_the_fraction_construction(c, powers):
    want = LaurentPoly({ring._mono_key(powers): Fraction(c)})
    _same_value_object(LaurentPoly.term(c, **powers), want)


@pytest.mark.parametrize("name", ring.SYMBOLS)
@pytest.mark.parametrize("power", [-3, 0, 1, 4])
def test_symbol_is_the_fraction_construction(name, power):
    want = LaurentPoly({ring._mono_key({name: power}): Fraction(1)})
    _same_value_object(LaurentPoly.symbol(name, power), want)


def test_bool_and_fraction_terms_keep_the_public_constructor():
    _same_value_object(LaurentPoly.term(True, u=1), sym("u"))
    _same_value_object(LaurentPoly.term(False, u=1), LaurentPoly.zero())
    _same_value_object(LaurentPoly.term(Fraction(3)), LaurentPoly.term(3))
    half = LaurentPoly.term(Fraction(-3, 2), E=1)
    assert _fields(half) == ({(1, 0, 0, 0): -3}, 2)


nonzero_small_fracs = small_fracs.filter(bool)
binomials = st.dictionaries(
    monos, nonzero_small_fracs, min_size=2, max_size=2
).map(LaurentPoly)


@settings(deadline=None)
@given(binomials, st.one_of(binomials, laurent_polys))
@example(ONE - U, ONE + U)  # the u terms cancel
@example(ONE - U, ONE + U + sym("u", 2))  # two keys cancel: 1 - u^3
@example(U * HALF - sym("E", -1) * THIRD, LaurentPoly.zero())
@example(sym("lam", -2) - LaurentPoly.term(THIRD, Qh=-1), U * HALF + sym("Qh", -1))
@example((ONE + U) * HALF, (ONE - U) * Fraction(2, 3))  # (2 - 2u^2)/6 = (1 - u^2)/3
def test_binomial_product_is_the_fraction_convolution(a, b):
    want = LaurentPoly(_fraction_convolution(a, b))
    _same_value_object(a * b, want)
    _same_value_object(b * a, want)


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
    assert f.scale(c) == RatFun(f.num * LaurentPoly.term(c), f.den) == f * c


@settings(deadline=None)
@given(laurent_polys, rational_polys, names, units)
# E^3 (u^2 - 1): the content is in a symbol the denominator does not vary in
@example(ONE + U, [-1, 0, 1], "u", (Fraction(1), {"E": 3}))
def test_monomial_content_of_a_denominator_moves_to_the_numerator(n, cs, name, unit):
    # m * d, m a unit in all four symbols and d canonical in one symbol
    c, powers = unit
    d = RatFun(ONE, _from_coeffs(cs, name)).den
    m = LaurentPoly.term(c, **powers)
    m_inv = LaurentPoly.term(1 / c, **{s: -e for s, e in powers.items()})
    got, want = RatFun(n, m * d), RatFun(n * m_inv, d)
    assert _fields(got.num) == _fields(want.num)
    assert _fields(got.den) == _fields(want.den)


@settings(deadline=None)
@given(laurent_polys, rational_polys, names)
@example(sym("E") + ONE, [Fraction(-1), 0, Fraction(1)], "E")  # E + 1 over E^2 - 1
def test_a_canonical_denominator_that_nothing_cancels_is_kept(n, cs, name):
    d = RatFun(ONE, _from_coeffs(cs, name)).den
    assume(not n.is_zero() and not d.is_one() and RatFun(n, d).den == d)
    fields = _fields(d)
    with _counting("_from_dense") as rebuilt:
        got = RatFun(n, d)
    assert got.den is d and _fields(d) == fields
    assert rebuilt == []


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
# one sum over the lcm of the denominators
# ---------------------------------------------------------------------------

# products of these give equal, nested, coprime, partly shared and
# non-integer canonical denominators (u + 1/2)
_DEN_FACTORS = (ONE - U, ONE + U, ONE + U + sym("u", 2), ONE + sym("u", 2), U + ONE * HALF)


@st.composite
def summands(draw):
    """A RatFun with a Laurent numerator (possibly zero) over a product of
    up to three of the factors (possibly none, a constant denominator)."""
    den = ONE
    for i in draw(st.lists(st.integers(0, len(_DEN_FACTORS) - 1), max_size=3)):
        den = den * _DEN_FACTORS[i]
    return RatFun(draw(laurent_polys), den)


def _fold(xs):
    return functools.reduce(operator.add, xs, RatFun.zero())


def _over_product(xs):
    """Reference: one quotient over the product of the denominators."""
    num, den = LaurentPoly.zero(), ONE
    for x in xs:
        num, den = num * x.den + x.num * den, den * x.den
    return RatFun(num, den)


_A, _B = RatFun(ONE, ONE - U), RatFun(U, (ONE - U) * (ONE + U))


@settings(deadline=None)
@given(st.lists(summands(), max_size=6))
# nested, constant, zero and coprime denominators
@example([_A, _B, RatFun(sym("E")), RatFun.zero(), RatFun(sym("u", -1), ONE + U * U)])
# zero over the lcm, which grows by a gcd
@example([_A, RatFun(ONE, ONE + U), RatFun(LaurentPoly.term(-2), (ONE - U) * (ONE + U))])
# a non-integer denominator, a coprime one and one the lcm divides
@example([RatFun(ONE, U + ONE * HALF), _B, _A])
def test_sum_is_the_pairwise_fold(xs):
    total, fold = RatFun.sum(xs), _fold(xs)
    assert _fields(total.num) == _fields(fold.num)
    assert _fields(total.den) == _fields(fold.den)
    assert str(total) == str(fold)
    assert total == _over_product(xs)
    assert RatFun.sum(iter(xs)) == total


@settings(deadline=None)
@given(st.lists(summands(), max_size=6), st.data())
def test_sum_text_is_deterministic(xs, data):
    shuffled = data.draw(st.permutations(xs))
    assert str(RatFun.sum(xs)) == str(RatFun.sum(shuffled)) == str(_fold(xs))


def test_sum_rejects_mixed_denominators():
    # also with monomial content in a third symbol, moved to the numerator
    for content in (ONE, sym("Qh", 3), sym("lam", -2)):
        a = RatFun(ONE, (ONE - sym("u", 2)) * content)
        b = RatFun(ONE, ONE - sym("E", 2))
        with pytest.raises(MultivariateDenominatorError):
            a + b
        for xs in ([a, b], [b, RatFun.one(), a], [a, _A, b, -b]):
            with pytest.raises(MultivariateDenominatorError):
                RatFun.sum(xs)


def test_zero_sum_over_nested_denominators_runs_no_normalization():
    # 2/(1 - u^2) = 1/(1 - u) + 1/(1 + u): the fold takes one gcd per
    # further denominator, and the zero total is not normalized
    xs = [_A, RatFun(LaurentPoly.term(-2), (ONE - U) * (ONE + U)), RatFun(ONE, ONE + U)]
    with _counting("_dense_gcd_int", "_normalize_ratfun") as calls:
        assert RatFun.sum(xs) is RatFun.zero()
    assert calls == ["_dense_gcd_int"] * 2


def _lcm_of_products(dens):
    """The canonical lcm of products of the coprime irreducible
    ``_DEN_FACTORS``, given as lists of factor indices: each factor to its
    largest multiplicity (so one list gives its product)."""
    out = ONE
    for i, f in enumerate(_DEN_FACTORS):
        for _ in range(max(d.count(i) for d in dens)):
            out = out * f
    return RatFun(ONE, out).den


factor_lists = st.lists(st.integers(0, len(_DEN_FACTORS) - 1), max_size=4)


@settings(deadline=None)
@given(st.lists(factor_lists, min_size=2, max_size=4))
# one denominator divides another: (u - 1) and (u - 1)(u + 1)
@example([[0], [0, 1]])
# coprime denominators
@example([[0], [2], [4]])
# a repeated factor: (u - 1)^2 and (u - 1)(u^2 + 1), then (u - 1)^3
@example([[0, 0], [0, 3], [0, 0, 0]])
def test_a_sum_is_held_over_the_least_common_multiple(dens):
    assume(any(dens))  # denominators all 1 are one group: no lcm is folded
    want = _lcm_of_products(dens)
    products = [_lcm_of_products([d]) for d in dens]
    # distinct powers of Qh keep the sum of these u-only values nonzero
    xs = [RatFun(sym("Qh", i), d) for i, d in enumerate(products)]
    assert RatFun.sum(xs)._pending[1] == want
    groups = [[d, [], None] for d in products]
    lcm, cofactors = ring._dense_lcm(groups)
    assert lcm == want
    assert [k * d for k, (d, *_) in zip(cofactors, groups)] == [want] * len(dens)


# ---------------------------------------------------------------------------
# one linear combination with polynomial coefficients
# ---------------------------------------------------------------------------

# constant or Laurent polynomial coefficients, with Fraction coefficients
coefficients = st.one_of(
    st.integers(-3, 3).map(LaurentPoly.term), small_fracs.map(LaurentPoly.term),
    laurent_polys,
)
_k = LaurentPoly.term  # a constant coefficient


@st.composite
def combinations(draw):
    """(c, r) pairs drawn from a small pool, so one RatFun object may come
    back with several coefficients."""
    pool = draw(st.lists(summands(), min_size=1, max_size=4))
    return draw(st.lists(st.tuples(coefficients, st.sampled_from(pool)), max_size=7))


@settings(deadline=None)
@given(combinations())
# one object three times: its coefficients add to 2 - 1/2 + u
@example([(_k(2), _B), (_k(-HALF), _B), (U, _B), (ONE, _A)])
# the coefficients of one object cancel, and a coprime denominator
@example([(U, _A), (-U, _A), (_k(HALF), RatFun(ONE, ONE + U * U))])
# two distinct objects of equal value empty the running map, and a later
# product re-seeds it
@example([(ONE, RatFun(ONE, ONE + U)), (-ONE, RatFun(ONE, ONE + U)), (ONE, RatFun(U, ONE + U))])
def test_combination_is_the_eager_reference(pairs):
    operands = [x for c, r in pairs for x in (c, r.num, r.den)]
    before = [(dict(x.terms), x.den) for x in operands]
    total = RatFun.combine(pairs)
    # the sum merges in place into a map seeded from an operand
    assert [(x.terms, x.den) for x in operands] == before
    products = [RatFun(c) * r for c, r in pairs]
    assert total == _over_product(products)
    assert str(total) == str(_fold(products))
    assert RatFun.combine(iter(pairs)) == total


@contextlib.contextmanager
def _counting(*names):
    """Record every call of the named ``ring`` functions."""
    calls = []
    saved = {name: getattr(ring, name) for name in names}
    for name, fn in saved.items():
        setattr(ring, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(ring, name, fn)


@settings(deadline=None)
@given(
    laurent_polys, st.lists(coefficients, min_size=1, max_size=4),
    st.permutations(_DEN_FACTORS), st.data(),
)
def test_a_combination_that_cancels_runs_no_normalization(num, cs, factors, data):
    # r_j = num / (f_0 ... f_j): each denominator divides the last, r_k, and
    # sum_j c_j r_j = (sum_j c_j g_j) r_k with g_j = f_(j+1) ... f_k
    k = len(cs)
    dens = [functools.reduce(operator.mul, factors[:j + 1]) for j in range(k + 1)]
    rs = [RatFun(num, d) for d in dens]
    assume(all(r.den == RatFun(ONE, d).den for r, d in zip(rs, dens)))
    g = [functools.reduce(operator.mul, factors[j + 1:k + 1], ONE) for j in range(k)]
    back = LaurentPoly.zero()
    for c, gj in zip(cs, g):
        back = back + c * gj
    # the first coefficient split in two, so the same object comes twice
    split = data.draw(coefficients)
    pairs = [(split, rs[0]), *zip(cs, rs), (-split, rs[0]), (-back, rs[k])]
    pairs = data.draw(st.permutations(pairs))
    dens = {r.den for c, r in pairs if c.terms and r.num.terms}
    with _counting("_dense_gcd_int", "_normalize_ratfun") as calls:
        total = RatFun.combine(pairs)
    assert total is RatFun.zero()
    # the lcm fold takes one gcd per further denominator; nothing normalizes
    assert calls == ["_dense_gcd_int"] * max(len(dens) - 1, 0)


def test_a_corrupted_cofactor_changes_the_value(monkeypatch):
    # +1 on one quotient coefficient of each cofactor lcm / d
    cofactor = ring._cofactor
    monkeypatch.setattr(ring, "_cofactor", lambda q, *a: cofactor([q[0] + 1, *q[1:]], *a))
    pt = {"E": Fraction(2), "Qh": Fraction(3), "lam": Fraction(5), "u": Fraction(1, 3)}
    assert _ev(_A + _B, pt) != _ev(_A, pt) + _ev(_B, pt)
    total = RatFun.combine([(U, _A), (_k(2), _B)])
    assert _ev(total, pt) != _ev(U, pt) * _ev(_A, pt) + 2 * _ev(_B, pt)


# ---------------------------------------------------------------------------
# lcms read from steps
# ---------------------------------------------------------------------------

def _stepped(num, prev, factor):
    """num / (prev * factor), wrapped with its step (prev, factor)."""
    return RatFun._raw(num, prev * factor, (prev, factor))


def _unstepped(pairs):
    return [(c, RatFun._raw(r.num, r.den)) for c, r in pairs]


_U2, _U4, _E2 = sym("u", 2) - ONE, sym("u", 4) - ONE, sym("E", 2) - ONE
_STEPPED = [
    # the later group steps from the earlier, and the earlier from the later
    [(U, RatFun._raw(ONE, _U2)), (_k(2), _stepped(U, _U2, _U4))],
    [(ONE + U, _stepped(ONE, _U2, _U4)), (_k(HALF), RatFun._raw(U, _U2))],
    # z_0-like 1, a repeated binomial, and two members over the prev den
    [(ONE, RatFun.one()), (_k(-HALF), _stepped(U, ONE, sym("u", 6) - ONE))],
    [(U, _stepped(ONE, _U2, _U2)), (ONE, RatFun._raw(ONE, _U2)), (_k(2), RatFun._raw(U, _U2))],
    [(sym("E"), RatFun._raw(ONE, _E2)), (ONE, _stepped(ONE, _E2, sym("E", 4) - ONE))],
]
_NOT_STEPPED = [
    # a step from an equal prev that is not the other's very object
    [(ONE, RatFun._raw(ONE, sym("u", 2) - ONE)), (U, _stepped(ONE, _U2, _U4))],
    # three denominators, each a step from the one before
    [(U, _stepped(ONE, ONE, _U2)), (_k(2), _stepped(U, _U2 * _U4, _U4)),
     (ONE + U, _stepped(ONE, _U2, _U4))],
    # u^2 - 1 divides u^4 - 1, but neither has a step
    [(ONE, RatFun._raw(ONE, _U2 * _U2)), (ONE, RatFun._raw(U, _U4))],
    # a step from 1, and a denominator that is not 1
    [(ONE, _stepped(ONE, ONE, _U2)), (_k(2), _A)],
    [(U, _A), (_k(2), _B)],
]


@pytest.mark.parametrize("pairs", _STEPPED + _NOT_STEPPED)
def test_a_binomial_lcm_equals_the_dense_one(pairs):
    with _counting("_dense_view", "_dense_divexact", "_cofactor") as calls:
        total = RatFun.combine(pairs)
        # the step branch runs only where one of two groups steps from the other
        assert (calls == []) == any(pairs is p for p in _STEPPED)
    with _counting("_dense_view") as calls_unstepped:
        dense = RatFun.combine(_unstepped(pairs))
    assert calls_unstepped
    products = [RatFun(c) * r for c, r in pairs]
    assert total == dense == _over_product(products)
    assert str(total) == str(dense)


def test_maps_in_two_symbols_take_the_dense_branch():
    # neither steps from the other, so the dense fold meets two symbols
    with pytest.raises(MultivariateDenominatorError):
        RatFun.combine([(ONE, _stepped(ONE, ONE, _U2)), (ONE, _stepped(ONE, _E2, _E2))])


def test_only_raw_carries_a_binomial_map():
    r = _stepped(U, _U2, _U4)
    assert r._step[0] is _U2 and r._step[1] is _U4
    derived = [
        RatFun(r.num, r.den), RatFun.from_json(r.to_json()), -r, r.mul_term(1, u=1),
        r.scale(2), RatFun.sum([r, _stepped(ONE, ONE, _U2)]), RatFun.combine([(U, r)]),
        copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r)),
    ]
    for x in derived:
        assert x._step is None
    # equality, hash and text ignore the step
    bare = RatFun._raw(r.num, r.den)
    assert bare == r and hash(bare) == hash(r) and str(bare) == str(r)
    assert json.dumps(bare.to_json()) == json.dumps(r.to_json())


# ---------------------------------------------------------------------------
# a nonzero total is normalized when first read
# ---------------------------------------------------------------------------

def _count_normalizations(monkeypatch):
    calls = []
    normalize = ring._normalize_ratfun
    monkeypatch.setattr(
        ring, "_normalize_ratfun", lambda n, d: calls.append(1) or normalize(n, d)
    )
    return calls


# one group over a non-integer denominator, which then cancels
_ONE_GROUP = [RatFun(ONE, U + ONE * HALF), RatFun(U, U + ONE * HALF)]


@settings(deadline=None)
@given(st.lists(summands(), max_size=6))
@example([_A, _B, RatFun(sym("E"))])
@example(_ONE_GROUP)
def test_deferred_sum_reads_as_the_eager_reference(xs):
    # the numerator over the lcm, as a deferred sum holds it before any read
    pending = getattr(RatFun.sum(xs), "_pending", None)
    assume(pending is not None)
    ref = RatFun(*pending)
    assert ref == _over_product(xs)
    assert RatFun.sum(xs) == ref and ref == RatFun.sum(xs)
    assert hash(RatFun.sum(xs)) == hash(ref)
    assert str(RatFun.sum(xs)) == str(ref)
    assert RatFun.sum(xs).to_json() == ref.to_json()
    total = RatFun.sum(xs)
    assert (_fields(total.num), _fields(total.den)) == (_fields(ref.num), _fields(ref.den))


@pytest.mark.parametrize("xs", [[_A, _B], _ONE_GROUP])
def test_is_zero_of_a_deferred_total_runs_no_normalization(monkeypatch, xs):
    calls = _count_normalizations(monkeypatch)
    total = RatFun.sum(xs)
    assert not total.is_zero() and not total.is_zero()
    assert calls == []
    assert total.num and calls == [1]


@pytest.mark.parametrize("reads", [("den", "num"), ("num", "num"), ("den", "den")])
def test_a_deferred_total_is_normalized_once(monkeypatch, reads):
    want = _over_product([_A, _B])
    calls = _count_normalizations(monkeypatch)
    total = RatFun.sum([_A, _B])
    parts = [getattr(total, name) for name in reads]
    assert calls == [1]
    assert parts == [getattr(want, name) for name in reads]
    assert total == want and str(total) == str(want) and calls == [1]
    assert not hasattr(total, "_pending")  # the numerator over the lcm is dropped


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, copy.copy, lambda x: pickle.loads(pickle.dumps(x)),
])
def test_a_deferred_total_copies_to_an_equal_value(copy_of):
    want = _over_product([_A, _B])
    got = copy_of(RatFun.sum([_A, _B]))
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert not got.is_zero() and type(got) is RatFun


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_xseries_product_truncates():
    one_plus = XSeries(2, [RatFun.one(), RatFun.one(), RatFun.zero()])
    one_minus = XSeries(2, [RatFun.one(), RatFun.term(-1), RatFun.zero()])
    prod = one_plus * one_minus
    assert prod.coeff(0).is_one()
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2) == RatFun.term(-1)


def test_xseries_scale_zero():
    s = XSeries(3, [RatFun.one()] * 4)
    assert all(c.is_zero() for c in s.scale(RatFun.zero()).coeffs)


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
    a = XSeries(N, [RatFun.term(c) for c in exp_pos])
    b = XSeries(N, [RatFun.term(c) for c in exp_neg])
    prod = a * b
    assert prod == XSeries(N, [RatFun.term(c) for c in conv])
    assert prod == XSeries(N, [RatFun.one()] + [RatFun.zero()] * N)


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
        a = XSeries(N, [RatFun.term(c) for c in pa] + [RatFun.zero()] * (N - N // 2))
        b = XSeries(N, [RatFun.term(c) for c in pb] + [RatFun.zero()] * (N - N // 2))
        assert a * b == XSeries(N, [RatFun.term(c) for c in conv])


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
    s = XSeries(3, [RatFun.term(k) for k in (1, 2, 3, 4)])
    t = s.shift(1)
    assert t.coeff(0).is_zero()
    assert t.coeff(1) == RatFun.term(1)
    assert t.coeff(3) == RatFun.term(3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_canonical_text():
    t = LaurentPoly.term(Fraction(-1, 2), E=2, lam=-1)
    assert str(t) == "(-1/2)*E^2*lam^-1"
    assert str(ONE - sym("E", 2)) == "1 + (-1)*E^2"
    assert str(LaurentPoly.zero()) == "0"


def test_text_term_order_is_total_degree_then_lex():
    p = sym("u", 3) + sym("E") * sym("u") + LaurentPoly.term(5)
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

"""Partition functions, curve operators, annihilation, classical limits."""

import random
from fractions import Fraction
from math import factorial

import pytest

from qcurve.curves import (
    ClassicalCurve,
    CurveCase,
    CurveKind,
    Dilation,
    LambdaEuler,
    QOp,
    QOpTerm,
    apply_operator,
    classical_curve,
    classical_limit,
    conifold,
    conifold_statement_coeff,
    curve_operator,
    framed_c3,
    lambert,
    recurrence_check,
    verify_annihilation,
    z_closed,
    z_from_characters,
)
from qcurve.ring import SYMBOLS, LaurentPoly, RatFun, XSeries

ONE = LaurentPoly.one()


def sym(name, power=1):
    return LaurentPoly.symbol(name, power)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_lambert_low_coefficients():
    z = z_closed(lambert(), 2)
    assert z.coeff(0).is_one()
    assert z.coeff(1) == RatFun.term(1, lam=-1)
    assert z.coeff(2) == RatFun.term(Fraction(1, 2), E=2, lam=-2)


def test_c3_first_coefficient():
    for a in (-2, 0, 3):
        z = z_closed(framed_c3(a), 1)
        assert z.coeff(1) == RatFun(sym("E"), ONE - sym("E", 2)), a


def test_c3_general_coefficient_formula():
    a, n = 2, 4
    z = z_closed(framed_c3(a), n)
    den = ONE
    for j in range(1, n + 1):
        den = den * (ONE - sym("E", 2 * j))
    assert z.coeff(n) == RatFun(sym("E", -a * n * (n - 1) + n), den)


def test_conifold_first_coefficient_framing_independent():
    want = RatFun((sym("Qh", 2) - ONE).mul_term(1, u=1), ONE - sym("u", 2))
    for a in (-2, 0, 3):
        assert z_closed(conifold(a), 1).coeff(1) == want


def test_conifold_general_coefficient_formula():
    a, n = -1, 3
    z = z_closed(conifold(a), n)
    num, den = ONE, ONE
    for j in range(1, n + 1):
        num = num * (sym("Qh", 2) - sym("u", 2 * (j - 1)))
        den = den * (ONE - sym("u", 2 * j))
    assert z.coeff(n) == RatFun(num.mul_term(1, u=a * n * (n - 1) + n), den)


def test_lambert_rejects_framing():
    with pytest.raises(ValueError):
        CurveCase(CurveKind.LAMBERT, 1)


# ---------------------------------------------------------------------------
# character-sum route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [lambert()] + [framed_c3(a) for a in (-2, 0, 3)]
                         + [conifold(a) for a in (-2, 0, 3)])
def test_route_equivalence_low_order(case):
    assert z_from_characters(case, 5) == z_closed(case, 5)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_lambert_operator_structure():
    op = curve_operator(lambert())
    assert op.terms == (
        QOpTerm(RatFun.one(), 0, LambdaEuler()),
        QOpTerm(RatFun.from_scalar(-1), 1, Dilation("E", 2)),
    )


def test_c3_zero_framing_operator():
    op = curve_operator(framed_c3(0))
    assert [(t.xpow, t.action) for t in op.terms] == [
        (0, Dilation("E", 0)),
        (0, Dilation("E", 2)),
        (1, Dilation("E", 0)),
    ]
    assert op.terms[2].coeff == RatFun.term(-1, E=1)


def test_identity_operator_preserves_series():
    op = QOp(framed_c3(0), "forward", (QOpTerm(RatFun.one(), 0, Dilation("E", 0)),))
    z = z_closed(framed_c3(0), 5)
    assert apply_operator(op, z, 5) == z


def test_x_multiplication_shifts():
    op = QOp(lambert(), "forward", (QOpTerm(RatFun.one(), 1, Dilation("E", 0)),))
    z = z_closed(lambert(), 4)
    shifted = apply_operator(op, z, 4)
    assert shifted.coeff(0).is_zero()
    for n in range(1, 5):
        assert shifted.coeff(n) == z.coeff(n - 1)


def random_series(rng, order):
    coeffs = []
    for _ in range(order + 1):
        c = RatFun.term(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            u=rng.randint(-2, 2),
            Qh=rng.randint(0, 2),
        )
        coeffs.append(c)
    return XSeries(order, coeffs)


def test_dilation_definition():
    rng = random.Random(8)
    s = random_series(rng, 5)
    dil = s.map_coeffs(Dilation("u", 2).apply)
    for n in range(6):
        assert dil.coeff(n) == s.coeff(n).mul_term(1, u=2 * n)


def test_dilation_x_commutation():
    # y^ x^ = s * x^ y^ for a dilation y^ with symbol value s = u^2
    rng = random.Random(17)
    for _ in range(5):
        f = random_series(rng, 6)
        dil = Dilation("u", 2)
        via_yx = f.shift(1).map_coeffs(dil.apply)
        via_xy = f.map_coeffs(dil.apply).shift(1).map_coeffs(
            lambda _, c: c.mul_term(1, u=2)
        )
        assert via_yx == via_xy


def test_operator_with_large_xpow_refused():
    z = z_closed(lambert(), 3)
    for xpow in (2, -1):  # x^-1 would read past the series
        bad = QOp(
            lambert(), "forward", (QOpTerm(RatFun.one(), xpow, Dilation("E", 0)),)
        )
        with pytest.raises(ValueError):
            apply_operator(bad, z, 3)


def _apply_by_whole_series(op, series, order):
    """Reference: one whole-series pass per operator term (map the action,
    multiply by the coefficient, shift by x^xpow, add)."""
    z = series if series.order == order else series.truncate(order)
    acc = XSeries(order)
    for term in op.terms:
        part = z.map_coeffs(term.action.apply)
        c = term.coeff
        if not c.is_one():
            if c.den.is_one() and len(c.num.terms) == 1:
                ((mono, coeff),) = c.num.sorted_terms()
                powers = {SYMBOLS[i]: e for i, e in enumerate(mono) if e}
                part = part.map_coeffs(lambda _, v: v.mul_term(coeff, **powers))
            else:
                part = part.scale(c)
        part = part.shift(term.xpow)
        acc = acc.add(part)
    return acc


@pytest.mark.parametrize(
    "case, direction",
    [(lambert(), "forward")]
    + [(framed_c3(a), "forward") for a in range(-3, 4)]
    + [(conifold(a), "forward") for a in range(-3, 4)]
    + [(conifold(a), "inverse") for a in (-1, 1)],
)
def test_operator_matches_whole_series_reference(case, direction):
    op = curve_operator(case, direction)
    # a series longer than the requested order is cut to it
    z = z_closed(case, 9)
    assert apply_operator(op, z, 8) == _apply_by_whole_series(op, z, 8)


def test_non_unit_coefficients_match_whole_series_reference():
    op = QOp(
        conifold(1),
        "forward",
        (
            QOpTerm(RatFun(ONE + sym("u")), 0, Dilation("u", 2)),
            QOpTerm(RatFun(ONE, ONE - sym("u", 2)), 1, Dilation("u", -2)),
            QOpTerm(RatFun(sym("Qh", 2) - sym("u"), ONE + sym("u", 3)), 1, LambdaEuler()),
        ),
    )
    z = z_closed(conifold(1), 8)
    result = apply_operator(op, z, 8)
    assert result == _apply_by_whole_series(op, z, 8)
    assert not result.is_zero()


# ---------------------------------------------------------------------------
# annihilation
# ---------------------------------------------------------------------------

def test_lambert_annihilation():
    report = verify_annihilation(lambert(), 10)
    assert report.ok
    assert all(report.degrees_ok)
    assert report.first_failure is None


@pytest.mark.parametrize("a", range(-3, 4))
def test_c3_annihilation(a):
    assert verify_annihilation(framed_c3(a), 8).ok


@pytest.mark.parametrize("a", range(-3, 4))
def test_conifold_annihilation(a):
    assert verify_annihilation(conifold(a), 8).ok


def test_conifold_inverse_direction_fails():
    report = verify_annihilation(conifold(1), 6, y_direction="inverse")
    assert not report.ok
    assert report.status == "failed"
    assert report.first_failure == (
        1, "(1)*u^-1 + (1)*u^1 + (-1)*Qh^2*u^-1 + (-1)*Qh^2*u^1"
    )
    # the constant term is direction-independent
    assert report.degrees_ok[0]


def test_unknown_y_direction_rejected():
    with pytest.raises(ValueError):
        curve_operator(conifold(0), "sideways")


@pytest.mark.parametrize("case", [lambert(), framed_c3(1)])
def test_inverse_y_direction_is_conifold_only(case):
    # lambert and c3 have one reading; "inverse" must not pass silently
    with pytest.raises(ValueError):
        curve_operator(case, "inverse")
    with pytest.raises(ValueError):
        verify_annihilation(case, 4, y_direction="inverse")


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "case",
    [lambert()]
    + [framed_c3(a) for a in (-3, 0, 2)]
    + [conifold(a) for a in (-3, 0, 2)],
)
def test_recurrences(case):
    report = recurrence_check(case, 11)
    assert report.ok, report


def test_lambert_recurrence_by_hand():
    # (n+1) lam a_{n+1} = E^(2n) a_n, checked on raw coefficients
    z = z_closed(lambert(), 6)
    for n in range(6):
        lhs = z.coeff(n + 1).mul_term(n + 1, lam=1)
        rhs = z.coeff(n).mul_term(1, E=2 * n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the two conifold coefficient presentations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", (-2, 0, 3))
def test_conifold_statement_vs_proof_form(a):
    z = z_closed(conifold(a), 6)
    for n in range(7):
        assert conifold_statement_coeff(n, a) == z.coeff(n), (a, n)


# ---------------------------------------------------------------------------
# classical limits
# ---------------------------------------------------------------------------

def test_classical_curves_literal():
    # terms print in (total degree, exponents) order
    assert str(classical_curve(lambert())) == "y - x*ey"
    assert str(classical_curve(framed_c3(1))) == "1 - x*y^-1 - y"
    assert str(classical_curve(framed_c3(-1))) == "1 - y - x*y"
    assert str(classical_curve(conifold(1))) == "1 - y - x*y*emt + x*y^2"


def test_classical_curve_shapes():
    one = Fraction(1)
    assert classical_curve(lambert()) == ClassicalCurve(
        {(0, 1, 0, 0): one, (1, 0, 1, 0): -one}
    )
    a = 2
    assert classical_curve(framed_c3(a)) == ClassicalCurve(
        {(0, 0, 0, 0): one, (0, 1, 0, 0): -one, (1, -a, 0, 0): -one}
    )
    assert classical_curve(conifold(a)) == ClassicalCurve(
        {
            (0, 0, 0, 0): one,
            (0, 1, 0, 0): -one,
            (1, a + 1, 0, 0): one,
            (1, a, 0, 1): -one,
        }
    )


def test_classical_limit_matches_documented_curves():
    cases = [lambert()]
    for a in range(-3, 4):
        cases.append(framed_c3(a))
        cases.append(conifold(a))
    for case in cases:
        assert classical_limit(curve_operator(case)) == classical_curve(case), case

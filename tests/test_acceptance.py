"""Acceptance suite: every criterion at its stated cap, exact equality.

All checks are zero-tolerance algebraic identities.  Each test prints one
line (visible with ``pytest -s``) of the form

    ACCEPTANCE <n> PASS <description> [<elapsed>s, stated budget <b>s]

Stated budgets are expectations, printed for inspection; correctness is
what is asserted.
"""

import time
from fractions import Fraction

from qcurve.combinatorics import (
    centralizer_order,
    character,
    kappa,
    partitions_of,
)
from qcurve.curves import (
    classical_curve,
    classical_limit,
    conifold,
    conifold_statement_coeff,
    curve_operator,
    framed_c3,
    lambert,
    verify_annihilation,
    z_closed,
    z_from_characters,
)
from qcurve.hurwitz import elsv_genus0, hurwitz_table, verify_cut_and_join
from qcurve.ring import LaurentPoly, RatFun
from qcurve.symfun import (
    Specialization,
    cut_and_join,
    quantum_dimension,
    schur_to_powersums,
    specialize,
)

FRAMINGS = range(-3, 4)


def _report(number, description, start, budget):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS {description} [{elapsed:.2f}s, stated budget {budget}s]")


def test_acceptance_1_lambert_annihilation():
    start = time.perf_counter()
    report = verify_annihilation(lambert(), 12)
    assert report.ok and all(report.degrees_ok)
    _report(1, "(y^ - x^ e^y^) Z = 0 exactly through x^12", start, 1)


def test_acceptance_2_c3_annihilation():
    start = time.perf_counter()
    for a in FRAMINGS:
        report = verify_annihilation(framed_c3(a), 12)
        assert report.ok, (a, report.first_failure)
    _report(
        2, "(1 - y^ - E x^ y^-a) Z = 0 through x^12 for a in -3..3", start, 5
    )


def test_acceptance_3_conifold_annihilation_and_failing_reading():
    start = time.perf_counter()
    for a in FRAMINGS:
        report = verify_annihilation(conifold(a), 12)
        assert report.ok, (a, report.first_failure)
    # the literal-sign reading must demonstrably fail
    negative = verify_annihilation(conifold(1), 12, y_direction="inverse")
    assert not negative.ok
    assert negative.first_failure[0] == 1
    _report(
        3,
        "(1 - y^ + u x^ y^(a+1) - u Qh^2 x^ y^a) Z = 0 through x^12, "
        "a in -3..3; inverse reading fails",
        start,
        10,
    )


def test_acceptance_4_route_equivalence():
    start = time.perf_counter()
    cases = [lambert()]
    for a in FRAMINGS:
        cases.append(framed_c3(a))
        cases.append(conifold(a))
    for case in cases:
        assert z_from_characters(case, 10) == z_closed(case, 10), case
    _report(
        4,
        "character-sum route equals closed form through x^10, all cases, "
        "a in -3..3",
        start,
        60,
    )


def test_acceptance_5_cut_and_join():
    start = time.perf_counter()
    report = verify_cut_and_join(6)
    assert report.ok, report.first_mismatch
    for n in range(9):
        for nu in partitions_of(n):
            s = schur_to_powersums(nu, n)
            assert cut_and_join(s) == s.scale(Fraction(kappa(nu), 2)), nu
    _report(
        5,
        "d/dlam = cut-and-join through |mu| <= 6, every lam order; eigenvalue "
        "kappa/2 for |nu| <= 8",
        start,
        30,
    )


def test_acceptance_6_hurwitz_consistency():
    start = time.perf_counter()
    table = hurwitz_table(6, 3)
    assert table.value(0, (1,)) == 1
    assert table.value(0, (2,)) == Fraction(1, 2)
    for g in (1, 2, 3):
        assert table.value(g, (1,)) == 0
    matched = 0
    for n in range(3, 7):
        for mu in partitions_of(n):
            if len(mu) >= 3:
                assert table.value(0, mu) == elsv_genus0(mu), mu
                matched += 1
    assert matched == 14  # partitions with |mu| <= 6, l >= 3
    _report(
        6,
        "series-extracted H(0,mu) equals genus-0 closed form, |mu| <= 6, "
        "l >= 3; pinned values hold",
        start,
        30,
    )


def test_acceptance_7_specialization_identities():
    start = time.perf_counter()
    for n in range(1, 11):
        lhs = specialize(schur_to_powersums((n,), n), Specialization.PRINCIPAL)
        den = LaurentPoly.one()
        for j in range(1, n + 1):
            den = den * (
                LaurentPoly.symbol("u", j) - LaurentPoly.symbol("u", -j)
            )
        rhs = RatFun(LaurentPoly.symbol("u", n * (n - 1) // 2), den)
        assert lhs == rhs, n
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert quantum_dimension(mu) == specialize(
                schur_to_powersums(mu, n), Specialization.CONIFOLD_Y
            ), mu
    _report(
        7,
        "single-row principal specialization for n <= 10; hook-content "
        "quantum dimension equals character-sum specialization, |mu| <= 6",
        start,
        30,
    )


def test_acceptance_8_character_suite():
    start = time.perf_counter()
    for n in range(1, 9):
        ps = partitions_of(n)
        for a in ps:
            for b in ps:
                s = sum(
                    Fraction(
                        character(a, mu) * character(b, mu),
                        centralizer_order(mu),
                    )
                    for mu in ps
                )
                assert s == (1 if a == b else 0), (a, b)
        for nu in ps:
            s = sum(
                Fraction(character(nu, mu), centralizer_order(mu)) for mu in ps
            )
            assert s == (1 if nu == (n,) else 0), nu
    _report(
        8, "row orthogonality and collapse identity for n <= 8", start, 10
    )


def test_acceptance_9_conifold_presentation_agreement():
    start = time.perf_counter()
    for a in (-2, 0, 3):
        series = z_closed(conifold(a), 8)
        for n in range(9):
            assert conifold_statement_coeff(n, a) == series.coeff(n), (a, n)
    _report(
        9,
        "inverse-power and cleared-power conifold coefficient forms agree "
        "for n <= 8",
        start,
        30,
    )


def test_acceptance_10_classical_limits():
    start = time.perf_counter()
    cases = [lambert()]
    for a in FRAMINGS:
        cases.append(framed_c3(a))
        cases.append(conifold(a))
    for case in cases:
        assert classical_limit(curve_operator(case)) == classical_curve(case)
    assert str(classical_curve(lambert())) == "y - x*ey"
    _report(
        10,
        "operator symbols reduce to y - x e^y, 1 - y - x y^-a, and "
        "1 - y + x y^(a+1) - emt x y^a",
        start,
        5,
    )

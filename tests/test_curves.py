"""Partition functions, curve operators, annihilation, classical limits."""

import random
from fractions import Fraction
from math import factorial

import pytest

from qcurve import combinatorics, curves, hurwitz, ring, selftest, symfun
from qcurve.combinatorics import centralizer_order, character, kappa, partitions_of
from qcurve.curves import (
    ClassicalCurve,
    CurveCase,
    CurveKind,
    Dilation,
    LambdaEuler,
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
from qcurve.hurwitz import hurwitz_table
from qcurve.ring import SYMBOLS, LaurentPoly, RatFun, XSeries

from test_hurwitz import _as_symfunc
from test_ring import _count_normalizations

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


FRAMINGS = range(-10, 11)
CLOSED_FORM_CASES = [lambert()] + [
    case for a in FRAMINGS for case in (framed_c3(a), conifold(a))
]


def test_closed_forms_are_canonical_as_built():
    # z_closed wraps its coefficients without normalizing them
    for case in CLOSED_FORM_CASES:
        for c in z_closed(case, 20).coeffs:
            assert RatFun(c.num, c.den) == c, (case, c)


def _value(x, point, powers=None):
    """Value of a LaurentPoly or RatFun at point: symbol -> nonzero Fraction."""
    powers = {} if powers is None else powers  # (symbol, exponent) -> power
    if isinstance(x, RatFun):
        return _value(x.num, point, powers) / _value(x.den, point, powers)
    total = Fraction(0)
    for mono, c in x.sorted_terms():
        for name, e in zip(SYMBOLS, mono):
            if (name, e) not in powers:
                powers[name, e] = point[name] ** e
            c *= powers[name, e]
        total += c
    return total


def _product_formula(case, n, point):
    """The module docstring's product for the x^n coefficient, in Fractions."""
    a = case.framing
    if case.kind is CurveKind.LAMBERT:
        return point["E"] ** (n * (n - 1)) * point["lam"] ** -n / factorial(n)
    if case.kind is CurveKind.C3:
        q = point["E"]
        value = q ** (-a * n * (n - 1) + n)
        for j in range(1, n + 1):
            value /= 1 - q ** (2 * j)
        return value
    q, qh = point["u"], point["Qh"]
    value = q ** (a * n * (n - 1) + n)
    for j in range(1, n + 1):
        value *= (qh ** 2 - q ** (2 * (j - 1))) / (1 - q ** (2 * j))
    return value


# no factor of a product formula vanishes at these points
ORACLE_POINTS = (
    {"E": Fraction(2, 3), "Qh": Fraction(7, 5), "lam": Fraction(3), "u": Fraction(-5, 3)},
    {"E": Fraction(-7, 4), "Qh": Fraction(1, 3), "lam": Fraction(-2, 5), "u": Fraction(3, 7)},
)


def test_closed_forms_match_the_product_formula_at_points():
    # an oracle that shares no code with the canonical form
    for case in CLOSED_FORM_CASES:
        z = z_closed(case, 12)
        for point in ORACLE_POINTS:
            powers = {}
            for n, c in enumerate(z.coeffs):
                assert _value(c, point, powers) == _product_formula(
                    case, n, point
                ), (case, n, point)


def test_lambert_rejects_framing():
    with pytest.raises(ValueError):
        CurveCase(CurveKind.LAMBERT, 1)


@pytest.mark.parametrize("kind", ["c3", "lambert", None])
def test_kind_must_be_a_curve_kind(kind):
    # a string kind matched no CurveKind branch and built the conifold
    with pytest.raises(TypeError, match="kind must be a CurveKind"):
        CurveCase(kind, 1)
    with pytest.raises(TypeError, match="kind must be a CurveKind"):
        CurveCase(kind)


@pytest.mark.parametrize("framing", [1.5, 0.5, 0.0, Fraction(1), True])
@pytest.mark.parametrize("kind", list(CurveKind))
def test_framing_must_be_an_int(kind, framing):
    # a float framing built float exponents (E^1.0) that still read annihilated
    with pytest.raises(TypeError):
        CurveCase(kind, framing)


# ---------------------------------------------------------------------------
# character-sum route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [lambert()] + [framed_c3(a) for a in (-2, 0, 3)]
                         + [conifold(a) for a in (-2, 0, 3)])
def test_route_equivalence_low_order(case):
    assert z_from_characters(case, 5) == z_closed(case, 5)


def _clear_caches():
    for module in (combinatorics, curves, symfun, ring):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_character_sum_is_the_per_class_fraction_sum():
    for n in range(1, 13):
        ps = partitions_of(n)
        want = {
            nu: sum(Fraction(character(nu, mu), centralizer_order(mu)) for mu in ps)
            for nu in ps
        }
        assert curves._character_sum(n) == want, n


@pytest.mark.parametrize("case", [lambert(), framed_c3(1), conifold(1)])
def test_the_route_reads_rows_with_no_character_lookup(case):
    _clear_caches()
    assert z_from_characters(case, 9) == z_closed(case, 9)
    info = combinatorics.character.cache_info()
    assert info.hits + info.misses == 0


@pytest.mark.parametrize("case", [lambert(), framed_c3(1), conifold(1)])
def test_wrong_character_value_reaches_the_route(monkeypatch, case):
    # chi_(3,1)((4,)) is -1; one table entry off by 1 makes the (3,1) sum
    # nonzero
    real = combinatorics.character_table

    def corrupted(n):
        table = real(n)
        if n != 4:
            return table
        row = list(table.rows[(3, 1)])
        row[table.index[(4,)]] += 1
        return table._replace(rows={**table.rows, (3, 1): tuple(row)})

    _clear_caches()
    monkeypatch.setattr(curves, "character_table", corrupted)
    rebuilt, closed = z_from_characters(case, 5), z_closed(case, 5)
    assert rebuilt != closed
    differ = [n for n in range(6) if rebuilt.coeff(n) != closed.coeff(n)]
    assert differ[0] == 4


@pytest.mark.parametrize("case", [lambert(), framed_c3(-1), conifold(2)])
def test_route_builds_one_weight_per_degree(monkeypatch, case):
    order = 7
    weights, images, specializations = [], [], []

    def spy(module, name, calls):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))

    spy(curves, "_weight", weights)
    spy(curves, "principal_schur", images)
    spy(symfun, "specialize", specializations)
    assert z_from_characters(case, order) == z_closed(case, order)
    # only the one-row shape has a nonzero character sum
    assert [nu for _, nu, _ in weights] == [(n,) for n in range(1, order + 1)]
    c3 = case.kind is CurveKind.C3
    assert images == ([((n,),) for n in range(1, order + 1)] if c3 else [])
    # the c3 weight is built without a SymFunc
    assert specializations == []


def test_c3_weight_is_the_specialized_schur_function():
    # every shape, not only the one-row shape the route builds
    for n in range(1, 11):
        for nu in partitions_of(n):
            image = symfun.specialize(
                symfun.schur_to_powersums(nu, n), symfun.Specialization.PRINCIPAL
            )
            for a in range(-3, 4):
                got = curves._weight(framed_c3(a), nu, n)
                want = image.mul_term(1, u=a * kappa(nu)).subs_symbol_power("u", "E", -1)
                assert got == want, (nu, a)
                # canonical as built
                again = RatFun(got.num, got.den)
                assert (again.num.terms, again.num.den) == (got.num.terms, got.num.den)
                assert (again.den.terms, again.den.den) == (got.den.terms, got.den.den)


def test_the_c3_route_runs_no_normalization_and_no_gcd(monkeypatch):
    calls = []
    for name in ("_normalize_ratfun", "_dense_gcd_int"):
        fn = getattr(ring, name)
        monkeypatch.setattr(ring, name, lambda *a, _fn=fn: calls.append(_fn) or _fn(*a))
    _clear_caches()
    for a in (-2, 1):
        assert z_from_characters(framed_c3(a), 8) == z_closed(framed_c3(a), 8)
    assert calls == []


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_lambert_operator_structure():
    assert curve_operator(lambert()) == (
        QOpTerm(ONE, 0, LambdaEuler()),
        QOpTerm(LaurentPoly.term(-1), 1, Dilation("E", 2)),
    )


def test_c3_zero_framing_operator():
    op = curve_operator(framed_c3(0))
    assert [(t.xpow, t.action) for t in op] == [
        (0, Dilation("E", 0)),
        (0, Dilation("E", 2)),
        (1, Dilation("E", 0)),
    ]
    assert op[2].coeff == LaurentPoly.term(-1, E=1)
    assert all(type(t.coeff) is LaurentPoly for t in op)


def test_identity_operator_preserves_series():
    op = (QOpTerm(ONE, 0, Dilation("E", 0)),)
    z = z_closed(framed_c3(0), 5)
    assert apply_operator(op, z) == z


def test_x_multiplication_shifts():
    op = (QOpTerm(ONE, 1, Dilation("E", 0)),)
    z = z_closed(lambert(), 4)
    shifted = apply_operator(op, z)
    assert shifted.coeff(0).is_zero()
    for n in range(1, 5):
        assert shifted.coeff(n) == z.coeff(n - 1)


def random_coefficients(rng, count):
    """count random one-term coefficients, in order of x-degree."""
    return [
        LaurentPoly.term(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            u=rng.randint(-2, 2),
            Qh=rng.randint(0, 2),
        )
        for _ in range(count)
    ]


def _acted(action, cs):
    """The action on each x^n coefficient of a plain coefficient list."""
    return [action.apply(n, c) for n, c in enumerate(cs)]


def _times_x(cs):
    """x times the series, truncated at the same order."""
    return [LaurentPoly.zero(), *cs[:-1]]


def test_dilation_definition():
    rng = random.Random(8)
    cs = random_coefficients(rng, 6)
    dil = _acted(Dilation("u", 2), cs)
    for n in range(6):
        assert dil[n] == cs[n].mul_term(1, u=2 * n)


def test_dilation_x_commutation():
    # y^ x^ = s * x^ y^ for a dilation y^ with symbol value s = u^2
    rng = random.Random(17)
    dil = Dilation("u", 2)
    for _ in range(5):
        f = random_coefficients(rng, 7)
        via_yx = _acted(dil, _times_x(f))
        via_xy = [c.mul_term(1, u=2) for c in _times_x(_acted(dil, f))]
        assert via_yx == via_xy


def test_operator_with_large_xpow_refused():
    z = z_closed(lambert(), 3)
    for xpow in (2, -1):  # x^-1 would read past the series
        bad = (QOpTerm(ONE, xpow, Dilation("E", 0)),)
        with pytest.raises(ValueError):
            apply_operator(bad, z)


def _act(action, m, v):
    """The y^-action on the x^m coefficient v, stated by hand."""
    if isinstance(action, LambdaEuler):
        return v.mul_term(m, lam=1)
    return v.mul_term(1, **{action.symbol: action.step * m})


def _apply_by_whole_series(op, series):
    """Reference on plain coefficient lists: one pass over the series per
    operator term (act on each coefficient, multiply by the term's
    coefficient, shift by x^xpow, add), one pairwise sum per product."""
    z, order = series.coeffs, series.order
    acc = [RatFun.zero()] * (order + 1)
    for term in op:
        c = RatFun(term.coeff)
        for m, v in enumerate(z[: order + 1 - term.xpow]):
            acc[m + term.xpow] = acc[m + term.xpow] + c * _act(term.action, m, v)
    return XSeries(order, acc)


@pytest.mark.parametrize(
    "case, direction",
    [(lambert(), "forward")]
    + [(framed_c3(a), "forward") for a in range(-3, 4)]
    + [(conifold(a), "forward") for a in range(-3, 4)]
    + [(conifold(a), "inverse") for a in range(-3, 4)],
)
def test_operator_matches_whole_series_reference(case, direction):
    op = curve_operator(case, direction)
    z = z_closed(case, 8)
    assert apply_operator(op, z) == _apply_by_whole_series(op, z)


def test_operator_on_its_partition_function_runs_no_gcd(monkeypatch):
    cases = [framed_c3(a) for a in range(-3, 4)] + [conifold(a) for a in range(-3, 4)]
    pairs = [(curve_operator(case), z_closed(case, 14)) for case in cases]
    calls = []
    gcd_int = ring._dense_gcd_int
    monkeypatch.setattr(
        ring, "_dense_gcd_int", lambda f, g: calls.append(1) or gcd_int(f, g)
    )
    for op, z in pairs:
        assert all(c.is_zero() for c in apply_operator(op, z).coeffs)
    # every degree sums to zero over its common denominator
    assert calls == []


def test_operator_builds_no_multiple_of_a_series_coefficient(monkeypatch):
    cases = [framed_c3(a) for a in range(-3, 4)] + [conifold(a) for a in range(-3, 4)]
    pairs = [(curve_operator(case), z_closed(case, 12)) for case in cases]
    operands = []
    for cls in (LaurentPoly, RatFun):
        mul = cls.__mul__

        def spy(a, b, _mul=mul):
            operands.extend((a, b))
            return _mul(a, b)

        monkeypatch.setattr(cls, "__mul__", spy)
        monkeypatch.setattr(cls, "__rmul__", spy)
    for op, z in pairs:
        series = {id(c) for c in z.coeffs} | {id(c.num) for c in z.coeffs}
        operands.clear()
        assert all(c.is_zero() for c in apply_operator(op, z).coeffs)
        # each z_m enters its degree's numerator once, uncopied
        assert operands and not any(id(x) in series for x in operands)


@pytest.mark.parametrize("case", [conifold(1), framed_c3(1), framed_c3(-2), conifold(-3)])
def test_a_corrupted_cofactor_fails_annihilation_and_evaluation(monkeypatch, request, case):
    op, z = curve_operator(case), z_closed(case, 6)
    eager = _apply_by_whole_series(op, z)
    # +1 on each cofactor read from a step
    step_lcm = ring._step_lcm

    def corrupted(groups):
        found = step_lcm(groups)
        if found is None:
            return None
        lcm, cofactors = found
        return lcm, [k if k is None else k + ONE for k in cofactors]

    monkeypatch.setattr(ring, "_step_lcm", corrupted)
    z_closed.cache_clear()
    request.addfinalizer(z_closed.cache_clear)
    # x^0 holds z_0 alone; x^1 is the first degree with two denominators
    report = verify_annihilation(case, 6)
    assert report.status == "failed" and report.first_failure[0] == 1
    assert recurrence_check(case, 6).first_failure == 0
    point = ORACLE_POINTS[0]
    got = apply_operator(op, z).coeffs[1]
    assert _value(got, point) != _value(eager.coeffs[1], point) == 0


_STEPPED_CASES = [framed_c3(a) for a in range(-3, 4)] + [conifold(a) for a in range(-3, 4)]


def _assert_steps(z):
    """Each coefficient past z_0 steps from its predecessor's den object."""
    for prev, c in zip(z.coeffs, z.coeffs[1:]):
        before, factor = c._step
        assert before is prev.den and c.den == before * factor


@pytest.mark.parametrize("case", _STEPPED_CASES)
def test_z_closed_records_each_denominator_as_its_binomials(case):
    z = z_closed(case, 15)
    assert z.coeff(0).den.is_one() and z.coeff(0)._step is None
    _assert_steps(z)
    assert [c._step[1] for c in z.coeffs[1:]] == [
        curves._ratio(case, n)[1] for n in range(1, 16)
    ]
    # no other value carries a step
    c = z.coeff(15)
    unstepped = [
        *z_closed(lambert(), 6).coeffs, RatFun.sum([c, z.coeff(14)]),
        RatFun.combine([(ONE + sym("u"), c)]), RatFun(c.num, c.den),
        RatFun.from_json(c.to_json()), c.mul_term(1, E=1), -c,
    ]
    assert all(x._step is None for x in unstepped)


def _unstepped(z):
    return XSeries(z.order, [RatFun._raw(c.num, c.den) for c in z.coeffs])


@pytest.mark.parametrize(
    "case, direction",
    [(case, "forward") for case in _STEPPED_CASES]
    + [(conifold(a), "inverse") for a in range(-3, 4)],
)
def test_the_binomial_lcm_and_the_dense_lcm_give_one_verdict(monkeypatch, case, direction):
    op, z = curve_operator(case, direction), z_closed(case, 14)
    stepped = apply_operator(op, z)
    dense = apply_operator(op, _unstepped(z))
    assert [c.is_zero() for c in stepped.coeffs] == [c.is_zero() for c in dense.coeffs]
    if direction == "inverse":
        assert str(stepped.coeffs[1]) == str(dense.coeffs[1])
    checks = [recurrence_check(case, 14)]
    monkeypatch.setattr(curves, "z_closed", lambda *args: _unstepped(z))
    checks.append(recurrence_check(case, 14))
    assert checks[0] == checks[1]


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("case", [framed_c3(2), conifold(-1)])
def test_a_wrong_denominator_factor_is_caught(monkeypatch, request, case, k):
    # s^(2k+2) - 1 in place of s^(2k) - 1 in r(k): the step must record the
    # factor z_closed multiplied, not the one the degree calls for
    symbol = "u" if case.kind is CurveKind.CONIFOLD else "E"
    ratio = curves._ratio

    def wrong_factor(case, n):
        num, den = ratio(case, n)
        return num, (sym(symbol, 2 * k + 2) - ONE if n == k else den)

    monkeypatch.setattr(curves, "_ratio", wrong_factor)
    z_closed.cache_clear()
    request.addfinalizer(z_closed.cache_clear)
    z = z_closed(case, 8)
    _assert_steps(z)
    report = verify_annihilation(case, 8)
    assert [n for n, ok in enumerate(report.degrees_ok) if not ok] == [k]
    assert report.first_failure[0] == k
    assert recurrence_check(case, 8).first_failure == k - 1


def test_annihilation_takes_every_lcm_from_the_binomial_maps(monkeypatch):
    calls = []
    for name in ("_dense_view", "_dense_divexact", "_cofactor", "_normalize_ratfun"):
        fn = getattr(ring, name)
        monkeypatch.setattr(
            ring, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
        )
    z_closed.cache_clear()
    # no dense call, so every degree with two denominators took the step
    for case in _STEPPED_CASES:
        assert verify_annihilation(case, 14).ok
        assert recurrence_check(case, 14).ok
    assert calls == []
    # the inverse control fails at 14 degrees with no dense call; the dense
    # view is read only by the normalization of the one degree it prints
    for a in range(-3, 4):
        calls.clear()
        report = verify_annihilation(conifold(a), 14, y_direction="inverse")
        assert report.degrees_ok.count(False) == 14
        assert calls[0] == "_normalize_ratfun" and calls.count("_normalize_ratfun") == 1


def _assert_no_curve_check_fails():
    assert selftest._suite_route_equivalence() is None
    for case in (lambert(), framed_c3(1), conifold(1)):
        assert verify_annihilation(case, 6).ok, case
        assert recurrence_check(case, 6).ok, case
        assert z_from_characters(case, 6) == z_closed(case, 6), case


def test_a_corrupted_normalization_fails_the_specializations_but_no_curve_check(
    monkeypatch, request
):
    # twice the numerator of every normalized value with a denominator
    normalize = ring._normalize_ratfun

    def doubled(num, den):
        n, d = normalize(num, den)
        return (n if d.is_one() else n * 2), d

    monkeypatch.setattr(ring, "_normalize_ratfun", doubled)
    monkeypatch.delenv(selftest.FAULT_ENV, raising=False)
    _clear_caches()
    request.addfinalizer(_clear_caches)
    # specialize adds p_mu images, and the suite normalizes its reference
    assert selftest._suite_specializations() is not None
    # no curve check normalizes, so none sees the fault: not the forward
    # verdicts, and not the character route, whose c3 weights (principal
    # Schur images) and conifold weights (quantum dimensions) are built
    # canonical and enter each degree alone with coefficient 1
    _assert_no_curve_check_fails()


def test_a_corrupted_dense_cofactor_fails_the_specializations_but_no_curve_check(
    monkeypatch, request
):
    # +1 on one quotient coefficient of each cofactor the dense fold finds
    cofactor = ring._cofactor
    monkeypatch.setattr(ring, "_cofactor", lambda q, *a: cofactor([q[0] + 1, *q[1:]], *a))
    monkeypatch.delenv(selftest.FAULT_ENV, raising=False)
    _clear_caches()
    request.addfinalizer(_clear_caches)
    # specialize adds p_mu images over distinct denominators
    assert selftest._suite_specializations() == "principal identity fails at n=2"
    # a curve check takes each lcm from a step or adds over one denominator
    _assert_no_curve_check_fails()


def test_hurwitz_table_runs_no_graded_log_and_no_ratfun(monkeypatch):
    calls = []
    graded_log = symfun.graded_log

    def counting_log(f):
        calls.append("graded_log")
        return graded_log(f)

    # also where a module would import the name by value
    for module in (symfun, hurwitz):
        monkeypatch.setattr(module, "graded_log", counting_log, raising=False)
    for cls in (RatFun, LaurentPoly):
        monkeypatch.setattr(cls, "__init__", _counting_init(cls, calls))
    table = hurwitz_table(8, 4)
    assert table.value(1, (2,)) == Fraction(1, 2)
    # the series and its log are int maps over int denominators
    assert calls == []
    # so is the cut-and-join check, which builds a ring value only to
    # print a mismatch
    assert hurwitz.verify_cut_and_join(8).ok
    assert calls == []
    # the counters see the ring path: the series as a SymFunc and its log
    symfun.graded_log(_as_symfunc(hurwitz.burnside_series(3)))
    assert {"graded_log", "RatFun", "LaurentPoly"} <= set(calls)


def _counting_init(cls, calls):
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(cls.__name__)
        init(self, *args, **kwargs)

    return counting_init


def test_forward_annihilation_makes_no_normalization(monkeypatch):
    cases = [framed_c3(a) for a in range(-3, 4)] + [conifold(a) for a in range(-3, 4)]
    calls = []
    normalize = ring._normalize_ratfun
    monkeypatch.setattr(
        ring, "_normalize_ratfun", lambda n, d: calls.append(1) or normalize(n, d)
    )
    z_closed.cache_clear()
    for case in cases:
        assert verify_annihilation(case, 14).ok
    # z_closed builds canonical coefficients and every degree sums to zero
    assert calls == []
    # the inverse control fails at 14 degrees and normalizes only the one
    # it prints
    for a in range(-3, 4):
        z_closed.cache_clear()
        calls.clear()
        report = verify_annihilation(conifold(a), 14, y_direction="inverse")
        assert report.degrees_ok.count(False) == 14
        assert len(calls) == 1


def _annihilation_normalizing_every_degree(case, order, y_direction):
    """(degrees_ok, first_failure) with each degree normalized before its
    zero test: the eager reading of ``verify_annihilation``."""
    op = curve_operator(case, y_direction)
    result = apply_operator(op, z_closed(case, order))
    coeffs = [RatFun(c.num, c.den) for c in result.coeffs]
    degrees = tuple(not c.num.terms for c in coeffs)
    first = next(((n, str(c)) for n, c in enumerate(coeffs) if c.num.terms), None)
    return degrees, first


@pytest.mark.parametrize("a", range(-3, 4))
def test_inverse_control_normalizes_only_the_printed_degree(monkeypatch, a):
    degrees, first = _annihilation_normalizing_every_degree(conifold(a), 14, "inverse")
    calls = _count_normalizations(monkeypatch)
    report = verify_annihilation(conifold(a), 14, y_direction="inverse")
    assert len(calls) == 1
    assert (report.status, report.first_failure, report.degrees_ok) == (
        "failed", first, degrees
    )
    assert first[0] == 1 and degrees.count(False) == 14


def test_z_closed_keeps_one_series():
    z_closed.cache_clear()
    for a in range(-3, 4):
        assert verify_annihilation(conifold(a), 6).ok
    assert z_closed.cache_info().currsize == 1
    # the last series is still served from the cache
    hits = z_closed.cache_info().hits
    z_closed(conifold(3), 6)
    assert z_closed.cache_info().hits == hits + 1


def test_non_unit_coefficients_match_whole_series_reference():
    op = (
        QOpTerm(ONE + sym("u"), 0, Dilation("u", 2)),
        QOpTerm(sym("E", -1) - LaurentPoly.term(Fraction(1, 3), u=2), 0, LambdaEuler()),
        QOpTerm(ONE - sym("u", 2), 1, Dilation("u", -2)),
        QOpTerm(sym("Qh", 2) - sym("u"), 1, LambdaEuler()),
        QOpTerm(LaurentPoly.term(2, u=-1), 1, Dilation("u", 4)),
    )
    z = z_closed(conifold(1), 8)
    result = apply_operator(op, z)
    assert result == _apply_by_whole_series(op, z)
    assert not all(c.is_zero() for c in result.coeffs)


@pytest.mark.parametrize(
    "coeff", [RatFun.one(), RatFun(ONE, ONE - sym("u", 2)), 1, Fraction(1, 2), None]
)
def test_an_operator_coefficient_must_be_a_polynomial(coeff):
    with pytest.raises(TypeError, match="LaurentPoly"):
        QOpTerm(coeff, 0, Dilation("u", 2))


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


def _recurrence_by_folds(case, z, order):
    """First failing n of the recurrence lines folded with - and +, each
    step normalized: the form of the check before one sum per line."""
    a = case.framing
    for n in range(order):
        cn, cn1 = z.coeff(n), z.coeff(n + 1)
        if case.kind is CurveKind.LAMBERT:
            lhs = cn1.mul_term(n + 1, lam=1) - cn.mul_term(1, E=2 * n)
        elif case.kind is CurveKind.C3:
            lhs = cn1 * RatFun(ONE - sym("E", 2 * (n + 1))) - cn.mul_term(
                1, E=1 - 2 * a * n
            )
        else:
            lhs = (
                cn1 * RatFun(ONE - sym("u", 2 * (n + 1)))
                + cn.mul_term(1, u=2 * (a + 1) * n + 1)
                - cn.mul_term(1, Qh=2, u=2 * a * n + 1)
            )
        if not lhs.is_zero():
            return n
    return None


@pytest.mark.parametrize(
    "case",
    [lambert()] + [framed_c3(a) for a in range(-3, 4)] + [conifold(a) for a in range(-3, 4)],
)
def test_recurrence_verdicts_match_the_folded_lines(monkeypatch, case):
    z = z_closed(case, 12)
    calls = []
    gcd_int = ring._dense_gcd_int
    monkeypatch.setattr(
        ring, "_dense_gcd_int", lambda f, g: calls.append(1) or gcd_int(f, g)
    )
    report = recurrence_check(case, 12)
    assert (report.ok, report.first_failure) == (True, None)
    assert calls == []  # every line sums to zero over its common denominator
    monkeypatch.undo()
    assert _recurrence_by_folds(case, z, 12) is None


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("case", [lambert(), framed_c3(2), conifold(-1)])
def test_recurrence_catches_an_exponent_off_by_one(monkeypatch, case, k):
    # a_k times E (or u): the line linking a_(k-1) to a_k fails first
    symbol = "u" if case.kind is CurveKind.CONIFOLD else "E"
    z = z_closed(case, 8)
    bad = XSeries(8, [c.mul_term(1, **{symbol: 1}) if n == k else c
                      for n, c in enumerate(z.coeffs)])
    monkeypatch.setattr(curves, "z_closed", lambda *args: bad)
    report = recurrence_check(case, 8)
    assert not report.ok
    assert report.first_failure == _recurrence_by_folds(case, bad, 8) == k - 1


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("case", [lambert(), framed_c3(2), conifold(-1)])
def test_a_failing_recurrence_line_is_not_normalized(monkeypatch, case, k):
    symbol = "u" if case.kind is CurveKind.CONIFOLD else "E"
    z = z_closed(case, 8)
    bad = XSeries(8, [c.mul_term(1, **{symbol: 1}) if n == k else c
                      for n, c in enumerate(z.coeffs)])
    monkeypatch.setattr(curves, "z_closed", lambda *args: bad)
    calls = _count_normalizations(monkeypatch)
    # the failing line is tested for zero, and nothing reads its value
    assert recurrence_check(case, 8).first_failure == k - 1
    assert calls == []


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("case", [lambert(), framed_c3(2), conifold(-1)])
def test_a_ratio_off_by_one_is_caught(monkeypatch, request, case, k):
    # r(k) times E (or u) puts z_k and every later coefficient off
    symbol = "u" if case.kind is CurveKind.CONIFOLD else "E"
    ratio = curves._ratio

    def off_by_one(case, n):
        num, den = ratio(case, n)
        return (num.mul_term(1, **{symbol: 1}) if n == k else num), den

    monkeypatch.setattr(curves, "_ratio", off_by_one)
    z_closed.cache_clear()
    request.addfinalizer(z_closed.cache_clear)
    # from z_(k+1) on the ratio is right again, so only x^k fails
    report = verify_annihilation(case, 8)
    assert report.first_failure[0] == k
    assert [n for n, ok in enumerate(report.degrees_ok) if not ok] == [k]
    assert recurrence_check(case, 8).first_failure == k - 1
    point = ORACLE_POINTS[0]
    differ = [
        n for n, c in enumerate(z_closed(case, 8).coeffs)
        if _value(c, point) != _product_formula(case, n, point)
    ]
    assert differ == list(range(k, 9))


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

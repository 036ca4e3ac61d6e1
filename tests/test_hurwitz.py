"""Hurwitz pipeline: generating series, extraction, closed form, cut-and-join.

The strongest oracle here is a brute-force monodromy count: H_{g,mu} is
(1/d!) times the number of tuples of b transpositions in S_d whose
product lies in the class mu and whose group acts transitively, with
b = 2g - 2 + l(mu) + |mu|.  This is computed by literal enumeration for
d <= 4 and compared against the character-series extraction.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest

import qcurve.hurwitz as hurwitz
import qcurve.selftest as selftest
from qcurve.combinatorics import centralizer_order, irrep_dimension, kappa, partitions_of
from qcurve.hurwitz import (
    CutJoinReport,
    HurwitzTable,
    LengthTooSmallError,
    burnside_series,
    compare_cut_and_join,
    elsv_genus0,
    hurwitz_genus1,
    hurwitz_one_part,
    hurwitz_table,
    verify_cut_and_join,
)
from qcurve.ring import LaurentPoly, RatFun
from qcurve.selftest import default_golden_dir, hurwitz_payload
from qcurve.symfun import SymFunc, cut_and_join, graded_log, schur_to_powersums


# ---------------------------------------------------------------------------
# the character-side series
# ---------------------------------------------------------------------------

def _as_symfunc(series):
    """The int maps of ``burnside_series`` (or of its log) as a ``SymFunc``
    of ``RatFun``s, each map divided by the z_mu * n! of its partition."""
    return SymFunc(len(series) - 1, {
        mu: RatFun(LaurentPoly({
            (e, 0, 0, 0): Fraction(c, centralizer_order(mu) * factorial(n))
            for e, c in num.items()
        }))
        for n, comp in enumerate(series)
        for mu, num in comp.items()
    })


def test_series_degree_zero_is_one():
    assert burnside_series(0) == [{(): {0: 1}}]
    assert _as_symfunc(burnside_series(0)) == SymFunc.one(0)


def test_series_p1_coefficient_is_one():
    # z_(1) * 1! = 1
    assert burnside_series(1)[1] == {(1,): {0: 1}}


def _schur_sum(degree_cap, prefactor):
    """sum_nu prefactor(nu) * s_nu over 0 < |nu| <= degree_cap, plus 1,
    as SymFunc sums."""
    acc = SymFunc.one(degree_cap)
    for n in range(1, degree_cap + 1):
        for nu in partitions_of(n):
            acc = acc + schur_to_powersums(nu, degree_cap).scale(prefactor(nu))
    return acc


def _schur_sum_exact(degree_cap):
    """Reference: sum_nu dim(nu)/n! * E^kappa_nu * s_nu, exact in E."""
    return _schur_sum(degree_cap, lambda nu: RatFun.term(
        Fraction(irrep_dimension(nu), factorial(sum(nu))), E=kappa(nu)
    ))


def _schur_sum_series(degree_cap, lam_order):
    """Reference: sum_nu dim(nu)/n! * e^(kappa_nu lam/2) * s_nu, each
    exponential expanded through lam^lam_order."""

    def taylor(nu):
        half_kappa = Fraction(kappa(nu), 2)
        coeffs = {}
        term = Fraction(irrep_dimension(nu), factorial(sum(nu)))
        for k in range(lam_order + 1):
            coeffs[(0, 0, k, 0)] = term
            term = term * half_kappa / (k + 1)
        return RatFun(LaurentPoly(coeffs))

    return _schur_sum(degree_cap, taylor)


def test_series_p2_lambda_coefficient():
    # the p_2 coefficient is (E^2 - E^-2)/4 = (e^lam - e^-lam)/4
    # = lam/2 + lam^3/12 + ..., its map over z_(2) * 2! = 4
    assert burnside_series(2)[2][(2,)] == {2: 1, -2: -1}
    c = _schur_sum_series(2, 4).coeff((2,)).num
    assert c.coefficient_of("lam", 0).is_zero()
    assert c.coefficient_of("lam", 1) == LaurentPoly.term(Fraction(1, 2))
    assert c.coefficient_of("lam", 2).is_zero()
    assert c.coefficient_of("lam", 3) == LaurentPoly.term(Fraction(1, 12))


def test_series_matches_schur_sum():
    for degree_cap in range(6):
        series = _as_symfunc(burnside_series(degree_cap))
        assert series == _schur_sum_exact(degree_cap), degree_cap


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_hurwitz_basic_values():
    tbl = hurwitz_table(2, 3)
    assert tbl.value(0, (1,)) == 1
    assert tbl.value(0, (2,)) == Fraction(1, 2)
    for g in (1, 2, 3):
        assert tbl.value(g, (1,)) == 0


def test_value_rejects_parts_below_one():
    # the closed forms' check, not a KeyError from the table
    tbl = hurwitz_table(3, 1)
    assert tbl.value(0, (1, 2)) == tbl.value(0, (2, 1))
    for mu in ((2, 0), (0,), (1, 1, -1)):
        with pytest.raises(ValueError, match="every part of mu must be >= 1"):
            tbl.value(0, mu)


def test_log_maps_are_the_ring_log_over_the_implied_denominators():
    # n * L_n of _graded_dlog, each map over z_mu * n!, against
    # symfun.graded_log of the same series as RatFuns
    for degree_cap in range(7):
        series = burnside_series(degree_cap)
        dlogs = hurwitz._graded_dlog(series)
        log = graded_log(_as_symfunc(series))
        assert _as_symfunc(dlogs) == SymFunc(degree_cap, {
            mu: c.scale(sum(mu)) for mu, c in log.terms.items()
        }), degree_cap
        # no zero coefficient is stored
        assert all(num and all(num.values()) for comp in dlogs for num in comp.values())


def test_empty_and_negative_caps():
    assert hurwitz_table(0, 2).entries == {}
    with pytest.raises(ValueError, match="degree cap must be >= 0"):
        hurwitz_table(-1, 2)
    # a negative genus cap fails as a negative degree cap does, not with
    # an empty table
    for degree_cap in (0, 2, 3):
        with pytest.raises(ValueError, match="genus cap must be >= 0"):
            hurwitz_table(degree_cap, -1)


def _lam_log_table(degree_cap, genus_cap):
    """Reference: b! * [lam^b p_mu] of the log of the lam series through
    lam^M, M = 2G - 2 + 2D, the lam powers above M dropped after the log."""
    M = max(0, 2 * genus_cap - 2 + 2 * degree_cap)
    log = graded_log(_schur_sum_series(degree_cap, M))
    entries = {}
    for n in range(1, degree_cap + 1):
        for mu in partitions_of(n):
            num = log.coeff(mu).num.truncate_symbol("lam", M)
            for g in range(genus_cap + 1):
                b = 2 * g - 2 + len(mu) + n
                if b >= 0:
                    c = num.coefficient_of("lam", b)
                    assert set(c.terms) <= {(0, 0, 0, 0)}, c  # a scalar
                    entries[(g, mu)] = Fraction(c.terms.get((0, 0, 0, 0), 0), c.den) * factorial(b)
    return entries


def test_exact_log_matches_lam_series_log():
    for d in range(1, 8):
        for g in range(5):
            assert hurwitz_table(d, g).entries == _lam_log_table(d, g), (d, g)


def test_table_to_degree_12_genus_6_is_pinned():
    # 1897 rows, well past degree 7 where the lam-series reference stops;
    # the digest was recorded from the graded_log implementation
    rows = hurwitz_payload(12, 6)
    assert len(rows) == 1897
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "926d342609e073dc2aa66c16fcc3933bf06a7bfa1aed1853873e0241f64a3a2b"


def test_every_genus_comes_from_one_log():
    small = hurwitz_table(8, 3).entries
    big = hurwitz_table(8, 8).entries
    assert {k: v for k, v in big.items() if k[0] <= 3} == small


def test_nonnegativity_and_parity():
    tbl = hurwitz_table(5, 2)
    for (g, mu), v in tbl.entries.items():
        assert v >= 0, ((g, mu), v)
    # the lam-polynomial multiplying p_mu has only powers of parity
    # l(mu) + |mu| (mod 2), since b = 2g - 2 + l + |mu|
    M = 8
    log = graded_log(_schur_sum_series(4, M))
    for mu, c in log.terms.items():
        parity = (len(mu) + sum(mu)) % 2
        for mono in c.num.truncate_symbol("lam", M).terms:
            assert mono[2] % 2 == parity, (mu, mono)


# ---------------------------------------------------------------------------
# brute-force monodromy oracle
# ---------------------------------------------------------------------------

def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _cycle_type(perm):
    d = len(perm)
    seen = [False] * d
    parts = []
    for i in range(d):
        if not seen[i]:
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def _transitive(perms, d):
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in reached:
                reached.add(p[i])
                frontier.append(p[i])
    return len(reached) == d


def brute_hurwitz(g, mu):
    d = sum(mu)
    b = 2 * g - 2 + len(mu) + d
    assert b >= 0
    identity = tuple(range(d))
    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            t = list(identity)
            t[i], t[j] = t[j], t[i]
            transpositions.append(tuple(t))
    count = 0
    for taus in itertools.product(transpositions, repeat=b):
        prod = identity
        for t in taus:
            prod = _compose(t, prod)
        if _cycle_type(prod) != mu:
            continue
        # the remaining monodromy is the inverse of the product, hence
        # lies in the group generated by the transpositions
        if d == 1 or _transitive(taus, d):
            count += 1
    return Fraction(count, factorial(d))


def test_table_against_monodromy_enumeration():
    tbl = hurwitz_table(4, 1)
    checked = 0
    for n in range(1, 5):
        for mu in partitions_of(n):
            for g in (0, 1):
                b = 2 * g - 2 + len(mu) + n
                if b < 0 or b > 6:
                    continue
                assert tbl.value(g, mu) == brute_hurwitz(g, mu), (g, mu)
                checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# genus-0 closed form
# ---------------------------------------------------------------------------

def test_elsv_examples():
    # (1,1,1): b = 4 branch points, 1/|Aut| = 1/6, product 1, 3^0 = 1
    assert elsv_genus0((1, 1, 1)) == 4  # = 4!/6, equals brute_hurwitz(0,(1,1,1))
    assert elsv_genus0((1, 1, 1)) == brute_hurwitz(0, (1, 1, 1))
    # (2,1,1): b = 5, 1/2 * (2^2/2!) * 1 * 1 * 4^0 = 1 before the b!
    assert elsv_genus0((2, 1, 1)) == 120


def test_elsv_refuses_short_partitions():
    with pytest.raises(LengthTooSmallError):
        elsv_genus0((2,))
    with pytest.raises(LengthTooSmallError):
        elsv_genus0((3, 1))


def test_elsv_rejects_parts_below_one():
    for mu in ((1, 1, 0), (2, 1, -1), (0, 0, 0)):
        with pytest.raises(ValueError, match="every part of mu must be >= 1"):
            elsv_genus0(mu)


def _orderings(mu):
    """Every distinct ordering of the parts of mu."""
    return set(itertools.permutations(mu))


def test_elsv_matches_series_extraction():
    # d = 9 is the paper's depth; (dmax, gmax, partitions with >= 3 parts)
    for dmax, gmax, count in ((5, 0, 7), (9, 1, 67)):
        tbl = hurwitz_table(dmax, gmax)
        checked = 0
        for n in range(3, dmax + 1):
            for mu in partitions_of(n):
                if len(mu) >= 3:
                    assert tbl.value(0, mu) == elsv_genus0(mu), mu
                    checked += 1
                    if n <= 6:  # the closed form is symmetric in the parts
                        for order in _orderings(mu):
                            assert elsv_genus0(order) == tbl.value(0, mu), order
                            assert tbl.value(0, order) == tbl.value(0, mu), order
        assert checked == count


# ---------------------------------------------------------------------------
# genus-1 and one-part closed forms
# ---------------------------------------------------------------------------

def test_genus1_and_one_part_examples():
    # H_{1,(1)} = 0: no genus-1 cover of degree 1
    assert hurwitz_genus1((1,)) == 0
    assert hurwitz_one_part(1, 1) == 0
    # (2): r = 3, 3!/24 * (2^2/2!) * (2 - 1) = 1/2; one part agrees
    assert hurwitz_genus1((2,)) == hurwitz_one_part(1, 2) == Fraction(1, 2)
    assert hurwitz_one_part(0, 1) == 1
    assert hurwitz_one_part(0, 2) == Fraction(1, 2)
    for mu in ((2,), (1, 1), (3,), (2, 1)):
        assert hurwitz_genus1(mu) == brute_hurwitz(1, mu), mu
    with pytest.raises(ValueError):
        hurwitz_one_part(0, 0)
    with pytest.raises(ValueError):
        hurwitz_genus1(())


def test_genus1_rejects_parts_below_one():
    for mu in ((2, 0), (0,), (3, -1)):
        with pytest.raises(ValueError, match="every part of mu must be >= 1"):
            hurwitz_genus1(mu)


def test_genus1_formula_matches_the_table():
    tbl = hurwitz_table(12, 6)
    mus = [mu for n in range(1, 13) for mu in partitions_of(n)]
    assert len(mus) == 271
    for mu in mus:
        assert tbl.value(1, mu) == hurwitz_genus1(mu), mu
        if sum(mu) <= 6:  # the closed form is symmetric in the parts
            for order in _orderings(mu):
                assert hurwitz_genus1(order) == tbl.value(1, mu), order
                assert tbl.value(1, order) == tbl.value(1, mu), order


def test_one_part_formula_matches_the_table():
    tbl = hurwitz_table(12, 6)
    for g in range(7):
        for d in range(1, 13):
            assert tbl.value(g, (d,)) == hurwitz_one_part(g, d), (g, d)


@pytest.mark.parametrize("key, detail", [
    ((1, (3, 1)), "genus-1 formula disagrees at (3, 1)"),
    ((2, (4,)), "one-part formula disagrees at genus 2, degree 4"),
])
def test_selftest_catches_an_entry_off_by_one(monkeypatch, key, detail):
    assert selftest._suite_hurwitz_elsv() is None

    def off_by_one(dmax, gmax):
        tbl = hurwitz_table(dmax, gmax)
        entries = dict(tbl.entries)
        entries[key] += 1
        return HurwitzTable(entries, dmax, gmax)

    monkeypatch.setattr(selftest, "hurwitz_table", off_by_one)
    assert selftest._suite_hurwitz_elsv() == detail


# ---------------------------------------------------------------------------
# cut-and-join equation
# ---------------------------------------------------------------------------

def test_cut_and_join_equation_holds():
    for d in range(1, 7):
        assert verify_cut_and_join(d).ok, d


def test_cut_and_join_trivial_cap():
    report = verify_cut_and_join(0)
    assert report.ok
    assert report.coefficients_checked == 1  # the empty coefficient of p_()


def test_cut_and_join_at_the_degree_cap():
    report = verify_cut_and_join(14)
    assert report.ok
    assert report.coefficients_checked == 19502


def _ring_cut_and_join(series):
    """Reference: the check on the ``SymFunc`` view, K by
    ``symfun.cut_and_join`` against (E/2) d/dE of each ``RatFun``,
    compared and counted as ``compare_cut_and_join`` does."""
    view = _as_symfunc(series)
    lhs = view.map_coeffs(lambda c: c.diff("E").mul_term(Fraction(1, 2), E=1))
    rhs = cut_and_join(view)
    checked = 0
    for n in range(view.cap + 1):
        for mu in partitions_of(n):
            a, b = lhs.coeff(mu), rhs.coeff(mu)
            if a != b:
                return CutJoinReport(view.cap, False, checked, (mu, str(a), str(b)))
            checked += len(a.num.terms) or 1
    return CutJoinReport(view.cap, True, checked)


def _perturbed(degree_cap, target, extra):
    """burnside_series(degree_cap) with the ints extra[e] added into the
    p_target map, that is sum_e extra[e] E^e / (z * n!) added to its
    coefficient."""
    series = burnside_series(degree_cap)
    num = series[sum(target)][target]
    for e, c in extra.items():
        num[e] = num.get(e, 0) + c
    series[sum(target)][target] = {e: c for e, c in num.items() if c}
    return series


# (E - 1/E)^9 = (2 sinh(lam/2))^9 starts at lam^9
_SINH9 = {9 - 2 * k: (-1) ** k * comb(9, k) for k in range(10)}
_PERTURBED = (
    # E^2 / 12 on p_(2,1), over z_(2,1) * 3! = 12
    (4, (2, 1), {2: 1}),
    # (E - 1/E)^9 / 4 on p_(2), over z_(2) * 2! = 4
    (2, (2,), _SINH9),
)


def test_cut_and_join_matches_the_ring_reference():
    for d in range(7):
        series = burnside_series(d)
        assert compare_cut_and_join(series) == _ring_cut_and_join(series), d
    for args in _PERTURBED:
        series = _perturbed(*args)
        report = compare_cut_and_join(series)
        assert not report.ok
        assert report == _ring_cut_and_join(series), args


def test_cut_and_join_detects_injected_fault():
    report = compare_cut_and_join(_perturbed(*_PERTURBED[0]))
    assert not report.ok
    mu, lhs, rhs = report.first_mismatch
    # K joins the parts of p_(2,1) into 2 p_(3), which precedes (2, 1)
    assert mu == (3,)
    assert lhs != rhs


def test_cut_and_join_detects_a_fault_beyond_lam_order_8():
    # _SINH9 / 4 starts at lam^9 and its lam-derivative at lam^8, so
    # comparing both sides through lam^7, all that a series expanded
    # through lam^8 allows, does not see it
    moments = [sum(c * e**b for e, c in _SINH9.items()) for b in range(10)]
    assert moments[:9] == [0] * 9 and moments[9]
    report = compare_cut_and_join(_perturbed(*_PERTURBED[1]))
    assert not report.ok
    mu, lhs, rhs = report.first_mismatch
    assert mu == (2,)
    assert lhs != rhs


# ---------------------------------------------------------------------------
# fault injection inside the exact series
# ---------------------------------------------------------------------------

@pytest.fixture
def shifted_kappa(monkeypatch):
    """E^(kappa + 2) for the shape (3, 1) in the exact series, i.e. the
    exponential e^(kappa lam/2) of one degree-4 shape off by e^lam."""
    real = hurwitz.kappa
    monkeypatch.setattr(hurwitz, "kappa", lambda nu: real(nu) + 2 * (nu == (3, 1)))


def test_shifted_exponent_breaks_the_golden_table(shifted_kappa):
    golden = json.loads((default_golden_dir() / "hurwitz_d4_g2.json").read_text())
    assert hurwitz_payload(4, 2) != golden


def test_shifted_exponent_breaks_cut_and_join(shifted_kappa):
    series = burnside_series(4)
    report = compare_cut_and_join(series)
    assert not report.ok
    assert sum(report.first_mismatch[0]) == 4
    assert report == _ring_cut_and_join(series)


def test_shifted_exponent_breaks_the_monodromy_count(shifted_kappa):
    tbl = hurwitz_table(4, 1)
    assert any(
        tbl.value(g, mu) != brute_hurwitz(g, mu)
        for mu in partitions_of(4)
        for g in (0, 1)
        if 2 * g - 2 + len(mu) + 4 <= 6
    )

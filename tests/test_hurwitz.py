"""Hurwitz pipeline: generating series, extraction, closed form, cut-and-join.

The strongest oracle here is a brute-force monodromy count: H_{g,mu} is
(1/d!) times the number of tuples of b transpositions in S_d whose
product lies in the class mu and whose group acts transitively, with
b = 2g - 2 + l(mu) + |mu|.  This is computed by literal enumeration for
d <= 4 and compared against the character-series extraction.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from qcurve.combinatorics import irrep_dimension, kappa, partitions_of
from qcurve.hurwitz import (
    BurnsideSeries,
    LengthTooSmallError,
    burnside_series,
    compare_cut_and_join,
    default_lam_order,
    elsv_genus0,
    hurwitz_table,
    verify_cut_and_join,
)
from qcurve.ring import LaurentPoly, RatFun
from qcurve.symfun import SymFunc, schur_to_powersums


# ---------------------------------------------------------------------------
# the character-side series
# ---------------------------------------------------------------------------

def test_series_degree_zero_is_one():
    bs = burnside_series(0, 3)
    assert bs.sym == SymFunc.one(0)


def test_series_p1_coefficient_is_one():
    bs = burnside_series(1, 4)
    assert bs.sym.coeff((1,)) == RatFun.one()


def test_series_p2_lambda_coefficient():
    # the p_2 coefficient is (e^lam - e^-lam)/4 = lam/2 + lam^3/12 + ...
    bs = burnside_series(2, 4)
    c = bs.sym.coeff((2,)).num
    assert c.coefficient_of("lam", 0).is_zero()
    assert c.coefficient_of("lam", 1).as_scalar() == Fraction(1, 2)
    assert c.coefficient_of("lam", 2).is_zero()
    assert c.coefficient_of("lam", 3).as_scalar() == Fraction(1, 12)


def _schur_sum_series(degree_cap, lam_order):
    """Reference: sum_nu dim(nu)/n! * e^(kappa_nu lam/2) * s_nu as SymFunc sums."""
    acc = SymFunc.one(degree_cap)
    for n in range(1, degree_cap + 1):
        for nu in partitions_of(n):
            half_kappa = Fraction(kappa(nu), 2)
            taylor = {}
            term = Fraction(irrep_dimension(nu), factorial(n))
            for k in range(lam_order + 1):
                taylor[(0, 0, k, 0)] = term
                term = term * half_kappa / (k + 1)
            prefactor = RatFun.from_poly(LaurentPoly(taylor))
            acc = acc + schur_to_powersums(nu, degree_cap).scale(prefactor)
    return acc


def test_series_matches_schur_sum():
    for degree_cap in range(6):
        for lam_order in (0, 1, 2, 5, 10):
            got = burnside_series(degree_cap, lam_order).sym
            want = _schur_sum_series(degree_cap, lam_order)
            assert got == want, (degree_cap, lam_order)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_hurwitz_basic_values():
    tbl = hurwitz_table(2, 3)
    assert tbl.value(0, (1,)) == 1
    assert tbl.value(0, (2,)) == Fraction(1, 2)
    for g in (1, 2, 3):
        assert tbl.value(g, (1,)) == 0


def test_default_lam_order_covers_requests():
    assert default_lam_order(2, 0) == 2
    assert default_lam_order(6, 3) == 16
    for d in range(1, 5):
        for g in range(3):
            m = default_lam_order(d, g)
            assert 2 * g - 2 + 2 * d <= m


def test_nonnegativity_and_parity():
    tbl = hurwitz_table(5, 2)
    for (g, mu), v in tbl.entries.items():
        assert v >= 0, ((g, mu), v)
    # the lam-polynomial multiplying p_mu has only powers of parity
    # l(mu) + |mu| (mod 2), since b = 2g - 2 + l + |mu|
    from qcurve.symfun import graded_log

    M = 8
    series = burnside_series(4, M)
    log = graded_log(series.sym, lam_cap=M)
    for mu, c in log.terms.items():
        parity = (len(mu) + sum(mu)) % 2
        for mono in c.num.terms:
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
        assert checked == count


# ---------------------------------------------------------------------------
# cut-and-join equation
# ---------------------------------------------------------------------------

def test_cut_and_join_equation_holds():
    assert verify_cut_and_join(2, 4).ok
    assert verify_cut_and_join(4, 6).ok
    assert verify_cut_and_join(6, 12).ok


def test_cut_and_join_trivial_cap():
    assert verify_cut_and_join(0, 2).ok


def test_cut_and_join_detects_injected_fault():
    series = burnside_series(2, 4)
    # perturb the lam^2 part of the p_(2) coefficient
    target = (2,)
    poly = series.sym.coeff(target)
    bad = poly + RatFun.term(Fraction(1, 7), lam=2)
    terms = dict(series.sym.terms)
    terms[target] = bad
    perturbed = BurnsideSeries(SymFunc(2, terms), 2, 4)
    report = compare_cut_and_join(perturbed)
    assert not report.ok
    mu, power, lhs, rhs = report.first_mismatch
    assert mu == target
    assert power in (1, 2)  # derivative shifts lam^2 down; K keeps it
    assert lhs != rhs

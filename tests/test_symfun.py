"""Power-sum symmetric functions, Schur expansion, specializations."""

import random
from fractions import Fraction

import pytest

from qcurve.combinatorics import kappa, partitions_of
from qcurve.ring import LaurentPoly, RatFun
from qcurve.symfun import (
    BadConstantTermError,
    DegreeCapExceededError,
    Specialization,
    SymFunc,
    cut_and_join,
    graded_exp,
    graded_log,
    powersum_from_schurs,
    quantum_dimension,
    schur_to_powersums,
    specialize,
)

ONE = LaurentPoly.one()
HALF = RatFun.from_scalar(Fraction(1, 2))


def test_schur_degree_one():
    assert schur_to_powersums((1,), 4) == SymFunc.p((1,), 4)


def test_schur_degree_two():
    s2 = schur_to_powersums((2,), 2)
    assert s2 == SymFunc(2, {(2,): HALF, (1, 1): HALF})
    s11 = schur_to_powersums((1, 1), 2)
    assert s11 == SymFunc(2, {(2,): -HALF, (1, 1): HALF})


def test_schur_cap_error():
    with pytest.raises(DegreeCapExceededError):
        schur_to_powersums((3, 1), 3)


def test_powersum_inverse_expansion():
    for n in range(9):
        for nu in partitions_of(n):
            assert powersum_from_schurs(nu, n) == SymFunc.p(nu, n)


def test_cut_and_join_p1():
    assert cut_and_join(SymFunc.p((1,), 3)).is_zero()


def test_cut_and_join_p2():
    assert cut_and_join(SymFunc.p((2,), 3)) == SymFunc.p((1, 1), 3)


def test_cut_and_join_schur_eigenvalue_small():
    s2 = schur_to_powersums((2,), 2)
    assert cut_and_join(s2) == s2  # kappa/2 = 1
    for n in range(7):
        for nu in partitions_of(n):
            s = schur_to_powersums(nu, n)
            assert cut_and_join(s) == s.scale(Fraction(kappa(nu), 2)), nu


def test_cut_and_join_degree_preserving_length_change():
    # every image monomial has the same size, with length changed by +-1
    f = SymFunc.p((3, 2), 5)
    image = cut_and_join(f)
    for mu in image.terms:
        assert sum(mu) == 5
        assert abs(len(mu) - 2) == 1


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------

def u(power):
    return LaurentPoly.symbol("u", power)


def quantum_factorial_den(n):
    acc = LaurentPoly.one()
    for j in range(1, n + 1):
        acc = acc * (u(j) - u(-j))
    return acc


def test_principal_of_p1():
    got = specialize(schur_to_powersums((1,), 1), Specialization.PRINCIPAL)
    assert got == RatFun(ONE, u(1) - u(-1))


def test_principal_image_is_geometric_series_limit():
    # the p_m image 1/[m] is the summed alphabet (u^-1, u^-3, ...): the
    # K-term partial sum differs from it by exactly u^(-2mK)/[m]
    from qcurve.symfun import _principal_image

    for m in range(1, 5):
        image = _principal_image(m)
        for K in (1, 2, 5):
            partial = RatFun.zero()
            for k in range(K):
                partial = partial + RatFun.term(1, u=-m * (2 * k + 1))
            tail = image.mul_term(1, u=-2 * m * K)
            assert partial + tail == image, (m, K)


def test_principal_single_row_identity():
    # s_(n) -> u^(n(n-1)/2) / [n]!
    for n in range(1, 8):
        got = specialize(schur_to_powersums((n,), n), Specialization.PRINCIPAL)
        want = RatFun(u(n * (n - 1) // 2), quantum_factorial_den(n))
        assert got == want, n


def test_specialize_is_multiplicative():
    rng = random.Random(424242)
    for kind in (Specialization.PRINCIPAL, Specialization.CONIFOLD_Y):
        for _ in range(10):
            f = SymFunc(
                4,
                {
                    mu: RatFun.from_scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for n in range(3)
                    for mu in partitions_of(n)
                    if rng.random() < 0.6
                },
            )
            g = SymFunc(
                4,
                {
                    mu: RatFun.from_scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for n in range(3)
                    for mu in partitions_of(n)
                    if rng.random() < 0.6
                },
            )
            assert specialize(f * g, kind) == specialize(f, kind) * specialize(g, kind)


def test_quantum_dimension_single_cell():
    want = RatFun(
        LaurentPoly.symbol("Qh", -1) - LaurentPoly.symbol("Qh", 1),
        u(1) - u(-1),
    )
    assert quantum_dimension((1,)) == want


def test_quantum_dimension_single_row_product_form():
    # independent construction of the row product
    for n in range(1, 6):
        acc = RatFun.one()
        for j in range(1, n + 1):
            num = LaurentPoly.term(1, Qh=-1, u=j - 1) - LaurentPoly.term(1, Qh=1, u=-(j - 1))
            acc = acc * RatFun(num, u(j) - u(-j))
        assert quantum_dimension((n,)) == acc


def test_quantum_dimension_matches_conifold_specialization():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert quantum_dimension(mu) == specialize(
                schur_to_powersums(mu, n), Specialization.CONIFOLD_Y
            ), mu


# ---------------------------------------------------------------------------
# graded log / exp
# ---------------------------------------------------------------------------

def test_graded_log_of_geometric():
    f = SymFunc(5, {(): RatFun.one(), (1,): RatFun.one()})
    got = graded_log(f)
    want = SymFunc(
        5,
        {
            (1,) * k: RatFun.from_scalar(Fraction((-1) ** (k - 1), k))
            for k in range(1, 6)
        },
    )
    assert got == want


def test_graded_exp_of_zero():
    assert graded_exp(SymFunc.zero(4)) == SymFunc.one(4)


def test_graded_log_exp_round_trip():
    rng = random.Random(1234)
    for _ in range(8):
        f = SymFunc(
            6,
            {
                mu: RatFun.from_scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                for n in range(1, 5)
                for mu in partitions_of(n)
                if rng.random() < 0.4
            },
        )
        assert graded_log(graded_exp(f)) == f
        g = SymFunc.one(6) + f
        assert graded_exp(graded_log(g)) == g


def _power_series_log(f, lam_cap=None):
    """Reference: log(1 + g) = sum_k (-1)^(k-1) g^k / k, truncating each power."""
    g = f - SymFunc.one(f.cap)
    acc = SymFunc.zero(f.cap)
    power = SymFunc.one(f.cap)
    for k in range(1, f.cap + 1):
        power = power.mul(g, lam_cap=lam_cap)
        acc = acc + power.scale(Fraction((-1) ** (k - 1), k))
    return acc


def _random_lam_series(rng, cap, lam_degree, with_u):
    terms = {(): RatFun.one()}
    for n in range(1, cap + 1):
        for mu in partitions_of(n):
            if rng.random() < 0.5:
                continue
            poly = LaurentPoly.zero()
            for _ in range(rng.randint(1, 3)):
                coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                lam = rng.randint(0, lam_degree)
                u = rng.randint(-2, 2) if with_u else 0
                poly = poly + LaurentPoly.term(coeff, lam=lam, u=u)
            terms[mu] = RatFun.from_poly(poly)
    return SymFunc(cap, terms)


def test_graded_log_matches_power_series():
    rng = random.Random(2024)
    cases = 0
    for lam_cap in (None, 0, 1, 3, 5):
        for trial in range(8):
            cap = rng.randint(1, 5)
            # lam-degrees up to 6 exceed every finite cap below 6
            f = _random_lam_series(rng, cap, 6, with_u=trial % 2 == 1)
            assert graded_log(f, lam_cap=lam_cap) == _power_series_log(f, lam_cap), (
                lam_cap, f
            )
            cases += 1
    # a coefficient with a non-unit denominator is only allowed without a lam cap
    pole = RatFun(LaurentPoly.term(2, lam=1), ONE - LaurentPoly.symbol("u", 2))
    f = SymFunc(4, {(): RatFun.one(), (1,): pole, (2, 1): HALF, (2,): pole * pole})
    assert not pole.den.is_one()
    assert graded_log(f) == _power_series_log(f)
    assert cases == 40


def test_bad_constant_term_errors():
    with pytest.raises(BadConstantTermError):
        graded_log(SymFunc.zero(3))
    with pytest.raises(BadConstantTermError):
        graded_exp(SymFunc.one(3))


def test_lam_cap_truncation_is_exact_on_retained_orders():
    lam = RatFun.term(1, lam=1)
    f = SymFunc(4, {(1,): RatFun.one() + lam, (2,): lam})
    full = f.mul(f)
    capped = f.mul(f, lam_cap=1)
    for mu, c in capped.terms.items():
        assert c.num == full.coeff(mu).num.truncate_symbol("lam", 1)


def test_symfunc_text_form():
    s2 = schur_to_powersums((2,), 2)
    assert str(s2) == "(1/2) * p[2] + (1/2) * p[1,1]"

"""Power-sum symmetric functions, Schur expansion, specializations."""

import random
import re
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcurve.symfun as symfun
from qcurve.combinatorics import (
    hooks_and_contents,
    irrep_dimension,
    kappa,
    partitions_of,
)
from qcurve.curves import (
    conifold,
    framed_c3,
    verify_annihilation,
    z_closed,
    z_from_characters,
)
from qcurve.hurwitz import burnside_series, hurwitz_table
from qcurve.ring import LaurentPoly, RatFun
from qcurve.selftest import _suite_route_equivalence, _suite_specializations
from qcurve.symfun import (
    BadConstantTermError,
    DegreeCapExceededError,
    Specialization,
    SymFunc,
    cut_and_join,
    graded_exp,
    graded_log,
    powersum_from_schurs,
    principal_schur,
    quantum_dimension,
    schur_to_powersums,
    specialize,
)

from test_hurwitz import _as_symfunc

ONE = LaurentPoly.one()
HALF = RatFun.term(Fraction(1, 2))


def _p(mu, cap):
    """The power-sum monomial p_mu."""
    return SymFunc(cap, {mu: RatFun.one()})


def test_schur_degree_one():
    assert schur_to_powersums((1,), 4) == _p((1,), 4)


def test_schur_degree_two():
    s2 = schur_to_powersums((2,), 2)
    assert s2 == SymFunc(2, {(2,): HALF, (1, 1): HALF})
    s11 = schur_to_powersums((1, 1), 2)
    assert s11 == SymFunc(2, {(2,): -HALF, (1, 1): HALF})


def test_schur_cap_error():
    with pytest.raises(DegreeCapExceededError):
        schur_to_powersums((3, 1), 3)


@pytest.mark.parametrize("nu", [(1, 2), (2, 1, 3), (1, 1, 2), (-1,), (0,), (2, 0), (3, -1)])
@pytest.mark.parametrize("entry", [
    quantum_dimension, partial(schur_to_powersums, cap=8), principal_schur,
    irrep_dimension, kappa,
], ids=["quantum_dimension", "schur_to_powersums", "principal_schur",
        "irrep_dimension", "kappa"])
def test_a_tuple_that_is_not_a_partition_is_rejected(entry, nu):
    # the parts must be positive and weakly decreasing: (1, 2) is not (2, 1)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(nu))} is not a partition"):
        entry(nu)


def test_powersum_inverse_expansion():
    for n in range(9):
        for nu in partitions_of(n):
            assert powersum_from_schurs(nu, n) == _p(nu, n)


def test_cut_and_join_p1():
    assert cut_and_join(_p((1,), 3)).is_zero()


def test_cut_and_join_p2():
    assert cut_and_join(_p((2,), 3)) == _p((1, 1), 3)


def test_cut_and_join_schur_eigenvalue_small():
    s2 = schur_to_powersums((2,), 2)
    assert cut_and_join(s2) == s2  # kappa/2 = 1
    for n in range(7):
        for nu in partitions_of(n):
            s = schur_to_powersums(nu, n)
            assert cut_and_join(s) == s.scale(Fraction(kappa(nu), 2)), nu


def test_cut_and_join_degree_preserving_length_change():
    # every image monomial has the same size, with length changed by +-1
    f = _p((3, 2), 5)
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
    for m in range(1, 5):
        image = symfun._powersum_product_image((m,), Specialization.PRINCIPAL)
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
                    mu: RatFun.term(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for n in range(3)
                    for mu in partitions_of(n)
                    if rng.random() < 0.6
                },
            )
            g = SymFunc(
                4,
                {
                    mu: RatFun.term(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for n in range(3)
                    for mu in partitions_of(n)
                    if rng.random() < 0.6
                },
            )
            assert specialize(f * g, kind) == specialize(f, kind) * specialize(g, kind)


def per_part_image(mu, kind):
    """The p_mu image folded one normalizing RatFun per part."""
    acc = RatFun.one()
    for m in mu:
        num = ONE
        if kind is Specialization.CONIFOLD_Y:
            num = LaurentPoly.symbol("Qh", -m) - LaurentPoly.symbol("Qh", m)
        acc = acc * RatFun(num, u(m) - u(-m))
    return acc


def test_powersum_product_image_is_product_over_parts():
    for kind in Specialization:
        for n in range(9):
            for mu in partitions_of(n):
                want = per_part_image(mu, kind)
                assert symfun._powersum_product_image(mu, kind) == want, (kind, mu)


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


def per_cell_quantum_dimension(mu):
    """The hook-content product folded one normalizing RatFun per cell."""
    acc = RatFun.one()
    for hook, content in hooks_and_contents(mu):
        num = LaurentPoly.term(1, Qh=-1, u=content) - LaurentPoly.term(1, Qh=1, u=-content)
        acc = acc * RatFun(num, u(hook) - u(-hook))
    return acc


def per_cell_principal_schur(mu):
    """The hook-content product E^(h-c)/(1 - E^(2h)) folded one
    normalizing RatFun per cell."""
    acc = RatFun.one()
    for hook, content in hooks_and_contents(mu):
        e = LaurentPoly.symbol("E", 2 * hook)
        acc = acc * RatFun(LaurentPoly.term(1, E=hook - content), ONE - e)
    return acc


def test_quantum_dimension_is_the_per_cell_fold():
    for n in range(10):
        for mu in partitions_of(n):
            assert quantum_dimension(mu) == per_cell_quantum_dimension(mu), mu


def _normalizations(monkeypatch, build, mu):
    """RatFun.__init__ calls (each one normalization) made by build(mu)."""
    calls = []
    init = RatFun.__init__
    monkeypatch.setattr(
        RatFun, "__init__", lambda self, *args: calls.append(args) or init(self, *args)
    )
    try:
        build(mu)
    finally:
        monkeypatch.setattr(RatFun, "__init__", init)
    return len(calls)


# (built canonical, the same value folded one normalizing RatFun per
# factor, the number of factors)
BUILT_CANONICAL = [
    (quantum_dimension, per_cell_quantum_dimension, sum),
    (principal_schur, per_cell_principal_schur, sum),
] + [
    (partial(symfun._powersum_product_image, kind=kind),
     partial(per_part_image, kind=kind), len)
    for kind in Specialization
]


@pytest.mark.parametrize("mu", [(), (1,), (3,), (2, 1), (3, 2, 1), (4, 2, 2, 1)])
def test_quantum_dimension_makes_no_normalization(monkeypatch, mu):
    # also the c3 weight and the p_mu images of both specializations
    for build, fold, factors in BUILT_CANONICAL:
        quantum_dimension.cache_clear()
        symfun._powersum_product_image.cache_clear()
        assert _normalizations(monkeypatch, build, mu) == 0, fold
        # the guard catches a per-factor fold
        assert _normalizations(monkeypatch, fold, mu) >= factors(mu), fold


def test_quantum_dimension_is_canonical_as_built():
    # also the c3 weight and the p_mu images of both specializations
    for build, _, _ in BUILT_CANONICAL:
        for n in range(9):
            for mu in partitions_of(n):
                q = build(mu)
                again = RatFun(q.num, q.den)
                assert (again.num.terms, again.num.den) == (q.num.terms, q.num.den), mu
                assert (again.den.terms, again.den.den) == (q.den.terms, q.den.den), mu
                # monic in its one symbol, with constant term +-1
                lead = max(q.den.terms)
                assert q.den.den == 1 and q.den.terms[lead] == 1, mu
                assert q.den.terms[(0, 0, 0, 0)] in (1, -1), mu


def _hook_off_by_one(mu):
    """hooks_and_contents with the first cell's hook one too large."""
    (hook, content), *rest = hooks_and_contents(mu)
    return [(hook + 1, content), *rest]


def test_a_wrong_hook_is_caught(monkeypatch):
    assert _suite_specializations() is None
    assert _suite_route_equivalence() is None
    quantum_dimension.cache_clear()
    monkeypatch.setattr(symfun, "hooks_and_contents", _hook_off_by_one)
    try:
        for a in (-1, 0, 2):
            assert z_from_characters(conifold(a), 6) != z_closed(conifold(a), 6), a
            # the c3 weight reads the same hooks: the route fails at x^1
            rebuilt, closed = z_from_characters(framed_c3(a), 6), z_closed(framed_c3(a), 6)
            differ = [n for n in range(7) if rebuilt.coeff(n) != closed.coeff(n)]
            assert differ[0] == 1, a
            # forward annihilation builds no weight
            assert verify_annihilation(framed_c3(a), 6).ok, a
        assert _suite_specializations() == "quantum dimension disagrees at (1,)"
        assert _suite_route_equivalence() == "routes disagree for c3 framing -1"
    finally:
        quantum_dimension.cache_clear()


def test_a_wrong_image_is_caught(monkeypatch):
    assert _suite_specializations() is None
    assert _suite_route_equivalence() is None
    image = symfun._powersum_product_image

    def extra_u_at_21(mu, kind):
        return image(mu, kind).mul_term(1, u=1) if mu == (2, 1) else image(mu, kind)

    monkeypatch.setattr(symfun, "_powersum_product_image", extra_u_at_21)
    assert _suite_specializations() == "principal identity fails at n=3"
    # the c3 route builds its weights without the p_mu images
    assert z_from_characters(framed_c3(1), 4) == z_closed(framed_c3(1), 4)
    assert _suite_route_equivalence() is None


# ---------------------------------------------------------------------------
# graded log / exp
# ---------------------------------------------------------------------------

def test_graded_log_of_geometric():
    f = SymFunc(5, {(): RatFun.one(), (1,): RatFun.one()})
    got = graded_log(f)
    want = SymFunc(
        5,
        {
            (1,) * k: RatFun.term(Fraction((-1) ** (k - 1), k))
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
                mu: RatFun.term(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                for n in range(1, 5)
                for mu in partitions_of(n)
                if rng.random() < 0.4
            },
        )
        assert graded_log(graded_exp(f)) == f
        g = SymFunc.one(6) + f
        assert graded_exp(graded_log(g)) == g


def _power_series_log(f):
    """Reference: log(1 + g) = sum_k (-1)^(k-1) g^k / k."""
    g = f - SymFunc.one(f.cap)
    acc = SymFunc.zero(f.cap)
    power = SymFunc.one(f.cap)
    for k in range(1, f.cap + 1):
        power = power.mul(g)
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
            terms[mu] = RatFun(poly)
    return SymFunc(cap, terms)


def test_graded_log_matches_power_series():
    rng = random.Random(2024)
    cases = 0
    for trial in range(40):
        cap = rng.randint(1, 5)
        f = _random_lam_series(rng, cap, 6, with_u=trial % 2 == 1)
        assert graded_log(f) == _power_series_log(f), f
        cases += 1
    # a coefficient with a non-unit denominator
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


# ---------------------------------------------------------------------------
# the adding rule
# ---------------------------------------------------------------------------

def test_constructor_sorts_partition_keys():
    one = RatFun.one()
    f = SymFunc(3, {(1, 2): one})
    assert f.terms == {(2, 1): one}
    assert f.coeff((2, 1)) == f.coeff((1, 2)) == one
    assert (f + f).terms == {(2, 1): RatFun.term(2)}
    # keys equal after sorting are added, and a zero sum is dropped
    assert SymFunc(3, {(1, 2): one, (2, 1): one}) == f.scale(2)
    assert SymFunc(3, {(1, 2): one, (2, 1): -one}).is_zero()


def test_symfun_adds_only_through_collect(monkeypatch):
    """No SymFunc sum folds through RatFun.__add__; each _collect makes at
    most one RatFun.sum per distinct partition it keeps."""
    adds_from_symfun = []
    ratfun_add = RatFun.__add__

    def counting_add(self, other):
        if sys._getframe(1).f_globals["__name__"] == symfun.__name__:
            adds_from_symfun.append(sys._getframe(1).f_code.co_name)
        return ratfun_add(self, other)

    sums = [0]
    ratfun_sum = RatFun.sum

    def counting_sum(terms):
        sums[0] += 1
        return ratfun_sum(terms)

    collect = symfun._collect
    collects = []  # (RatFun.sum calls, distinct partitions <= cap) per call

    def checked_collect(cap, pairs):
        pairs = list(pairs)  # any nested _collect runs before the count
        before = sums[0]
        out = collect(cap, pairs)
        collects.append((sums[0] - before, len({mu for mu, _ in pairs if sum(mu) <= cap})))
        return out

    monkeypatch.setattr(RatFun, "__add__", counting_add)
    monkeypatch.setattr(RatFun, "sum", staticmethod(counting_sum))
    monkeypatch.setattr(symfun, "_collect", checked_collect)
    hurwitz_table(6, 2)
    series = _as_symfunc(burnside_series(5))
    cut_and_join(series)
    assert graded_exp(graded_log(series)) == series
    assert (series + series.scale(2) - series * SymFunc.one(5)).scale(-1) == series.scale(-2)
    powersum_from_schurs((3, 2, 1), 6)
    assert adds_from_symfun == []
    assert collects
    assert all(calls <= keys for calls, keys in collects), collects


_fracs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_coeffs = st.one_of(
    _fracs.map(RatFun.term),
    st.dictionaries(st.integers(0, 3), _fracs, max_size=3).map(
        lambda d: RatFun(
            sum((LaurentPoly.term(c, lam=k) for k, c in d.items()), LaurentPoly.zero())
        )
    ),
)
# partitions of degree <= 4, with their parts in any order
_keys = (
    st.integers(0, 4)
    .flatmap(lambda n: st.sampled_from(partitions_of(n)))
    .flatmap(lambda mu: st.permutations(mu).map(tuple))
)
symfuncs = st.builds(SymFunc, st.integers(2, 4), st.dictionaries(_keys, _coeffs, max_size=5))


@settings(deadline=None, max_examples=40)
@given(symfuncs, symfuncs, symfuncs)
def test_addition_laws_and_distributivity(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f - f == SymFunc.zero(f.cap)
    assert f.mul(g + h) == f.mul(g) + f.mul(h)

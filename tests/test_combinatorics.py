"""Partitions and symmetric-group data, checked against independent oracles."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from qcurve import combinatorics, curves, hurwitz, ring, symfun
from qcurve.combinatorics import (
    SizeMismatchError,
    automorphism_count,
    centralizer_order,
    character,
    character_table,
    conjugate,
    format_partition,
    hooks_and_contents,
    irrep_dimension,
    kappa,
    partitions_of,
)
from qcurve.combinatorics import _beta_mask, _border_strips
from qcurve.curves import conifold, framed_c3, lambert, z_closed, z_from_characters
from qcurve.selftest import default_golden_dir, hurwitz_payload


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partitions_smallest():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_reverse_lex_order():
    for n in range(9):
        ps = partitions_of(n)
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))


def test_partitions_match_a_brute_force_order():
    # every partition of n is one of n - 1 with a part 1 added or one part
    # raised by 1; reverse lex is descending tuple order
    shapes = {()}
    for n in range(1, 21):
        shapes = {
            tuple(sorted(grown, reverse=True))
            for mu in shapes
            for grown in [mu + (1,)] + [
                mu[:i] + (mu[i] + 1,) + mu[i + 1:] for i in range(len(mu))
            ]
        }
        assert partitions_of(n) == tuple(sorted(shapes, reverse=True)), n


def pentagonal_counts(limit):
    """Independent count oracle: Euler's pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_counts_against_pentagonal_recurrence():
    counts = pentagonal_counts(20)
    assert counts[20] == 627
    for n in range(21):
        assert len(partitions_of(n)) == counts[n]
    assert len(partitions_of(8)) == 22


def test_partition_text_forms():
    assert format_partition((3, 1, 1)) == "[3,1,1]"
    assert format_partition(()) == "[]"


# ---------------------------------------------------------------------------
# z, aut, kappa
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


def brute_centralizer_order(mu):
    """Count permutations commuting with a fixed element of type mu."""
    d = sum(mu)
    target = None
    perms = list(itertools.permutations(range(d)))
    for p in perms:
        if _cycle_type(p) == mu:
            target = p
            break
    return sum(1 for q in perms if _compose(q, target) == _compose(target, q))


@pytest.mark.parametrize("mu", [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2)])
def test_centralizer_against_brute_force(mu):
    assert centralizer_order(mu) == brute_centralizer_order(mu)


def test_z_and_aut_examples():
    assert centralizer_order((1, 1)) == 2 and automorphism_count((1, 1)) == 2
    assert centralizer_order((3,)) == 3 and automorphism_count((3,)) == 1
    assert centralizer_order((2, 1)) == 2 and automorphism_count((2, 1)) == 1


def test_class_sizes_sum_to_group_order():
    for n in range(1, 13):
        assert sum(
            factorial(n) // centralizer_order(mu) for mu in partitions_of(n)
        ) == factorial(n)


def counter_centralizer_order(mu):
    z = 1
    for part, m in Counter(mu).items():
        z *= part**m * factorial(m)
    return z


def counter_automorphism_count(mu):
    a = 1
    for m in Counter(mu).values():
        a *= factorial(m)
    return a


def test_z_and_aut_against_multiplicity_counts():
    for n in range(13):
        for mu in partitions_of(n):
            assert centralizer_order(mu) == counter_centralizer_order(mu), mu
            assert automorphism_count(mu) == counter_automorphism_count(mu), mu


def column_count_conjugate(mu):
    # column i holds one cell of every row longer than i
    return tuple(sum(1 for p in mu if p > i) for i in range(mu[0])) if mu else ()


def test_conjugate_against_column_counts():
    assert conjugate(()) == ()
    for n in range(13):
        for mu in partitions_of(n):
            conj = conjugate(mu)
            assert conj == column_count_conjugate(mu), mu
            assert conjugate(conj) == mu, mu


def test_kappa_examples():
    assert kappa(()) == 0
    for n in range(1, 7):
        assert kappa((n,)) == n * (n - 1)
    assert kappa((1, 1)) == -2  # 1*(1-2+1) + 1*(1-4+1)


def test_kappa_even_and_antisymmetric():
    for n in range(11):
        for mu in partitions_of(n):
            assert kappa(mu) % 2 == 0
            assert kappa(conjugate(mu)) == -kappa(mu)


# ---------------------------------------------------------------------------
# hooks, contents, dimensions
# ---------------------------------------------------------------------------

def test_hooks_contents_single_cell():
    assert hooks_and_contents((1,)) == [(1, 0)]


def test_hooks_contents_staircase():
    data = hooks_and_contents((2, 1))
    assert [h for h, _ in data] == [3, 1, 1]
    assert [c for _, c in data] == [0, 1, -1]


def test_hooks_contents_single_row():
    for n in range(1, 7):
        data = hooks_and_contents((n,))
        assert [h for h, _ in data] == list(range(n, 0, -1))
        assert [c for _, c in data] == list(range(n))


@cache
def brute_syt_count(mu):
    """Standard-tableau count by corner-removal recursion (no hooks)."""
    if not mu:
        return 1
    total = 0
    for i in range(len(mu)):
        if i == len(mu) - 1 or mu[i] > mu[i + 1]:
            smaller = list(mu)
            smaller[i] -= 1
            total += brute_syt_count(tuple(p for p in smaller if p))
    return total


def test_dimension_examples_and_oracle():
    for n in range(1, 7):
        assert irrep_dimension((n,)) == 1
    assert irrep_dimension((2, 1)) == 2
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert irrep_dimension(mu) == brute_syt_count(mu), mu


def test_dimension_is_the_identity_column():
    for n in range(13):
        table = character_table(n)
        for nu in partitions_of(n):
            assert irrep_dimension(nu) == table.rows[nu][table.index[(1,) * n]], nu


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(irrep_dimension(mu) ** 2 for mu in partitions_of(n)) == factorial(n)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_trivial_representation():
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1


def test_character_identity_class_gives_dimension():
    for n in range(1, 8):
        for nu in partitions_of(n):
            assert character(nu, (1,) * n) == irrep_dimension(nu)


def test_character_sign_of_s2():
    assert character((1, 1), (2,)) == -1


# hand-derived tables; rows = shapes, columns = classes in partitions_of order
S3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [-1, 0, 2],
    (1, 1, 1): [1, -1, 1],
}
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [-1, 0, -1, 1, 3],
    (2, 2): [0, -1, 2, 0, 2],
    (2, 1, 1): [1, 0, -1, -1, 3],
    (1, 1, 1, 1): [-1, 1, 1, -1, 1],
}


@pytest.mark.parametrize("table,n", [(S3_TABLE, 3), (S4_TABLE, 4)])
def test_character_tables(table, n):
    classes = partitions_of(n)
    for nu, row in table.items():
        assert [character(nu, mu) for mu in classes] == row


def test_character_on_full_cycle_detects_hooks():
    # single border strip of size n: nonzero only on hook shapes,
    # with sign (-1)^(number of rows below the first)
    for n in range(2, 9):
        for nu in partitions_of(n):
            value = character(nu, (n,))
            is_hook = len(nu) == 1 or nu[1] == 1
            if is_hook:
                assert value == (-1) ** (len(nu) - 1), nu
            else:
                assert value == 0, nu


def test_row_orthogonality():
    for n in range(1, 7):
        ps = partitions_of(n)
        for a in ps:
            for b in ps:
                s = sum(
                    Fraction(character(a, mu) * character(b, mu), centralizer_order(mu))
                    for mu in ps
                )
                assert s == (1 if a == b else 0)


def test_collapse_identity():
    for n in range(1, 7):
        for nu in partitions_of(n):
            s = sum(
                Fraction(character(nu, mu), centralizer_order(mu))
                for mu in partitions_of(n)
            )
            assert s == (1 if nu == (n,) else 0)


def test_character_size_mismatch():
    with pytest.raises(SizeMismatchError):
        character((2,), (1,))


# ---------------------------------------------------------------------------
# the whole table, against the per-entry recursion
# ---------------------------------------------------------------------------

@cache
def reference_strip_removals(nu, length):
    """(remaining shape, height) per border strip of the given length.

    Removing a strip moves one beta-number b to b - length, legal when
    that is >= 0 and free; the height counts the beta-numbers between.
    """
    ell = len(nu)
    beta = [nu[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    out = []
    for b in beta:
        c = b - length
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        parts = tuple(
            v - (ell - 1 - i) for i, v in enumerate(new_beta) if v - (ell - 1 - i) > 0
        )
        out.append((parts, height))
    return tuple(out)


@cache
def reference_character(nu, mu):
    """Murnaghan-Nakayama one entry at a time, memoized on (shape, class)."""
    if not mu:
        return 1
    return sum(
        (-1) ** height * reference_character(smaller, mu[1:])
        for smaller, height in reference_strip_removals(nu, mu[0])
    )


def test_beta_mask_is_the_beta_set():
    for n in range(13):
        for nu in partitions_of(n):
            ell = len(nu)
            bits = {b for b in range(n + ell) if _beta_mask(nu) >> b & 1}
            assert bits == {p + ell - 1 - i for i, p in enumerate(nu)}, nu
            assert not _beta_mask(nu) & 1


def test_strip_lengths_are_the_hook_lengths():
    for n in range(13):
        for nu in partitions_of(n):
            strips = _border_strips(_beta_mask(nu))
            lengths = Counter({t: len(found) for t, found in strips.items()})
            assert lengths == Counter(h for h, _ in hooks_and_contents(nu)), nu


def test_strips_equal_the_reference_removals():
    masks = {_beta_mask(nu): nu for n in range(13) for nu in partitions_of(n)}
    for nu in masks.values():
        strips = _border_strips(_beta_mask(nu))
        for t in range(1, sum(nu) + 1):
            got = sorted((masks[rest], sign) for sign, rest in strips.get(t, ()))
            want = sorted(
                (shape, (-1) ** height)
                for shape, height in reference_strip_removals(nu, t)
            )
            assert got == want, (nu, t)


def test_table_indexes_every_shape_by_its_mask():
    for n in range(13):
        table = character_table(n)
        assert table.shapes == {_beta_mask(nu): nu for nu in partitions_of(n)}


def test_table_equals_the_per_entry_recursion():
    for n in range(11):
        table = character_table(n)
        classes = partitions_of(n)
        assert tuple(table.index) == tuple(table.rows) == classes
        assert list(table.index.values()) == list(range(len(classes)))
        for nu in classes:
            want = tuple(reference_character(nu, mu) for mu in classes)
            assert table.rows[nu] == want, nu
            assert [character(nu, mu) for mu in classes] == list(want)


def test_table_rows_are_orthogonal():
    # sum over classes of |class| chi_a chi_b = n! when a == b, else 0
    for n in range(11):
        table = character_table(n)
        sizes = [factorial(n) // centralizer_order(mu) for mu in table.index]
        for a, row_a in table.rows.items():
            for b, row_b in table.rows.items():
                s = sum(x * y * k for x, y, k in zip(row_a, row_b, sizes))
                assert s == (factorial(n) if a == b else 0), (a, b)


def _clear_caches():
    for module in (combinatorics, curves, symfun, ring, hurwitz):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def corrupt_table():
    """Return a function that adds 1 to chi_(3,1)((4,)) (which is -1)
    inside character_table(4); every cache is cleared before and after."""

    def corrupt():
        _clear_caches()
        table = character_table(4)
        row = list(table.rows[(3, 1)])
        row[table.index[(4,)]] += 1
        table.rows[(3, 1)] = tuple(row)

    _clear_caches()
    yield corrupt
    _clear_caches()


@pytest.mark.parametrize("case", [lambert(), framed_c3(1), conifold(1)])
def test_wrong_table_entry_reaches_the_route(corrupt_table, case):
    assert z_from_characters(case, 5) == z_closed(case, 5)
    corrupt_table()
    rebuilt, closed = z_from_characters(case, 5), z_closed(case, 5)
    differ = [n for n in range(6) if rebuilt.coeff(n) != closed.coeff(n)]
    assert differ and differ[0] == 4


def test_wrong_table_entry_reaches_the_hurwitz_table(corrupt_table):
    golden = json.loads((default_golden_dir() / "hurwitz_d4_g2.json").read_text())
    assert hurwitz_payload(4, 2) == golden
    corrupt_table()
    assert hurwitz_payload(4, 2) != golden


def test_wrong_table_entry_reaches_only_the_larger_tables_that_read_it(corrupt_table):
    # chi_(3,1)((4,)) is read by S_n at classes (t, 4) with t >= 4, so by
    # S_8 only at (4, 4), once per shape with a 4-strip leaving (3, 1)
    corrupt_table()
    for n in (5, 6, 7):
        table = character_table(n)
        for nu in partitions_of(n):
            want = tuple(reference_character(nu, mu) for mu in partitions_of(n))
            assert table.rows[nu] == want, nu
    table = character_table(8)
    wrong = [
        (nu, mu)
        for nu in partitions_of(8)
        for mu in partitions_of(8)
        if table.rows[nu][table.index[mu]] != reference_character(nu, mu)
    ]
    assert len(wrong) == 5 and {mu for _, mu in wrong} == {(4, 4)}

"""Integer partitions and symmetric-group representation data.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0; ``kappa``, ``irrep_dimension``
and the symfun shapes reject any other tuple through one check,
``_shape``.  Centralizer orders and automorphism counts are read off the
runs of equal parts, and dimensions multiply hook lengths taken from the
conjugate; ``hooks_and_contents`` gives each cell's (hook, content) pair,
row-major, for the hook-content products of ``symfun``.  The two moves
on power-sum monomials that ``symfun`` and ``hurwitz`` share live here:
``_sorted_merge`` (the partition of a product p_mu * p_nu) and
``_cut_join_moves`` (the weighted partitions the cut-and-join operator
sends p_mu to).

Characters come as whole tables: ``character_table(n)`` builds every
row of S_n in one integer pass of the Murnaghan-Nakayama border-strip
recursion, each row at class mu a signed sum of rows of the (memoized)
table of S_(n - mu[0]) read at the column of mu[1:].  A shape is held
for this as its beta set, one int with a bit per row (the abacus of
James and Kerber): a border strip moves one bead down to a hole, its
sign is the parity of the beads it passes (``int.bit_count``), and the
remaining shape's mask is the old one with the bead moved.  Each table
stores its rows once, by partition, with an index from beta mask to
shape for the larger tables to read them through.  The character route,
the Hurwitz series and the character selftest suite read whole rows;
``character(nu, mu)`` is one lookup in that table, the single value
``powersum_from_schurs`` asks for.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import factorial, prod
from operator import add, neg, sub
from typing import NamedTuple

Partition = tuple[int, ...]


class SizeMismatchError(ValueError):
    """Character arguments index different symmetric groups."""


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    Reverse lex means descending comparison of part sequences, e.g. for
    n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Each partition is the
    successor of the one before, in a loop: drop the trailing 1s, lower
    the last part k > 1 by one, and refill what was taken away with parts
    k - 1 and a remainder.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out, parts = [], [n]
    while True:
        out.append(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return tuple(out)
        k = parts.pop() - 1
        q, r = divmod(k + 1 + ones, k)
        parts += [k] * q
        if r:
            parts.append(r)


def _shape(nu: Partition) -> Partition:
    """nu as a tuple, if its parts are positive and weakly decreasing.

    Weakly decreasing parts are positive when the last one is.
    """
    nu = tuple(nu)
    if nu and nu[-1] < 1 or sorted(nu, reverse=True) != list(nu):
        raise ValueError(f"{nu} is not a partition: its parts must be"
                         " positive and weakly decreasing")
    return nu


def format_partition(mu: Partition) -> str:
    """Bracketed text form, e.g. ``[3,1,1]``; the empty partition is ``[]``."""
    return "[" + ",".join(str(p) for p in mu) + "]"


def automorphism_count(mu: Partition) -> int:
    """|Aut(mu)| = prod_i m_i! over part multiplicities.

    Read off the runs of equal parts: the k-th part of a run contributes
    the factor k.
    """
    a, prev, k = 1, 0, 0
    for p in mu:
        k = k + 1 if p == prev else 1
        prev = p
        a *= k
    return a


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod_i i^(m_i) * m_i!  (m_i = multiplicity of part i),
    the product of the parts times |Aut(mu)|."""
    return prod(mu) * automorphism_count(mu)


def kappa(mu: Partition) -> int:
    """kappa_mu = sum_i mu_i * (mu_i - 2i + 1); always even."""
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(_shape(mu), start=1))


def _sorted_merge(mu: Partition, nu: Partition) -> Partition:
    return tuple(sorted(mu + nu, reverse=True))


def _cut_join_moves(mu: Partition) -> Iterator[tuple[Partition, Fraction]]:
    """The (partition, weight) moves of the cut-and-join operator on p_mu."""
    parts = list(mu)
    mult = {a: parts.count(a) for a in set(parts)}
    distinct = sorted(mult)
    for ai, a in enumerate(distinct):
        for b in distinct[ai:]:
            if a != b:
                weight = Fraction(a * b * mult[a] * mult[b])
            elif mult[a] > 1:
                weight = Fraction(a * a * mult[a] * (mult[a] - 1), 2)
            else:
                continue
            rest = parts.copy()
            rest.remove(a)
            rest.remove(b)
            yield tuple(sorted(rest + [a + b], reverse=True)), weight
    for k in distinct:
        base = parts.copy()
        base.remove(k)
        weight = Fraction(k * mult[k], 2)
        for i in range(1, k):
            yield tuple(sorted(base + [i, k - i], reverse=True)), weight


def conjugate(mu: Partition) -> Partition:
    """The column lengths of mu, in one pass up from its smallest part.

    Where a run of equal parts p ends, i parts are >= p, so each column
    from the previous, smaller part up to p has length i.
    """
    out: list[int] = []
    prev, i = 0, len(mu)
    for p in reversed(mu):
        if p != prev:
            out += [i] * (p - prev)
            prev = p
        i -= 1
    return tuple(out)


def hooks_and_contents(mu: Partition) -> list[tuple[int, int]]:
    """(hook length, content) for every cell, row-major.

    hook = arm + leg + 1, content = col - row.
    """
    conj = conjugate(mu)
    out = []
    for i, row_len in enumerate(mu, start=1):
        for j in range(1, row_len + 1):
            arm = row_len - j
            leg = conj[j - 1] - i
            out.append((arm + leg + 1, j - i))
    return out


def irrep_dimension(mu: Partition) -> int:
    """Hook-length formula: |mu|! / prod of hooks.

    The hook of the cell in row i, column j (0-based) is
    mu_i - j + mu'_j - i - 1, with mu' the conjugate.
    """
    mu = _shape(mu)
    conj = conjugate(mu)
    denom = 1
    for i, row_len in enumerate(mu):
        for j in range(row_len):
            denom *= row_len - j + conj[j] - i - 1
    return factorial(sum(mu)) // denom


class CharacterTable(NamedTuple):
    """The characters of S_n: ``rows[nu][index[mu]]`` is chi_nu(mu)."""

    index: dict[Partition, int]  # class -> column, in partitions_of(n) order
    rows: dict[Partition, tuple[int, ...]]  # shape -> its row
    shapes: dict[int, Partition]  # beta mask -> shape


def _beta_mask(nu: Partition) -> int:
    """The beta set of nu as one int: bit nu_i + l - 1 - i set for each row i.

    Bit 0 is set only in masks with trailing zero parts; nu has none, so
    its mask is the one with those shifted out (the empty shape's is 0).
    """
    ell, mask = len(nu), 0
    for i, p in enumerate(nu):
        mask |= 1 << (p + ell - 1 - i)
    return mask


def _border_strips(mask: int) -> dict[int, list[tuple[int, int]]]:
    """Every border strip of the shape with beta mask ``mask``, by length:
    (sign, beta mask of the remaining shape) pairs.

    A strip of length t moves a bead b down to a hole c = b - t >= 0, so
    each (bead, hole below it) pair is one strip, |nu| of them.  The sign
    is the parity of the beads strictly between c and b; the new mask's
    trailing set bits, zero parts, are shifted out.
    """
    out: dict[int, list[tuple[int, int]]] = {}
    beads = mask
    while beads:
        b = beads.bit_length() - 1
        beads ^= 1 << b
        holes = ~mask & (1 << b) - 1
        while holes:
            c = holes.bit_length() - 1
            holes ^= 1 << c
            sign = -1 if (mask >> c & (1 << b - c) - 1).bit_count() & 1 else 1
            rest = mask ^ (1 << b | 1 << c)
            rest >>= (rest ^ rest + 1).bit_length() - 1
            out.setdefault(b - c, []).append((sign, rest))
    return out


@cache
def character_table(n: int) -> CharacterTable:
    """The whole character table of S_n, in one integer pass.

    Murnaghan-Nakayama by rows: chi_nu(mu) is the signed sum, over the
    border strips of nu of length mu[0], of the rows of
    ``character_table(n - mu[0])`` read at the column of mu[1:].  The
    strips come from nu's beta mask (``_border_strips``), and a remaining
    shape's row is read as ``smaller.rows[smaller.shapes[mask]]``: each
    row is stored once, under its partition.  In reverse-lex order the
    classes with first part t are one block whose rests mu[1:] are, in
    order, a tail of the classes of S_(n - t), so each block of a row is
    a signed sum of tails of smaller rows.
    """
    classes = partitions_of(n)
    index = {mu: j for j, mu in enumerate(classes)}
    if n == 0:
        return CharacterTable(index, {(): (1,)}, {0: ()})
    blocks = []  # (t, the column where the tail starts, table of S_(n - t))
    for mu in classes:
        if not blocks or blocks[-1][0] != mu[0]:
            smaller = character_table(n - mu[0])
            blocks.append((mu[0], smaller.index[mu[1:]], smaller))
    rows, shapes = {}, {}
    for nu in classes:
        mask = _beta_mask(nu)
        shapes[mask] = nu
        strips = _border_strips(mask)
        row: list[int] = []
        for t, start, smaller in blocks:
            block = None
            for sign, rest in strips.get(t, ()):
                tail = smaller.rows[smaller.shapes[rest]][start:]
                if block is None:
                    block = tail if sign > 0 else map(neg, tail)
                else:
                    block = map(add if sign > 0 else sub, block, tail)
            if block is None:  # no strip of length t
                block = repeat(0, len(smaller.index) - start)
            row.extend(block)
        rows[nu] = tuple(row)
    return CharacterTable(index, rows, shapes)


@cache
def character(nu: Partition, mu: Partition) -> int:
    """Irreducible character of shape nu on the conjugacy class mu.

    Both are partitions in the package's form (weakly decreasing tuples);
    the value is one lookup in ``character_table(|mu|)``.
    """
    n = sum(mu)
    if sum(nu) != n:
        raise SizeMismatchError(f"|{nu}| != |{mu}|")
    table = character_table(n)
    return table.rows[nu][table.index[mu]]

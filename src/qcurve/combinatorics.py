"""Integer partitions and symmetric-group representation data.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Characters come as whole
tables: ``character_table(n)`` builds every row of S_n in one integer
pass of the Murnaghan-Nakayama border-strip recursion, each row at class
mu a signed sum of rows of the (memoized) table of S_(n - mu[0]) read at
the column of mu[1:]; each shape's border strips are enumerated once,
for all lengths, from its beta-numbers.  ``character(nu, mu)`` is a
lookup in that table.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import repeat
from math import factorial
from operator import add, neg
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]


class SizeMismatchError(ValueError):
    """Character arguments index different symmetric groups."""


class Cell(NamedTuple):
    row: int  # 1-based
    col: int  # 1-based


def _gen_partitions(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - k, k):
            yield (k,) + rest


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    Reverse lex means descending comparison of part sequences, e.g. for
    n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(_gen_partitions(n, n))


def format_partition(mu: Partition) -> str:
    """Bracketed text form, e.g. ``[3,1,1]``; the empty partition is ``[]``."""
    return "[" + ",".join(str(p) for p in mu) + "]"


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod_i i^(m_i) * m_i!  (m_i = multiplicity of part i)."""
    z = 1
    for part, m in Counter(mu).items():
        z *= part**m * factorial(m)
    return z


def automorphism_count(mu: Partition) -> int:
    """|Aut(mu)| = prod_i m_i! over part multiplicities."""
    a = 1
    for m in Counter(mu).values():
        a *= factorial(m)
    return a


def kappa(mu: Partition) -> int:
    """kappa_mu = sum_i mu_i * (mu_i - 2i + 1); always even."""
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(mu, start=1))


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > i) for i in range(mu[0]))


def hooks_and_contents(mu: Partition) -> list[tuple[Cell, int, int]]:
    """(cell, hook length, content) for every cell, row-major.

    hook = arm + leg + 1, content = col - row.
    """
    conj = conjugate(mu)
    out = []
    for i, row_len in enumerate(mu, start=1):
        for j in range(1, row_len + 1):
            arm = row_len - j
            leg = conj[j - 1] - i
            out.append((Cell(i, j), arm + leg + 1, j - i))
    return out


def irrep_dimension(mu: Partition) -> int:
    """Hook-length formula: |mu|! / prod of hooks."""
    n = sum(mu)
    denom = 1
    for _, hook, _ in hooks_and_contents(mu):
        denom *= hook
    return factorial(n) // denom


class CharacterTable(NamedTuple):
    """The characters of S_n: ``rows[nu][index[mu]]`` is chi_nu(mu)."""

    index: dict[Partition, int]  # class -> column, in partitions_of(n) order
    rows: dict[Partition, tuple[int, ...]]  # shape -> its row


def _border_strips(nu: Partition) -> dict[int, list[tuple[int, Partition]]]:
    """Every border strip of nu, by length: (sign, remaining shape) pairs.

    Via beta-numbers b_i = nu_i + l - 1 - i (strictly decreasing): a strip
    of length t moves one b_i down to a free c = b_i - t.  Scanning c
    downward from b_i, the moved number passes b_(i+1), ..., b_(k-1); the
    height is the count passed, k - 1 - i, and the rows i..k-1 become
    nu_(i+1) - 1, ..., nu_(k-1) - 1, nu_i - t + height (zeros dropped:
    once one of them is 0, so are the rest, and nu has no row below).
    """
    ell = len(nu)
    beta = [p + ell - 1 - i for i, p in enumerate(nu)] + [-1]
    out: dict[int, list[tuple[int, Partition]]] = {}
    for i, b in enumerate(beta[:ell]):
        k = i + 1
        for c in range(b - 1, -1, -1):
            if c == beta[k]:
                k += 1
                continue
            t, height = b - c, k - 1 - i
            moved = [p - 1 for p in nu[i + 1:k]] + [nu[i] - t + height]
            shape = nu[:i] + tuple(p for p in moved if p) + nu[k:]
            out.setdefault(t, []).append((-1 if height % 2 else 1, shape))
    return out


@cache
def character_table(n: int) -> CharacterTable:
    """The whole character table of S_n, in one integer pass.

    Murnaghan-Nakayama by rows: chi_nu(mu) is the signed sum, over the
    border strips of nu of length mu[0], of the rows of
    ``character_table(n - mu[0])`` read at the column of mu[1:].  In
    reverse-lex order the classes with first part t are one block whose
    rests mu[1:] are, in order, a tail of the classes of S_(n - t), so
    each block of a row is a signed sum of tails of smaller rows.
    """
    classes = partitions_of(n)
    index = {mu: j for j, mu in enumerate(classes)}
    if n == 0:
        return CharacterTable(index, {(): (1,)})
    blocks = []  # (t, the column where the tail starts, table of S_(n - t))
    for mu in classes:
        if not blocks or blocks[-1][0] != mu[0]:
            smaller = character_table(n - mu[0])
            blocks.append((mu[0], smaller.index[mu[1:]], smaller))
    rows = {}
    for nu in classes:
        strips = _border_strips(nu)
        row: list[int] = []
        for t, start, smaller in blocks:
            block = repeat(0, len(smaller.index) - start)  # if no strip of length t
            for i, (sign, shape) in enumerate(strips.get(t, ())):
                tail = smaller.rows[shape][start:]
                if sign < 0:
                    tail = map(neg, tail)
                block = map(add, block, tail) if i else tail
            row.extend(block)
        rows[nu] = tuple(row)
    return CharacterTable(index, rows)


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

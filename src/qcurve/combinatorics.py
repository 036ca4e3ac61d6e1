"""Integer partitions and symmetric-group representation data.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Character values are computed
by the Murnaghan-Nakayama border-strip recursion, memoized on
(shape, class); parts of the class are consumed largest-first so the
memo table is hit as often as possible.  The border strips removable
from a shape are memoized on (shape, strip length).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial
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


@cache
def _strip_removals(nu: Partition, length: int) -> tuple[tuple[Partition, int], ...]:
    """Ways to remove a border strip of the given length from nu.

    Returns (remaining partition, strip height) pairs, via beta-numbers:
    removing a strip of size t moves one first-column hook length b to
    b - t, legal iff b - t >= 0 and not already a beta-number; the height
    is the number of beta-numbers strictly between the two.  Memoized:
    the search depends on nu and the class's first part only, so every
    class sharing that part reuses it.
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
def character(nu: Partition, mu: Partition) -> int:
    """Irreducible character of shape nu on the conjugacy class mu."""
    if sum(nu) != sum(mu):
        raise SizeMismatchError(f"|{nu}| != |{mu}|")
    if not mu:
        return 1
    total = 0
    rest = mu[1:]
    for smaller, height in _strip_removals(nu, mu[0]):
        total += (-1) ** height * character(smaller, rest)
    return total

"""The benchmark's workloads: seeded op streams and the verdict of each op.

An op is one exact verification through the public ``qcurve`` API.  Every
workload is a fixed round of slots; a round runs each slot once, in an
order the seed shuffles.  A c3 or conifold slot cycles through the
framings -3..3 from an offset the seed picks, so any seven consecutive
rounds hold the same multiset of ops whatever the seed.  That keeps the
op-time distribution, and so its median and 90th percentile, alike across
seeds, while the seed still decides which op runs when.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from pathlib import Path

import qcurve

FRAMINGS = (-3, -2, -1, 0, 1, 2, 3)


@dataclass(frozen=True)
class Op:
    case: str  # "c3", "conifold", "lambert" or "hurwitz"
    order: int  # x-order N, or degree cap d for "hurwitz"
    param: int | None = None  # framing for c3/conifold, genus cap for hurwitz
    inverse: bool = False

    def label(self) -> str:
        p = "" if self.param is None else f",{self.param}"
        inv = ",inverse" if self.inverse else ""
        return f"{self.case}({self.order}{p}{inv})"


# One round per workload, listed from the cheapest op to the dearest.
# Framings of c3 and conifold slots cycle; they barely change an op's
# cost.  Four equal-cost slots sit around the median and the dearest three
# cost about the same, so that the 50th and 90th percentiles fall inside
# a block of like ops however many ops of the last round a run reaches.
# A mean op takes about 0.15-0.2 s on one 2.1 GHz x86 core, so a 30 s run
# holds more than 100 ops.
ROUNDS = {
    # Annihilation of the closed-form Z, bound by RatFun normalization.
    # One op in eight is the conifold "inverse" negative control, which
    # must fail at degree 1.
    "annihilate": (
        Op("c3", 16), Op("conifold", 10),
        Op("conifold", 10, inverse=True), Op("c3", 18),
        Op("conifold", 11), Op("c3", 19),
        Op("c3", 20), Op("c3", 20),
        Op("conifold", 12), Op("conifold", 12),
        Op("conifold", 12, inverse=True), Op("c3", 22),
        Op("conifold", 13),
        Op("conifold", 15), Op("c3", 26), Op("c3", 26),
    ),
    # Character route against the closed form: c3 is bound by RatFun
    # addition inside specialize, conifold by LaurentPoly products inside
    # quantum_dimension, lambert by the character sums themselves.
    "routes": (
        Op("lambert", 7), Op("lambert", 8), Op("lambert", 9),
        Op("conifold", 6), Op("c3", 5), Op("conifold", 7),
        Op("conifold", 8), Op("conifold", 8),
        Op("conifold", 8), Op("conifold", 8),
        Op("c3", 6), Op("c3", 6), Op("c3", 6),
        Op("conifold", 9), Op("conifold", 9), Op("conifold", 9),
    ),
    # Hurwitz tables (d, g): integer coefficients, so RatFun normalization
    # is bypassed and LaurentPoly products dominate.
    "hurwitz": (
        Op("hurwitz", 6, 1), Op("hurwitz", 6, 2),
        Op("hurwitz", 6, 3), Op("hurwitz", 6, 4),
        Op("hurwitz", 7, 1), Op("hurwitz", 7, 1),
        Op("hurwitz", 7, 2), Op("hurwitz", 7, 2),
        Op("hurwitz", 7, 2), Op("hurwitz", 7, 2),
        Op("hurwitz", 7, 3), Op("hurwitz", 7, 4),
        Op("hurwitz", 8, 1),
        Op("hurwitz", 8, 3), Op("hurwitz", 8, 4), Op("hurwitz", 8, 4),
    ),
}


def _cycle(slot: Op) -> tuple:
    return FRAMINGS if slot.case in ("c3", "conifold") else (slot.param,)


def iter_ops(workload: str, seed: int):
    """Endless op stream of a workload; the same seed gives the same ops."""
    slots = ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")
    offsets = [rng.randrange(len(_cycle(slot))) for slot in slots]
    for r in count():
        order = list(range(len(slots)))
        rng.shuffle(order)
        for i in order:
            cycle = _cycle(slots[i])
            param = cycle[(offsets[i] + r) % len(cycle)]
            yield dataclasses.replace(slots[i], param=param)


def curve(op: Op):
    if op.case == "lambert":
        return qcurve.lambert()
    if op.case == "c3":
        return qcurve.framed_c3(op.param)
    return qcurve.conifold(op.param)


def run_op(workload: str, op: Op):
    """The timed part of an op: what a user waits for before the verdict."""
    if workload == "hurwitz":
        return qcurve.hurwitz_table(op.order, op.param)
    case = curve(op)
    if workload == "annihilate":
        direction = "inverse" if op.inverse else "forward"
        return qcurve.verify_annihilation(case, op.order, direction)
    return qcurve.z_from_characters(case, op.order), qcurve.z_closed(case, op.order)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def check(workload: str, op: Op, result) -> bool:
    """True when the op's output is the known-correct verdict."""
    if workload == "hurwitz":
        return _check_hurwitz(op, result)
    if workload == "annihilate":
        if op.inverse:
            return (
                result.status == "failed"
                and result.first_failure is not None
                and result.first_failure[0] == 1
            )
        return (
            result.status == "annihilated"
            and result.first_failure is None
            and len(result.degrees_ok) == op.order + 1
            and all(result.degrees_ok)
        )
    by_characters, closed = result
    return by_characters.order == op.order and by_characters == closed


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples (independent of qcurve)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@cache
def _golden_hurwitz() -> dict[tuple[int, tuple[int, ...]], Fraction]:
    path = (
        Path(qcurve.__file__).parent / "golden" / "v1" / "hurwitz_d4_g2.json"
    )
    rows = json.loads(path.read_text())
    return {
        (r["genus"], tuple(int(p) for p in r["partition"].strip("[]").split(","))):
            Fraction(r["value"])
        for r in rows
    }


def _check_hurwitz(op: Op, table) -> bool:
    d, gmax = op.order, op.param
    expected_keys = {
        (g, mu)
        for n in range(1, d + 1)
        for mu in _partitions(n)
        for g in range(gmax + 1)
        if 2 * g - 2 + len(mu) + n >= 0
    }
    entries = table.entries
    if set(entries) != expected_keys:
        return False
    if entries[(0, (1,))] != 1 or entries[(0, (2,))] != Fraction(1, 2):
        return False
    if any(entries[(g, (1,))] != 0 for g in range(1, gmax + 1)):
        return False
    for (g, mu), value in entries.items():
        if g == 0 and len(mu) >= 3 and value != qcurve.elsv_genus0(mu):
            return False
    return all(
        entries[key] == value
        for key, value in _golden_hurwitz().items()
        if key in expected_keys
    )

"""Tests of the benchmark's own gates and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qcurve  # noqa: E402
from qcurve.ring import LaurentPoly  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SMALL = {
    "annihilate": [
        Op("conifold", 4, 1), Op("c3", 5, -2), Op("conifold", 4, 0, True),
    ],
    "routes": [Op("c3", 3, 1), Op("conifold", 3, -1), Op("lambert", 4, None)],
    "hurwitz": [Op("hurwitz", 4, 2), Op("hurwitz", 5, 1)],
}


def _corrupt_report(real):
    def run(case, order, direction="forward"):
        report = real(case, order, direction)
        flipped = "failed" if report.status == "annihilated" else "annihilated"
        return dataclasses.replace(report, status=flipped, first_failure=None)
    return run


def _corrupt_series(real):
    def run(case, order):
        z = real(case, order)
        coeffs = list(z.coeffs)
        coeffs[-1] = coeffs[-1].scale(2)
        return qcurve.XSeries(z.order, coeffs)
    return run


def _corrupt_table(real):
    def run(d, g):
        table = real(d, g)
        entries = dict(table.entries)
        entries[(1, (2, 1))] += 1
        return dataclasses.replace(table, entries=entries)
    return run


def _raise(real):
    def run(*args):
        raise ArithmeticError("injected")
    return run


CORRUPTIONS = [
    ("annihilate", "verify_annihilation", _corrupt_report),
    ("routes", "z_from_characters", _corrupt_series),
    ("hurwitz", "hurwitz_table", _corrupt_table),
    ("hurwitz", "hurwitz_table", _raise),
]


def test_same_seed_same_ops():
    for workload in workloads.ROUNDS:
        a = list(islice(workloads.iter_ops(workload, 7), 40))
        assert a == list(islice(workloads.iter_ops(workload, 7), 40))
        assert a != list(islice(workloads.iter_ops(workload, 8), 40))


def test_seven_rounds_hold_the_same_ops_for_every_seed():
    for workload, slots in workloads.ROUNDS.items():
        n = 7 * len(slots)
        mixes = {
            seed: Counter(islice(workloads.iter_ops(workload, seed), n))
            for seed in (1, 2, 3)
        }
        assert mixes[1] == mixes[2] == mixes[3]


@pytest.mark.parametrize("workload", list(SMALL))
def test_correct_results_pass(workload):
    rows = bench.measure(workload, SMALL[workload], tracing.find_caches())
    assert [r.ok for r in rows] == [True] * len(SMALL[workload])


@pytest.mark.parametrize("workload,name,corrupt", CORRUPTIONS)
def test_corrupted_result_counts_as_failure(monkeypatch, workload, name, corrupt):
    monkeypatch.setattr(qcurve, name, corrupt(getattr(qcurve, name)))
    rows = bench.measure(workload, SMALL[workload], tracing.find_caches())
    assert rows and not any(r.ok for r in rows)


def test_unchecked_output_gets_no_timings(monkeypatch):
    real = qcurve.hurwitz_table
    monkeypatch.setattr(qcurve, "hurwitz_table", _corrupt_table(real))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    rows, metrics, _ = bench.timed_run("hurwitz", 1, 0.5, ROOT / "src")
    assert rows and not any(r.ok for r in rows)
    assert metrics == {}


def test_cold_state_clears_every_cache():
    caches = tracing.find_caches()
    names = {fn.__qualname__ for fn in caches}
    assert {"z_closed", "character", "quantum_dimension"} <= names
    qcurve.z_closed(qcurve.conifold(1), 3)
    bench.cold_state(caches)
    assert all(fn.cache_info().currsize == 0 for fn in caches)


def test_tracing_keeps_verdicts_and_restores_names():
    import qcurve.curves as curves
    import qcurve.symfun as symfun

    originals = (curves.character, symfun.character, qcurve.z_closed,
                 qcurve.RatFun.__init__)
    caches = tracing.find_caches()
    tracer = tracing.Tracer()
    restore = tracing.patch(tracer)
    try:
        assert curves.character is not originals[0]
        assert symfun.character is not originals[1]
        rows = []
        for workload, ops in SMALL.items():
            rows += bench.measure(workload, ops, caches,
                                  instrument=lambda: bench._tracing(tracer))
    finally:
        restore()
    assert all(r.ok for r in rows)
    assert (curves.character, symfun.character, qcurve.z_closed,
            qcurve.RatFun.__init__) == originals
    for name in ("ring.ratfun_norm", "ring.laurent_mul",
                 "combinatorics.character", "symfun.quantum_dimension",
                 "hurwitz", "curves.z_closed", "curves.apply_operator"):
        assert tracer.calls[name] > 0, name
    assert not tracer.stack and tracer.calls["op"] == len(rows)
    ids = {s[0] for s in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
    op_ns = sum(e - s for _, parent, name, s, e in tracer.spans if name == "op")
    assert sum(tracer.self_ns.values()) + tracer.bookkeeping_ns == pytest.approx(
        op_ns, rel=1e-9)


def test_divides():
    e = LaurentPoly.symbol("E")
    one = LaurentPoly.one()
    a = e * e - one
    b = a * (e * e * e + one)
    assert tracing._divides(a, b)
    assert not tracing._divides(b, a)
    assert not tracing._divides(a, b + one)
    assert tracing._divides(one, b)
    assert not tracing._divides(a, LaurentPoly.symbol("u", 2) - one)

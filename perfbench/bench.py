"""Measurement loop and metrics of the qcurve benchmark.

One process, one client, closed loop: each op starts after the previous
op's verdict has been checked.  Before each op, outside its timer, every
functools cache in ``qcurve`` is cleared and the cyclic garbage collector
runs, so each op starts from the state a fresh CLI run would see; then a
fixed stdlib-only reference loop is timed, and op time over reference time
is the machine-noise-guarded ratio ``op_ref_p50``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

import qcurve
import tracing
import workloads

SETUP_REPEATS = 11
# The reference loop's time on an idle 2.1 GHz x86 core; setup_s is given
# in seconds at that speed.
REF_NOMINAL_MS = 7.5
MIN_OPS = 100  # ops a run needs so that ten lie beyond the 90th percentile
TRACE_SECONDS_PER_ROUND = 20  # a traced run covers seconds // this rounds


@dataclass
class Row:
    op: workloads.Op
    ms: float
    ref_ms: float
    ok: bool
    cache_stats: dict[str, tuple[int, int]]


def reference_ms() -> float:
    """Time a fixed loop of Fraction and dict work, about 8 ms here."""
    start = time.perf_counter()
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 3001):
        key = (i % 89, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 13 - 6, i % 29 + 1)
    return (time.perf_counter() - start) * 1000


def cold_state(caches: list) -> None:
    for fn in caches:
        fn.cache_clear()
    gc.collect()


def _cache_stats(caches: list) -> dict[str, tuple[int, int]]:
    stats = {}
    for fn in caches:
        info = fn.cache_info()
        stats[fn.__qualname__] = (info.hits, info.misses)
    return stats


def _verified(workload: str, op: workloads.Op, instrument) -> tuple[float, bool]:
    """Run and time one op, then check its output: (ms, verdict correct)."""
    with instrument():
        start = time.perf_counter()
        try:
            result = workloads.run_op(workload, op)
            raised = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised = True
        ms = (time.perf_counter() - start) * 1000
    try:
        ok = not raised and workloads.check(workload, op, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"wrong verdict: {op.label()}", file=sys.stderr)
    return ms, ok


def measure(workload: str, ops, caches: list, deadline: float = float("inf"),
            instrument=nullcontext) -> list[Row]:
    """Run ops in a closed loop until they or the time run out."""
    rows = []
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        cold_state(caches)
        before = reference_ms()
        ms, ok = _verified(workload, op, instrument)
        ref = (before + reference_ms()) / 2
        rows.append(Row(op, ms, ref, ok, _cache_stats(caches)))
    return rows


def measure_setup(src: Path) -> tuple[float, float]:
    """Fresh interpreters importing qcurve: median seconds, scaled to the
    reference speed as op times are, and the raw median wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    probe = "import qcurve, sys; sys.stdout.write(qcurve.__file__)"
    found = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"fresh interpreter imported qcurve from {found}")
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_ms()
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to
        # its next poll, up to 50 ms late.
        subprocess.run([sys.executable, "-c", "import qcurve"], env=env,
                       check=True)
        seconds = time.perf_counter() - start
        ref = (before + reference_ms()) / 2
        wall.append(seconds)
        scaled.append(seconds * REF_NOMINAL_MS / ref)
    return statistics.median(scaled), statistics.median(wall)


def timed_run(workload: str, seed: int, seconds: float, src: Path):
    """Set-up time, then the seed's op stream for ``seconds``."""
    setup_s, setup_wall_s = measure_setup(src)
    caches = tracing.find_caches()
    ops = workloads.iter_ops(workload, seed)
    rows = measure(workload, ops, caches, time.perf_counter() + seconds)
    good = [r for r in rows if r.ok]
    if len(good) < MIN_OPS:
        print(f"only {len(good)} verified ops; the 90th percentile has fewer "
              "than ten samples beyond it", file=sys.stderr)
    if len(good) < 2:
        return rows, {}, {}
    ms = [r.ms for r in good]
    ratios = [r.ms / r.ref_ms for r in good]
    metrics = {
        "op_ref_p50": (statistics.median(ratios), "ratio"),
        "op_ref_p90": (statistics.quantiles(ratios, n=10)[-1], "ratio"),
        "ops_per_kref": (1000 * len(good) / sum(r.ms / r.ref_ms for r in rows),
                         "1/kref"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "verified_ratio": (len(good) / len(rows), "ratio"),
        "setup_s": (setup_s, "s"),
    }
    wall = {
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
        "ops_per_s": {"value": 1000 * len(good) / sum(r.ms for r in rows),
                      "unit": "1/s"},
        "setup_wall_s": {"value": setup_wall_s, "unit": "s"},
        "fail_ratio": {"value": 1 - len(good) / len(rows), "unit": "ratio"},
        "verified_ops": {"value": len(good), "unit": "count"},
    }
    return rows, metrics, {"wall": wall}


@contextmanager
def _profiling(profile: cProfile.Profile):
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


@contextmanager
def _tracing(tracer: tracing.Tracer):
    tracer.enabled = True
    frame = tracer.enter("op")
    try:
        yield
    finally:
        tracer.exit(frame)
        tracer.enabled = False


def coefficient_size(workload: str, ops) -> tuple[int, int]:
    """Terms and largest bit length over the coefficients of each op's Z."""
    terms = bits = 0
    if workload == "hurwitz":
        return terms, bits
    for op in ops:
        z = qcurve.z_closed(workloads.curve(op), op.order)
        for c in z.coeffs:
            parts = c.to_json()
            for side in (parts["num"], parts["den"]):
                terms += len(side)
                for t in side:
                    q = Fraction(t["coeff"])
                    bits = max(bits, q.numerator.bit_length(),
                               q.denominator.bit_length())
    return terms, bits


def traced_run(workload: str, seed: int, seconds: float, src: Path):
    """Untraced, profiled and traced passes over one fixed op list."""
    caches = tracing.find_caches()
    rounds = max(1, int(seconds // TRACE_SECONDS_PER_ROUND))
    count = rounds * len(workloads.ROUNDS[workload])
    ops = list(islice(workloads.iter_ops(workload, seed), count))
    plain = measure(workload, ops, caches)
    profile = cProfile.Profile()
    profiled = measure(workload, ops, caches,
                       instrument=lambda: _profiling(profile))
    tracer = tracing.Tracer()
    restore = tracing.patch(tracer)
    try:
        traced = measure(workload, ops, caches,
                         instrument=lambda: _tracing(tracer))
    finally:
        restore()
    coeff_terms, coeff_bits = coefficient_size(workload, ops)

    per_op = 1e6 * len(ops)

    def self_ms(prefix: str) -> float:
        return sum(
            ns for name, ns in tracer.self_ns.items()
            if name == prefix or name.startswith(prefix + ".")
        ) / per_op

    def ratio(numerator: int, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    calls, counts = tracer.calls, tracer.counts
    hits = sum(r.cache_stats.get("character", (0, 0))[0] for r in plain)
    misses = sum(r.cache_stats.get("character", (0, 0))[1] for r in plain)
    metrics = {
        "ring.ratfun_norm.calls": (calls["ring.ratfun_norm"], "count"),
        "ring.ratfun_norm.self_ms": (self_ms("ring.ratfun_norm"), "ms/op"),
        "ring.ratfun_norm.cancel_ratio": (
            ratio(counts["ratfun_norm.cancelled"], calls["ring.ratfun_norm"]),
            "ratio"),
        "ring.ratfun_add.calls": (calls["ring.ratfun_add"], "count"),
        "ring.ratfun_add.self_ms": (self_ms("ring.ratfun_add"), "ms/op"),
        "ring.ratfun_add.shared_den_ratio": (
            ratio(counts["ratfun_add.shared_den"], calls["ring.ratfun_add"]),
            "ratio"),
        "ring.ratfun_mul.self_ms": (self_ms("ring.ratfun_mul"), "ms/op"),
        "ring.ratfun.self_ms": (self_ms("ring.ratfun"), "ms/op"),
        "ring.laurent_mul.calls": (calls["ring.laurent_mul"], "count"),
        "ring.laurent_mul.self_ms": (self_ms("ring.laurent_mul"), "ms/op"),
        "ring.laurent_mul.term_products": (
            counts["laurent_mul.term_products"], "count"),
        "ring.laurent.self_ms": (self_ms("ring.laurent"), "ms/op"),
        "ring.xseries.self_ms": (self_ms("ring.xseries"), "ms/op"),
        "scalars.share": (tracing.fractions_share(profile), "ratio"),
        "combinatorics.self_ms": (self_ms("combinatorics"), "ms/op"),
        "combinatorics.character.calls": (
            calls["combinatorics.character"], "count"),
        "combinatorics.character.hit_ratio": (
            ratio(hits, hits + misses), "ratio"),
        "symfun.self_ms": (self_ms("symfun"), "ms/op"),
        "symfun.specialize.self_ms": (self_ms("symfun.specialize"), "ms/op"),
        "symfun.quantum_dimension.self_ms": (
            self_ms("symfun.quantum_dimension"), "ms/op"),
        "symfun.mul.self_ms": (self_ms("symfun.mul"), "ms/op"),
        "hurwitz.self_ms": (self_ms("hurwitz"), "ms/op"),
        "curves.self_ms": (self_ms("curves"), "ms/op"),
        "curves.z_closed.self_ms": (self_ms("curves.z_closed"), "ms/op"),
        "curves.apply_operator.self_ms": (
            self_ms("curves.apply_operator"), "ms/op"),
        "curves.z_from_characters.self_ms": (
            self_ms("curves.z_from_characters"), "ms/op"),
        "curves.coeff_terms": (coeff_terms, "count"),
        "curves.coeff_bits_max": (coeff_bits, "count"),
        "unattributed.self_ms": (self_ms("op"), "ms/op"),
        "trace.overhead_ratio": (
            sum(r.ms / r.ref_ms for r in traced)
            / sum(r.ms / r.ref_ms for r in plain), "ratio"),
    }
    trace = {
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans": tracer.spans,
        "dropped_spans": tracer.dropped,
        "calls": dict(tracer.calls),
        "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
        "bookkeeping_ms": tracer.bookkeeping_ns / 1e6,
    }
    return plain + profiled + traced, metrics, {"trace": trace}


def environment(root: Path) -> dict:
    """Where and on what the run happened, recorded beside the metrics."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qcurve").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }

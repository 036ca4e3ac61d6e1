"""Per-layer attribution from outside the ``qcurve`` package.

``patch`` replaces the public entry points of each layer (module functions
and class methods of ``qcurve``'s modules) with wrappers that record a
span per call: name, start, end and parent id.  Every loaded ``qcurve``
namespace that holds a wrapped object gets the wrapper, so a name imported
by value (``character`` in ``curves`` and ``symfun``) is traced too.
Self time is a span's duration minus the time its child spans cover.
Counters that need extra work (denominator sharing, term products) are
computed after the span has ended and that work is kept out of every
span's self time.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import Counter

# span name -> "module:attribute" entry points of that part of a layer.
SPANS = {
    "ring.laurent_mul": ("ring:LaurentPoly.__mul__", "ring:LaurentPoly.__rmul__"),
    "ring.laurent": (
        "ring:LaurentPoly.__add__", "ring:LaurentPoly.__sub__",
        "ring:LaurentPoly.__neg__", "ring:LaurentPoly.__pow__",
        "ring:LaurentPoly.mul_term", "ring:LaurentPoly.diff",
        "ring:LaurentPoly.subs_symbol_power",
        "ring:LaurentPoly.truncate_symbol", "ring:LaurentPoly.coefficient_of",
    ),
    "ring.ratfun_norm": ("ring:RatFun.__init__",),
    "ring.ratfun_add": ("ring:RatFun.__add__",),
    "ring.ratfun_mul": ("ring:RatFun.__mul__", "ring:RatFun.__rmul__"),
    "ring.ratfun": (
        "ring:RatFun.__sub__", "ring:RatFun.__neg__",
        "ring:RatFun.__truediv__", "ring:RatFun.__pow__", "ring:RatFun.scale",
        "ring:RatFun.mul_term", "ring:RatFun.diff",
        "ring:RatFun.subs_symbol_power",
    ),
    "ring.xseries": (
        "ring:XSeries.add", "ring:XSeries.mul", "ring:XSeries.scale",
        "ring:XSeries.shift", "ring:XSeries.map_coeffs",
        "ring:XSeries.truncate", "ring:XSeries.__add__",
        "ring:XSeries.__sub__", "ring:XSeries.__mul__", "ring:XSeries.__eq__",
    ),
    "combinatorics": (
        "combinatorics:partitions_of", "combinatorics:centralizer_order",
        "combinatorics:automorphism_count", "combinatorics:kappa",
        "combinatorics:conjugate", "combinatorics:hooks_and_contents",
        "combinatorics:irrep_dimension",
    ),
    "combinatorics.character": ("combinatorics:character",),
    "symfun": (
        "symfun:SymFunc.__add__", "symfun:SymFunc.__sub__",
        "symfun:SymFunc.__neg__", "symfun:SymFunc.scale",
        "symfun:SymFunc.__mul__", "symfun:SymFunc.map_coeffs",
        "symfun:schur_to_powersums", "symfun:powersum_from_schurs",
        "symfun:cut_and_join", "symfun:graded_exp", "symfun:graded_log",
    ),
    "symfun.mul": ("symfun:SymFunc.mul",),
    "symfun.specialize": ("symfun:specialize",),
    "symfun.quantum_dimension": ("symfun:quantum_dimension",),
    "hurwitz": (
        "hurwitz:hurwitz_table", "hurwitz:burnside_series",
        "hurwitz:elsv_genus0", "hurwitz:compare_cut_and_join",
        "hurwitz:verify_cut_and_join",
    ),
    "curves": (
        "curves:verify_annihilation", "curves:curve_operator",
        "curves:recurrence_check", "curves:Dilation.apply",
        "curves:LambdaEuler.apply",
    ),
    "curves.z_closed": ("curves:z_closed",),
    "curves.z_from_characters": ("curves:z_from_characters",),
    "curves.apply_operator": ("curves:apply_operator",),
}

SPAN_CAP = 100_000  # spans kept for the trace file; counters see every call
_MOD = (1 << 61) - 1  # prime modulus for the denominator-divisibility test


def qcurve_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "qcurve" or name.startswith("qcurve.")
    ]


def find_caches() -> list:
    """Every functools cache reachable from qcurve's module namespaces."""
    found = {}
    for module in qcurve_modules():
        for value in vars(module).values():
            inner = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *inner):
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [span id, name, start ns, child ns]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_ns = 0

    def enter(self, name: str) -> list:
        self.next_id += 1
        frame = [self.next_id, name, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, parent[0] if parent else 0, name, start, end)
            )
        else:
            self.dropped += 1

    def bookkeep(self, fn, *args) -> None:
        """Run a counter update with tracing off, outside every self time."""
        start = time.perf_counter_ns()
        self.enabled = False
        try:
            fn(self.counts, *args)
        finally:
            self.enabled = True
        spent = time.perf_counter_ns() - start
        self.bookkeeping_ns += spent
        if self.stack:
            self.stack[-1][3] += spent


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counter is not None:
            tracer.bookkeep(counter, args, result)
        return result

    return traced


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result
# ---------------------------------------------------------------------------

def _exponent_span(poly) -> int:
    """Sum over symbols of (max - min exponent): the degree, units aside."""
    monos = list(poly.terms)
    if not monos:
        return 0
    return sum(max(col) - min(col) for col in zip(*monos))


def _count_norm(counts, args, _result) -> None:
    rat = args[0]
    den = args[2] if len(args) > 2 else None
    if den is not None and not rat.is_zero() and (
        _exponent_span(rat.den) < _exponent_span(den)
    ):
        counts["ratfun_norm.cancelled"] += 1


def _symbols(poly) -> set[int]:
    return {i for mono in poly.terms for i, e in enumerate(mono) if e}


def _dense_mod(poly, sidx: int) -> list[int]:
    """Ascending coefficients modulo _MOD of a poly univariate in sidx."""
    exps = {mono[sidx]: c for mono, c in poly.terms.items()}
    lo = min(exps)
    cs = [0] * (max(exps) - lo + 1)
    for e, c in exps.items():
        cs[e - lo] = c.numerator * pow(c.denominator, -1, _MOD) % _MOD
    return cs


def _divides(a, b) -> bool:
    """a | b for canonical denominators (a nonzero), by long division
    modulo a 61-bit prime; a false "divides" needs the prime to divide a
    nonzero integer remainder coefficient."""
    sa = _symbols(a)
    if not sa:
        return True
    if len(sa) != 1 or _symbols(b) != sa:
        return False
    (sidx,) = sa
    fa, r = _dense_mod(a, sidx), _dense_mod(b, sidx)
    n = len(fa) - 1
    if n > len(r) - 1:
        return False
    inv = pow(fa[-1], -1, _MOD)
    for k in range(len(r) - 1 - n, -1, -1):
        q = r[k + n] * inv % _MOD
        if q:
            for i in range(n + 1):
                r[k + i] = (r[k + i] - q * fa[i]) % _MOD
    return not any(r[:n])


def _count_add(counts, args, _result) -> None:
    if not hasattr(args[1], "den"):
        return
    d1, d2 = args[0].den, args[1].den
    if d1 == d2 or _divides(d1, d2) or _divides(d2, d1):
        counts["ratfun_add.shared_den"] += 1


def _count_laurent_mul(counts, args, _result) -> None:
    a, b = args[0], args[1]
    counts["laurent_mul.term_products"] += len(a.terms) * (
        len(b.terms) if hasattr(b, "terms") else 1
    )


COUNTERS = {
    "ring.ratfun_norm": _count_norm,
    "ring.ratfun_add": _count_add,
    "ring.laurent_mul": _count_laurent_mul,
}


def patch(tracer: Tracer):
    """Install span wrappers in every qcurve namespace; returns the undo."""
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in qcurve_modules()}
    namespaces = [vars(m) for m in modules.values()]
    undo = []
    for name, targets in SPANS.items():
        for target in targets:
            module_name, attr = target.split(":")
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf] if path else getattr(owner, leaf)
            wrapper = _wrap(tracer, name, original, COUNTERS.get(name))
            if path:
                undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        undo.append((ns, key, original))
                        ns[key] = wrapper

    def restore() -> None:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore


# ---------------------------------------------------------------------------
# scalar share from a profiled pass
# ---------------------------------------------------------------------------

def fractions_share(profile: cProfile.Profile) -> float:
    """Share of profiled time spent in ``fractions`` and the builtins it calls."""
    stats = pstats.Stats(profile).stats
    total = 0.0
    in_fractions = 0.0
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        total += tottime
        if filename.endswith("fractions.py"):
            in_fractions += tottime
        elif filename == "~":
            in_fractions += sum(
                edge[2] for caller, edge in callers.items()
                if caller[0].endswith("fractions.py")
            )
    return in_fractions / total if total else 0.0

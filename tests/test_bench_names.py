"""Every entry point the benchmark traces by name still exists.

``perfbench/tracing.py`` wraps the library's methods and functions by
their names (``SPANS``) and raises on a missing one, so deleting or
renaming a traced name breaks the benchmark.  This runs that lookup in
the library's own tests.
"""

import importlib.util
from pathlib import Path

import qcurve  # noqa: F401  (tracing patches the loaded qcurve modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("qcurve_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = _load_tracing()
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in tracing.qcurve_modules()}

    def lookup(target):
        module_name, attr = target.split(":")
        owner = modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[leaf]

    targets = [t for names in tracing.SPANS.values() for t in names]
    before = [lookup(t) for t in targets]
    restore = tracing.patch(tracing.Tracer())
    patched = [lookup(t) for t in targets]
    restore()
    assert all(p is not b for p, b in zip(patched, before))
    assert all(lookup(t) is b for t, b in zip(targets, before))


def test_counters_still_read_the_ring():
    from fractions import Fraction

    from qcurve.ring import LaurentPoly, RatFun

    tracing = _load_tracing()
    u, one, half = (
        LaurentPoly.symbol("u"), LaurentPoly.one(), LaurentPoly.term(Fraction(1, 2))
    )
    d1 = u + half
    a = RatFun(LaurentPoly.symbol("Qh", 2), d1)
    b = RatFun(u - one, d1 * (u + one))
    c = one - u * u
    tracer = tracing.Tracer()
    restore = tracing.patch(tracer)
    tracer.enabled = True
    try:
        a + b  # d1 divides the other denominator
        (one + u) * (one - u)
        RatFun((one + u) * c, (u + u + one) * c)
    finally:
        tracer.enabled = False
        restore()
    assert tracer.counts["ratfun_add.shared_den"] == 1
    assert tracer.counts["laurent_mul.term_products"] >= 4
    assert tracer.counts["ratfun_norm.cancelled"] == 1


def test_character_table_is_cleared_with_the_caches():
    # the benchmark clears every cache it finds before each op
    from qcurve import combinatorics

    assert combinatorics.character_table in _load_tracing().find_caches()


def test_annihilation_spans_record_calls():
    # a fused or inlined entry point would leave its span reading 0
    from qcurve import curves

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    curves.z_closed.cache_clear()
    restore = tracing.patch(tracer)
    tracer.enabled = True
    try:
        assert curves.verify_annihilation(curves.conifold(1), 6).ok
    finally:
        tracer.enabled = False
        restore()
    assert tracer.calls["curves.z_closed"] == 1
    assert tracer.calls["curves.apply_operator"] == 1
    # the "curves" spans inside apply_operator are Dilation.apply: one per
    # operator term per degree, 2 * 7 at x-power 0 and 2 * 6 at x-power 1
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    dilations = [
        span for span in tracer.spans
        if span[2] == "curves" and names.get(span[1]) == "curves.apply_operator"
    ]
    assert len(dilations) == 26

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

"""The traced benchmark's layer table names only what the package defines.

``bench/tracing.py`` wraps the functions and methods in its ``_TARGETS`` table,
and counts the units that ``ramsey.iterate_units`` yields, when a traced run
starts. A deleted or renamed target would fail only there, so this test
resolves every entry against the imported package, without installing a
wrapper.
"""

import importlib
import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_table", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_the_package():
    tracing = _load_tracing()
    targets = [(t[0], t[1]) for t in tracing._TARGETS] + [("rankmetric.ramsey", "iterate_units")]
    missing = []
    for modname, path in targets:
        importlib.import_module(modname)
        try:
            owner, attr = tracing._resolve(modname, path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            fn = None
        if not callable(fn):
            missing.append(f"{modname}:{path}")
    assert not missing, f"trace targets the package no longer defines: {missing}"
    assert not tracing.installed()

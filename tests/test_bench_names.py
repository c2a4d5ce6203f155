"""Every name the benchmark's traced runs wrap still exists where they look it up.

``bench/layers.py`` wraps each ``module:attribute`` of its ``_TARGETS`` by
``getattr`` and raises on a missing one, which would fail every traced run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_benchmark_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    missing = []
    for target, _ in layers._TARGETS:
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(target)
                break
    assert layers._TARGETS
    assert not missing, missing

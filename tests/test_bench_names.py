"""The benchmark's tracer wraps widthlab functions by name; they must exist.

``bench/tracing.py`` imports the standard library only, so it loads here by
path without the benchmark's other modules.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists():
    traced = _load_tracing().TRACED
    assert set(traced) >= {"numerics", "conformal", "yamabe"}
    missing = [
        f"widthlab.{home}.{attr}"
        for home, attrs in traced.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"widthlab.{home}"), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps names widthlab no longer has: {missing}"

"""The benchmark's tracer wraps thinlab functions looked up by name; a renamed
or moved function would otherwise surface only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = [f"{m}.{path}" for m, path, _, _ in tracer.TARGETS if tracer._lookup(m, path) is None]
    assert not missing, missing

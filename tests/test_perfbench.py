"""The benchmark's tracer wraps thinlab functions looked up by name, and its
workloads call thinlab functions with fixed arguments; a renamed function or a
removed parameter would otherwise surface only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"
THINLAB_MODULES = ("congruence", "decay", "expander", "schottky", "symbolic", "thermo")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = [f"{m}.{path}" for m, path, _, _ in tracer.TARGETS if tracer._lookup(m, path) is None]
    assert not missing, missing


def _thinlab_path(node):
    """The dotted path, e.g. ["expander", "SVD_ORDER"], of an attribute chain
    that starts at a thinlab module; None for any other node."""
    path = []
    while isinstance(node, ast.Attribute):
        path.insert(0, node.attr)
        node = node.value
    if path and isinstance(node, ast.Name) and node.id in THINLAB_MODULES:
        return [node.id] + path
    return None


def _resolve(path):
    obj = importlib.import_module("thinlab." + path[0])
    for attr in path[1:]:
        obj = getattr(obj, attr)
    return obj


def _thinlab_calls():
    """(dotted callee, positional count, keyword names) of every call in the
    workloads made through a thinlab module, e.g. `expander.cayley_gap(...)`."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and (path := _thinlab_path(node.func)):
            # a **mapping keyword (arg None) names no parameter the parser can see
            yield path, len(node.args), [k.arg for k in node.keywords if k.arg]


def test_workload_calls_bind():
    calls = list(_thinlab_calls())
    assert calls
    unbound = []
    for path, n_args, keywords in calls:
        try:
            inspect.signature(_resolve(path)).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{'.'.join(path)}: {exc}")
    assert not unbound, unbound


def test_workload_attributes_resolve():
    # constants such as expander.SVD_ORDER are read, not called
    paths = [path for node in ast.walk(ast.parse(WORKLOADS.read_text())) if (path := _thinlab_path(node))]
    assert ["expander", "SVD_ORDER"] in paths
    missing = []
    for path in paths:
        try:
            _resolve(path)
        except AttributeError:
            missing.append(".".join(path))
    assert not missing, missing

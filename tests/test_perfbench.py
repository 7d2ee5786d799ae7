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


def _thinlab_calls():
    """(dotted callee, positional count, keyword names) of every call in the
    workloads made through a thinlab module, e.g. `expander.cayley_gap(...)`."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        path, func = [], node.func
        while isinstance(func, ast.Attribute):
            path.insert(0, func.attr)
            func = func.value
        if path and isinstance(func, ast.Name) and func.id in THINLAB_MODULES:
            # a **mapping keyword (arg None) names no parameter the parser can see
            yield [func.id] + path, len(node.args), [k.arg for k in node.keywords if k.arg]


def test_workload_calls_bind():
    calls = list(_thinlab_calls())
    assert calls
    unbound = []
    for path, n_args, keywords in calls:
        callee = importlib.import_module("thinlab." + path[0])
        for attr in path[1:]:
            callee = getattr(callee, attr)
        try:
            inspect.signature(callee).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{'.'.join(path)}: {exc}")
    assert not unbound, unbound

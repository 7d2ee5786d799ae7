"""Every public function, class, method and constant of thinlab has a reader:
a reference from elsewhere in the package (not its definition or the
`__init__.py` re-export), from the acceptance criteria, or from the benchmark,
whose tracer names its targets in strings.  Unit tests do not count.  Readers
are matched by name, so a name other code shares can only hide an unread
definition, never report a read one.  Likewise every parameter of a thinlab
function is read by that function's body, with the exceptions listed below."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _references(path, strings=False):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_public_name_has_a_reader():
    modules = sorted((ROOT / "src" / "thinlab").glob("*.py"))
    read = set().union(*(_references(p) for p in modules if p.name != "__init__.py"),
                       _references(ROOT / "tests" / "test_acceptance.py"),
                       *(_references(p, strings=True) for p in sorted((ROOT / "perfbench").glob("*.py"))))
    unread = [f"{p.name}:{name}" for p in modules for name in _definitions(ast.parse(p.read_text()))
              if name not in read]
    assert not unread, unread


def _unread_parameters(path):
    """(function, parameter) for each parameter that its function's body never reads."""
    unread = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unread += [(name, p) for p in params if p not in read and p not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    # the cmd_* subcommands share one dispatch signature, whether or not each reads all of it
    unread = {f"{fn}.{p}" for path in sorted((ROOT / "src" / "thinlab").glob("*.py"))
              for fn, p in _unread_parameters(path)
              if not (fn.startswith("cmd_") and p in ("cfg", "model", "args"))}
    # each is kept only because the benchmark still passes or binds it
    assert unread == {"cayley_gap.seed", "conv_opnorm.svd_cap", "flattening_pipeline.svd_cap"}

"""Every public function, class, method and constant of thinlab has a reader:
a reference from elsewhere in the package (not its definition or the
`__init__.py` re-export), from the acceptance criteria, or from the benchmark,
whose tracer names its targets in strings.  Unit tests do not count.  Readers
are matched by name, so a name other code shares can only hide an unread
definition, never report a read one."""

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

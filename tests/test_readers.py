"""Every public function, class, method and constant of thinlab has a reader:
a reference from elsewhere in the package (not its definition or the
`__init__.py` re-export), from the acceptance criteria, or from the benchmark,
whose tracer names its targets in strings.  Unit tests do not count.  Every
private (single-underscore) module-level function and method has one too.  Readers
are matched by name, so a name other code shares can only hide an unread
definition, never report a read one.  The same readers must load every public
attribute a class stores and every dataclass field, as `.name`, and every
classmethod and staticmethod, as `Class.method`.  Likewise every parameter of
a thinlab function is read by that function's body, with the exceptions listed
below.  Each collector must find at least a floor's worth of definitions, so
that a walk that finds nothing cannot pass."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "thinlab").glob("*.py"))
# definitions each collector finds in this tree; a refactor may raise them
MIN_STORED_ATTRIBUTES = 106
MIN_CLASSMETHODS = 6
MIN_PRIVATE_HELPERS = 23


def _definitions(tree, private=False):
    """Module-level names and methods: the public ones, or with `private` the
    single-underscore ones (dunders are protocol, not helpers)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    if private:
        return [n for n in names if n.startswith("_") and not n.startswith("__")]
    return [n for n in names if not n.startswith("_")]


def _references(path, strings):
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


def _reader_paths():
    """(path, whether its strings count) for every file whose reads count."""
    return ([(p, False) for p in MODULES if p.name != "__init__.py"]
            + [(ROOT / "tests" / "test_acceptance.py", False)]
            + [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))])


def test_every_public_name_has_a_reader():
    read = set().union(*(_references(p, strings) for p, strings in _reader_paths()))
    unread = [f"{p.name}:{name}" for p in MODULES for name in _definitions(ast.parse(p.read_text()))
              if name not in read]
    assert not unread, unread


def test_every_private_helper_has_a_reader():
    helpers = [f"{p.name}:{name}" for p in MODULES for name in _definitions(ast.parse(p.read_text()), private=True)]
    assert len(helpers) >= MIN_PRIVATE_HELPERS, helpers
    read = set().union(*(_references(p, strings) for p, strings in _reader_paths()))
    unread = [h for h in helpers if h.split(":")[1] not in read]
    assert not unread, unread


def _classes(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def _decorator_names(node):
    funcs = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {f.id for f in funcs if isinstance(f, ast.Name)}


def _stored_attributes(cls):
    """Public dataclass fields of a class, and the public attributes its methods store on self."""
    names = set()
    if "dataclass" in _decorator_names(cls):
        names.update(n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef):
            names.update(n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                         and isinstance(n.value, ast.Name) and n.value.id == "self")
    return sorted(n for n in names if not n.startswith("_"))


def _attribute_reads(path, strings):
    """Names loaded as `.name` (and, with `strings`, every identifier in a string)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_attribute_is_read():
    stored = [(p.name, cls.name, attr) for p in MODULES for cls in _classes(ast.parse(p.read_text()))
              for attr in _stored_attributes(cls)]
    assert len(stored) >= MIN_STORED_ATTRIBUTES, stored
    read = set().union(*(_attribute_reads(p, strings) for p, strings in _reader_paths()))
    unread = [f"{module}:{cls}.{attr}" for module, cls, attr in stored if attr not in read]
    assert not unread, unread


def _class_method_reads(path, strings):
    """(Class, method) for each load of `Class.method` or `module.Class.method`
    (and, with `strings`, each `Class.method` in a string)."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                pairs.add((owner.id if isinstance(owner, ast.Name) else owner.attr, node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            pairs.update(re.findall(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", node.value))
    return pairs


def test_every_classmethod_is_read():
    defined = [(p.name, cls.name, fn.name) for p in MODULES for cls in _classes(ast.parse(p.read_text()))
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and _decorator_names(fn) & {"classmethod", "staticmethod"}]
    assert len(defined) >= MIN_CLASSMETHODS, defined
    read = set().union(*(_class_method_reads(p, strings) for p, strings in _reader_paths()))
    unread = [f"{module}:{cls}.{name}" for module, cls, name in defined if (cls, name) not in read]
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

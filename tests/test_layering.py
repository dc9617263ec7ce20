"""No module of the package reads another module's private names, and
no function of it calls itself.

A name with one leading underscore is private to the module that
defines it.  The check parses every ``src/halfspace/*.py`` and fails on
``from .m import _name`` and on ``obj._name`` where ``_name`` is defined
nowhere in the reading module (as a function, class, variable,
argument or assigned attribute).  Dunder names are not private.

Traversals are iterative, so deep inputs never meet the interpreter's
recursion limit: a function calling its own name, or a method calling
``self.name`` or ``cls.name``, fails the second check.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfspace"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    own = _defined(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("halfspace")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own:
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    return found


def test_no_private_names_across_modules():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in violations(path)]
    assert not found, "\n".join(found)


def test_check_flags_foreign_private_names(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .spanner import _hidden, visible\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._mine = 1\n"
        "    def f(self, tree):\n"
        "        return self._mine + tree._theirs + tree.__len__()\n"
    )
    assert violations(src) == ["m.py:1 imports _hidden from spanner", "m.py:6 reads ._theirs"]


def self_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for scope in ast.walk(tree):
        method = isinstance(scope, ast.ClassDef)
        for fn in ast.iter_child_nodes(scope):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if method:
                    hit = (
                        isinstance(f, ast.Attribute)
                        and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")
                    )
                else:
                    hit = isinstance(f, ast.Name) and f.id == fn.name
                if hit:
                    found.append(f"{path.name}:{node.lineno} {fn.name} calls itself")
    return found


def test_no_function_calls_itself():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in self_calls(path)]
    assert not found, "\n".join(found)


def test_check_flags_self_calls(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(n):\n"
        "    return f(n - 1) if n else 0\n"
        "def g():\n"
        "    def walk(x):\n"
        "        return walk(x)\n"
        "    return walk\n"
        "class A:\n"
        "    def children(self, c):\n"
        "        return children(c) + self.children(c)\n"
        "    def h(self):\n"
        "        return f(1) + self.children(0)\n"
    )
    assert self_calls(src) == ["m.py:2 f calls itself", "m.py:5 walk calls itself", "m.py:9 children calls itself"]

"""No module of the package reads another module's private names.

A name with one leading underscore is private to the module that
defines it.  The check parses every ``src/halfspace/*.py`` and fails on
``from .m import _name`` and on ``obj._name`` where ``_name`` is defined
nowhere in the reading module (as a function, class, variable,
argument or assigned attribute).  Dunder names are not private.
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

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

Every import sits at the top of its module, where the import graph can
be read at a glance: an ``import`` inside a function fails the third
check.

The fourth check reads ``tests/*.py`` and ``src/halfspace/*.py``:
every name a top-level import binds (``__future__`` aside) must be read
somewhere in the file.  A module's ``__all__`` counts as reading the
names it lists (the package's re-exports), and a library module
imports the functions ``bench/tracer.py`` wraps in it by name so the
tracer can patch them there (``spanner.box_adjacent``): those names
need no reader.

The collector's switches are process-global, so one module owns them:
the fifth check fails on a call of ``gc.disable``, ``gc.enable``,
``gc.collect``, ``gc.freeze`` or ``gc.set_threshold``, and on importing
one of them from ``gc``, in every module but the one that defines
``collector_paused``.

Every tree and index artifact goes through the one text writer,
:meth:`QuadTree.to_json`: the sixth check fails on a dict built with
the keys of a node record (``cell`` and ``parent``) or of an
annotation (``h``, ``n2`` and ``reps``), as a display or through
``dict(...)``, and on a call of ``to_dict`` on anything but a spanner
graph.  It reads names, not types: a spanner graph's dict is taken
from a name ``graph``.
"""

import ast
from pathlib import Path

from test_tracer_contract import _tracer_names

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


def function_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    outermost = {}  # import node -> name of the outermost function holding it
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    outermost.setdefault(node, fn.name)
    hits = sorted(outermost.items(), key=lambda item: item[0].lineno)
    return [f"{path.name}:{node.lineno} {name} imports" for node, name in hits]


def test_no_function_imports():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in function_imports(path)]
    assert not found, "\n".join(found)


def test_check_flags_function_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import io\n"
        "from .tiling import CellId\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class A:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            from .quadtree import shadow_within\n"
        "            return shadow_within\n"
        "        return h\n"
    )
    assert function_imports(src) == ["m.py:4 f imports", "m.py:9 g imports"]


TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path, exempt: frozenset[str] = frozenset()) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}  # name -> line of the top-level import binding it
    used = set(exempt)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return [f"{path.name}:{line} imports {name}, never used" for name, line in bound.items() if name not in used]


def test_no_unused_imports_in_tests():
    found = [v for path in sorted(TESTS.glob("*.py")) for v in unused_imports(path)]
    assert not found, "\n".join(found)


def test_no_unused_imports_in_the_package():
    traced = _tracer_names()["FUNCTIONS"]
    found = [
        v
        for path in sorted(PACKAGE.glob("*.py"))
        for v in unused_imports(path, frozenset(fname for modname, fname, _kind in traced if modname == path.stem))
    ]
    assert not found, "\n".join(found)


def test_check_flags_unused_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import random as rnd\n"
        "from halfspace.tiling import CellId, HPoint\n"
        "from .quadtree import lift_pair, shadow_within, box_adjacent\n"
        "__all__ = ['shadow_within']\n"
        "@rnd.seed\n"
        "def f(c: CellId, math=None):\n"
        "    return rnd.random()\n"
    )
    assert unused_imports(src) == [
        "m.py:2 imports math, never used",
        "m.py:3 imports os, never used",
        "m.py:5 imports HPoint, never used",
        "m.py:6 imports lift_pair, never used",
        "m.py:6 imports box_adjacent, never used",
    ]
    assert unused_imports(src, frozenset({"box_adjacent"}))[-1] == "m.py:6 imports lift_pair, never used"


GC_SWITCHES = {"disable", "enable", "collect", "freeze", "set_threshold"}


def collector_switches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    if any(isinstance(node, ast.FunctionDef) and node.name == "collector_paused" for node in tree.body):
        return []
    modules = {alias.asname or "gc" for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names if alias.name == "gc"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"{path.name}:{node.lineno} imports gc.{alias.name}" for alias in node.names if alias.name in GC_SWITCHES]
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in GC_SWITCHES and isinstance(f.value, ast.Name) and f.value.id in modules:
                found.append(f"{path.name}:{node.lineno} calls gc.{f.attr}")
    return found


def test_only_collector_paused_switches_the_collector():
    owners = [path.name for path in sorted(PACKAGE.glob("*.py")) if "def collector_paused" in path.read_text()]
    assert owners == ["tiling.py"]
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in collector_switches(path)]
    assert not found, "\n".join(found)


def test_check_flags_collector_switches(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import gc\n"
        "import gc as collector\n"
        "from gc import freeze, get_count\n"
        "def f():\n"
        "    gc.disable()\n"
        "    collector.set_threshold(1)\n"
        "    gc.isenabled()\n"
        "    return gc.get_count(), get_count()\n"
        "def g(tree):\n"
        "    tree.collect()\n"
        "    gc.collect(1)\n"
    )
    assert collector_switches(src) == [
        "m.py:3 imports gc.freeze",
        "m.py:5 calls gc.disable",
        "m.py:6 calls gc.set_threshold",
        "m.py:11 calls gc.collect",
    ]
    owner = tmp_path / "owner.py"
    owner.write_text("import gc\ndef collector_paused():\n    gc.disable()\n    gc.collect(1)\n    gc.enable()\n")
    assert collector_switches(owner) == []


RECORD_KEYS = ({"cell", "parent"}, {"h", "n2", "reps"})


def record_dicts(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
            keys = {k.arg for k in node.keywords}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "to_dict":
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "graph"):
                found.append(f"{path.name}:{node.lineno} calls to_dict on {ast.unparse(receiver)}")
            continue
        else:
            continue
        if any(need <= keys for need in RECORD_KEYS):
            found.append(f"{path.name}:{node.lineno} builds a record dict")
    return found


def test_trees_and_indexes_are_written_by_the_one_text_writer():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in record_dicts(path)]
    assert not found, "\n".join(found)


def test_check_flags_record_dicts(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(tree, graph, node, up):\n"
        "    a = tree.to_dict()\n"
        "    b = graph.to_dict()\n"
        "    c = {'cell': node.cell, 'kind': node.kind, 'parent': up}\n"
        "    d = dict(h=node.h_index, n2=node.n2_index, reps=node.reps)\n"
        "    e = {'cell': node.cell, 'kind': node.kind}\n"
        "    return self.index.tree.to_dict(), a, b, c, d, e\n"
    )
    assert record_dicts(src) == [
        "m.py:2 calls to_dict on tree",
        "m.py:4 builds a record dict",
        "m.py:5 builds a record dict",
        "m.py:7 calls to_dict on self.index.tree",
    ]

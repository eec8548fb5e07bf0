"""No module of the package imports a name it never uses, defines a private
name at module level that no module of the package reads, or sits on a
chain of the package's own imports that leads back to where it started.

Only the standard library's ``ast`` is needed. An import inside a function
must be used in that function; a module-level import anywhere in the
module, or by being listed in ``__all__``. The re-exports of
``__init__.py`` are exempt. The import graph counts every relative import,
at module level, under ``TYPE_CHECKING`` or inside a function alike. A
private name is read where a module loads it or imports it by name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dropuq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list:
    """(line, name) of each import in ``source`` whose name its scope never reads."""
    tree = ast.parse(source)
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in node.value.elts
    }
    unused = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) or (
                isinstance(child, ast.ImportFrom) and child.module != "__future__"
            ):
                read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
                names = [(a.asname or a.name).split(".")[0] for a in child.names]
                unused.extend(
                    (child.lineno, name) for name in names
                    if name not in read and not (scope is tree and name in exported)
                )
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from x import a, b as c\nc\n", [(1, "a")]),
        ("import os\n__all__ = ['os']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import os\n\ndef g():\n    os.sep\n", [(2, "os")]),
        ("def f():\n    import os\n    return lambda: os.sep\n", []),
        ("import numpy as np\ndef f() -> np.ndarray:\n    pass\n", []),
    ],
)
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


def private_definitions(tree: ast.Module):
    """(line, name) of each module-level ``def``, ``class`` or assignment of
    a private name in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def loaded_names(tree: ast.AST) -> set:
    """The names ``tree`` loads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private definition, in a package whose
    modules' sources are ``sources``, that no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= loaded_names(tree)
        imports = (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom))
        read.update(a.name for n in imports for a in n.names)
    return [
        (module, line, name)
        for module, tree in sorted(trees.items())
        for line, name in private_definitions(tree) if name not in read
    ]


def test_no_unread_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize(
    "sources, unread",
    [
        ({"a": "def _f():\n    pass\n"}, [("a", 1, "_f")]),
        ({"a": "class _C:\n    pass\n_C()\n"}, []),
        ({"a": "_X = 1\n_Y: int = 2\n_A, (_B, c) = 1, (2, 3)\n_Y\n"},
         [("a", 1, "_X"), ("a", 3, "_A"), ("a", 3, "_B")]),
        ({"a": "_X = 1\n", "b": "from .a import _X\n"}, []),
        ({"a": "_X = 1\n", "b": "def f():\n    return _X\n"}, []),
        ({"a": "__all__ = []\ndef f():\n    def _g():\n        pass\n"}, []),
        ({"a": "_X = 1\n", "b": "import a\na._X\n"}, [("a", 1, "_X")]),
    ],
)
def test_the_private_name_check_itself(sources, unread):
    assert unread_private_names(sources) == unread


def misplaced_private_names(sources: dict) -> list:
    """(module, line, name, importer) of each private definition, in a package
    whose modules' sources are ``sources``, that its own module never reads
    and exactly one other module imports by a relative import: the name
    belongs in that importer."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    importers = {}
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    importers.setdefault((node.module, a.name), set()).add(importer)
    misplaced = []
    for module, tree in sorted(trees.items()):
        read = loaded_names(tree)
        for line, name in private_definitions(tree):
            users = importers.get((module, name), set()) - {module}
            if len(users) == 1 and name not in read:
                misplaced.append((module, line, name, *users))
    return misplaced


def test_no_private_name_serves_one_other_module():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert misplaced_private_names(sources) == []


@pytest.mark.parametrize(
    "sources, misplaced",
    [
        ({"a": "_X = 1\n", "b": "from .a import _X\n"}, [("a", 1, "_X", "b")]),
        ({"a": "class _C:\n    pass\n", "b": "def f():\n    from .a import _C\n"},
         [("a", 1, "_C", "b")]),
        ({"a": "def _f():\n    pass\n_f()\n", "b": "from .a import _f\n"}, []),
        ({"a": "_X = 1\n", "b": "from .a import _X\n", "c": "from .a import _X\n"}, []),
        ({"a": "X = 1\n", "b": "from .a import X\n"}, []),
        ({"a": "_X = 1\n", "b": "from a import _X\n"}, []),
        ({"a": "_X = 1\n", "b": "from .c import _X\n", "c": "from .a import _X\n"},
         [("a", 1, "_X", "c")]),
    ],
)
def test_the_misplaced_name_check_itself(sources, misplaced):
    assert misplaced_private_names(sources) == misplaced


def import_graph(sources: dict) -> dict:
    """Module name -> the sorted package modules its relative imports name,
    for a package whose modules' sources are ``sources``; ``from . import x``
    names module x, or ``__init__`` when x is not a module."""
    graph = {}
    for name, source in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(a.name if a.name in sources else "__init__" for a in node.names)
        graph[name] = sorted(targets & sources.keys())
    return graph


def find_cycle(graph: dict):
    """The first cycle a depth-first walk in name order meets, as the list of
    its modules with the first repeated at the end; None when there is none."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in graph[name]:
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_no_import_cycle():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    cycle = find_cycle(import_graph(sources))
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


@pytest.mark.parametrize(
    "sources, cycle",
    [
        ({"a": "from .b import x\n", "b": "def f():\n    from . import a\n"}, ["a", "b", "a"]),
        ({"a": "from . import b\n", "b": "from . import c\n", "c": "from .b import y\n"},
         ["b", "c", "b"]),
        ({"a": "from .b import x\nfrom . import c\n", "b": "from .c import y\n", "c": ""}, None),
        ({"__init__": "from .a import x\n", "a": "from . import __version__\n"},
         ["__init__", "a", "__init__"]),
        ({"a": "import b\nfrom b import x\n", "b": "from . import a\n"}, None),
    ],
)
def test_the_cycle_check_itself(sources, cycle):
    assert find_cycle(import_graph(sources)) == cycle

"""No module of the package imports a name it never uses.

Only the standard library's ``ast`` is needed. An import inside a function
must be used in that function; a module-level import anywhere in the
module, or by being listed in ``__all__``. The re-exports of
``__init__.py`` are exempt.
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

"""Every name a package module imports is used in that module, every
module-level private function or constant is used somewhere in the
package, and the package exports exactly the names it binds."""

import ast
import types
from pathlib import Path

import pytest

import z2zu

SRC = Path(__file__).resolve().parent.parent / "src" / "z2zu"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        "os (line 1)"
    ]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and constants that no module
    reads: defining a name or importing it is not a use."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{name} ({module} line {node.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in used)


def test_scan_finds_an_unused_private_name():
    assert unreferenced_private_names({
        "a.py": "_DEAD = 1\n_used = 2\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\nx = _helper()\n",
    }) == ["_DEAD (a.py line 1)"]
    assert unreferenced_private_names({"a.py": "def _f():\n    pass\n"}) == [
        "_f (a.py line 1)"
    ]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_package_exports_match_its_bindings():
    # the import block and __all__ in __init__.py name the same objects
    assert len(z2zu.__all__) == len(set(z2zu.__all__))
    assert [n for n in z2zu.__all__ if not hasattr(z2zu, n)] == []
    bound = {name for name, value in vars(z2zu).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(z2zu.__all__) == bound

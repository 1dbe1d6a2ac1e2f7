"""Source rules of the library: explicit exceptions, Fraction only in tests,
and no unused imports.

An ``assert`` disappears under ``python -O``, so invariants raise instead,
and they raise a named exception rather than ``AssertionError``.
Fraction arithmetic lives in tests/fraction_oracles.py as a reference;
the library computes in integers only.  A name a module imports and never
uses is dead weight; ``from __future__`` imports and names the module
re-exports through ``__all__`` (as ``__init__.py`` does) are exempt.
"""

import ast
from pathlib import Path

import lattice6

SOURCES = sorted(Path(lattice6.__file__).parent.glob("*.py"))


def _raised_name(exc):
    """Name of the exception class in ``raise X`` or ``raise X(...)``."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


def _unused_imports(path):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for name, lineno in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield f"{path.name}:{lineno}: imports {name} and never uses it"


def _violations(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and _raised_name(node.exc) == "AssertionError":
            yield f"{path.name}:{node.lineno}: raises AssertionError"
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                yield f"{path.name}:{node.lineno}: imports fractions"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "fractions":
                yield f"{path.name}:{node.lineno}: imports fractions"


def test_library_has_no_assert_and_no_fractions():
    assert SOURCES, "no library sources found"
    found = [v for path in SOURCES for v in _violations(path)]
    assert not found, "\n".join(found)


def test_library_has_no_unused_imports():
    found = [v for path in SOURCES for v in _unused_imports(path)]
    assert not found, "\n".join(found)


def test_raising_assertion_error_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    if x:\n        raise AssertionError('x')\n"
                    "    raise AssertionError\n", encoding="utf-8")
    assert sorted(_violations(path)) == ["sample.py:3: raises AssertionError",
                                       "sample.py:4: raises AssertionError"]


def test_unused_import_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import sys as system\n"
                    "from typing import Dict, List, Tuple\n"
                    "__all__ = ['Tuple']\n"
                    "def f(x: List[int]):\n"
                    "    return system.argv\n", encoding="utf-8")
    assert list(_unused_imports(path)) == ["sample.py:2: imports os and never uses it",
                                           "sample.py:4: imports Dict and never uses it"]

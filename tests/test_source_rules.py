"""Source rules of the library: explicit exceptions, and Fraction only in tests.

An ``assert`` disappears under ``python -O``, so invariants raise instead,
and they raise a named exception rather than ``AssertionError``.
Fraction arithmetic lives in tests/fraction_oracles.py as a reference;
the library computes in integers only.
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


def test_raising_assertion_error_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    if x:\n        raise AssertionError('x')\n"
                    "    raise AssertionError\n", encoding="utf-8")
    assert sorted(_violations(path)) == ["sample.py:3: raises AssertionError",
                                       "sample.py:4: raises AssertionError"]

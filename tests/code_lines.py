"""Code lines of the Python modules of a directory: the lines that hold
code, leaving out blank lines, comments and docstrings.

    python tests/code_lines.py [DIRECTORY]

prints the count of each module of DIRECTORY (default: the package,
src/lattice6), by module name, then the total.  A line counts when
tokenize finds on it a token other than a comment, a line break or an
indent; a token that spans lines, such as a string over several lines,
counts each of them.  A docstring, the string expression that opens a
module, class or function body (ast), is not code, and neither is any
line it spans.  The name keeps this file out of the test collection.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: The directory counted when none is given.
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lattice6"

#: The tokens that hold no code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by the docstrings of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for first in node.body[:1]:
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                        and isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> None:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

"""The code-line counter (tests/code_lines.py) on a fixed snippet."""

from code_lines import code_lines, main

#: Eight code lines: the import, the class and def lines, the assignment,
#: and the two two-line statements.  The docstrings, comments and blank
#: lines hold no code, and the string over two lines is no docstring.
SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment


class Shape:
    """One line."""

    # a comment line
    sides = 4

    def area(self):
        """Two
        lines."""
        text = """not a docstring,
        but a string over two lines"""
        return (self.sides
                + len(text))
'''


def test_code_lines_of_a_fixed_snippet(tmp_path, capsys):
    assert code_lines(SNIPPET) == 8
    assert code_lines("") == 0
    (tmp_path / "shapes.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    main([str(tmp_path)])
    assert capsys.readouterr().out == "     0  empty\n     8  shapes\n     8  total\n"

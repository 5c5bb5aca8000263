"""The rule of ``code_lines.py``, which counts the code lines of
``src/qcc``, on a small source."""

import code_lines

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
class A:
    """A class docstring."""

    x = ("a string "
         "over two lines")

    def f(self):
        """A function docstring."""
        return """a string,
not a docstring"""
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, x over 2 lines, def, return over 2 lines
    assert code_lines.code_lines(SOURCE) == 7


def test_a_statement_over_n_lines_counts_n():
    assert code_lines.code_lines("x = [1,\n     2,  # two\n     3]\n") == 3

"""Code lines of ``src/qcc``, per module and in total.

A code line is a line that holds part of a statement: docstrings,
comments and blank lines do not count, and a statement spanning n lines
counts n, including the inner lines of a string literal that is not a
docstring.  Run it by hand from the root of the repository:

    python tests/code_lines.py

It prints one ``<module> <lines>`` line per module, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qcc"
# tokens that hold no code: a line with only these is not a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def counts():
    """{module file name: code lines} of every module of ``src/qcc``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


if __name__ == "__main__":
    found = counts()
    width = max(map(len, found))
    for name, n in found.items():
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(found.values()):>5}")

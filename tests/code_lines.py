"""Print the number of code lines of the g2abc package, with no blank, comment or
docstring lines.

    python tests/code_lines.py

A line counts when a token other than a comment, a newline or an indent starts on it or
spans it (each line of a multi-line string or bracket counts); the lines of every
docstring, the first statement of a module, class or function when it is a string, do
not.  pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "g2abc"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The lines of every docstring of the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = sum(code_lines(path.read_text(encoding="utf-8"))
                for path in sorted(PACKAGE.glob("*.py")))
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())

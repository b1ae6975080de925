"""Line counts of the library source, as ROADMAP's aim 2 reports them.

Prints the ``wc -l`` total of ``src/gdmtopics/*.py`` and the code-only
count, which leaves out the lines of docstrings (module, class and
function), lines holding only a comment, and blank lines. Run from
anywhere: ``python tools/loc.py``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gdmtopics"


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_only_lines(text):
    """Line numbers whose only token is a comment."""
    comments, other = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            other.update(range(token.start[0], token.end[0] + 1))
    return comments - other


def counts(path):
    """(all lines, code lines) of the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skipped = _docstring_lines(ast.parse(text)) | _comment_only_lines(text)
    code = sum(1 for i, line in enumerate(lines, 1) if line.strip() and i not in skipped)
    return len(lines), code


def main():
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        n, c = counts(path)
        total, code = total + n, code + c
        print(f"{n:6d} {c:6d}  {path.name}")
    print(f"{total:6d} {code:6d}  total (wc -l, code without docstrings, comments and blanks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

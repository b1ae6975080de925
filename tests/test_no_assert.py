"""The library must not rest runtime checks on ``assert``: ``python -O``
strips assert statements, so a check written that way silently disappears."""

import ast
import pathlib

import gdmtopics


def test_library_has_no_assert_statements():
    src = pathlib.Path(gdmtopics.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"

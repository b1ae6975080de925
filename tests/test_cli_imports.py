"""The command-line front end uses only the library's public names: a private
name imported into ``cli.py`` ties the CLI to another module's internals."""

import ast
import pathlib

import gdmtopics


def test_cli_imports_no_private_name():
    path = pathlib.Path(gdmtopics.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # __version__ is public
    ]
    assert not found, f"cli.py imports private names: {found}"

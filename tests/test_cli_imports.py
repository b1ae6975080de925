"""The command-line front end uses only the library's public names: a private
name imported into ``cli.py`` ties the CLI to another module's internals.
Importing it loads no scipy optimizer, whose import was most of the CLI's
start-up."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # in a child process, which starts with no scipy module loaded
    src = os.path.dirname(os.path.dirname(gdmtopics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gdmtopics.cli; print('scipy.optimize' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"

"""Every top-level function and class of the library is used by the library
itself, or, if public, exported from ``gdmtopics/__init__.py``: a name that
only tests reach is code kept alive for the tests alone. Every name a module
imports is used in it."""

import ast
import pathlib

import gdmtopics


def _top_level_owner(tree):
    """Yield (owner, node) for every node of ``tree``: owner is the name of the
    top-level function or class the node sits in, or None."""
    for statement in tree.body:
        owner = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(statement):
            yield owner, node


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _library_trees():
    """The parsed modules of the library, by file name."""
    src = pathlib.Path(gdmtopics.__file__).parent
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(src.glob("*.py"))
    }


def _library_names():
    """(definitions, exported, referenced): every top-level function and class
    of the library as (file, line, name), the names ``__init__.py`` exports,
    and the names library code references outside their own definition."""
    trees = _library_trees()
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    definitions, used = [], set()
    for name, tree in trees.items():
        for owner, node in _top_level_owner(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == owner:
                definitions.append((name, node.lineno, owner))
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                used.update((alias.name, None) for alias in node.names)
            elif _referenced_name(node) is not None:
                used.add((_referenced_name(node), owner))
    # a definition's references to itself do not count
    referenced = {name for name, owner in used if owner != name}
    return definitions, exported, referenced


def test_every_public_name_is_exported_or_used_by_the_library():
    definitions, exported, referenced = _library_names()
    found = [
        f"{file}:{line} {name}"
        for file, line, name in definitions
        if not name.startswith("_") and name not in exported | referenced
    ]
    assert not found, f"public names that neither __init__ exports nor the library uses: {found}"


def test_every_private_name_is_used_by_the_library():
    definitions, _, referenced = _library_names()
    found = [
        f"{file}:{line} {name}"
        for file, line, name in definitions
        if name.startswith("_") and name not in referenced
    ]
    assert not found, f"private names that no library code uses: {found}"


def _unused_imports(name, tree):
    """(file, line, name) for every name the module ``tree`` imports but never
    references; ``from __future__`` and the re-exports of ``__init__.py``
    (its relative imports) are left out."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (name == "__init__.py" and node.level):
                imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line, bound) for line, bound in imported if bound not in used]


def test_every_imported_name_is_used_by_its_module():
    found = [
        f"{file}:{line} {bound}"
        for name, tree in _library_trees().items()
        for file, line, bound in _unused_imports(name, tree)
    ]
    assert not found, f"imported names that their module never uses: {found}"


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import io\n"
        "import os.path\n"
        "from itertools import chain, takewhile\n"
        "os.sep, chain\n"
    )
    found = _unused_imports("corpus.py", ast.parse(source))
    assert found == [("corpus.py", 2, "io"), ("corpus.py", 4, "takewhile")]
    assert _unused_imports("__init__.py", ast.parse("from .corpus import Corpus\n")) == []

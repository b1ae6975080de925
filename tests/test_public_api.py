"""Every public top-level function and class of the library is either exported
from ``gdmtopics/__init__.py`` or used by the library itself: a public name
that only tests reach is API kept alive for the tests alone."""

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


def test_every_public_name_is_exported_or_used_by_the_library():
    src = pathlib.Path(gdmtopics.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(src.glob("*.py"))
    }
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public, used = [], set()
    for name, tree in trees.items():
        for owner, node in _top_level_owner(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == owner:
                if not owner.startswith("_"):
                    public.append((name, node.lineno, owner))
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                used.update((alias.name, None) for alias in node.names)
            elif _referenced_name(node) is not None:
                used.add((_referenced_name(node), owner))
    # a definition's references to itself do not count
    referenced = {name for name, owner in used if owner != name}
    found = [f"{file}:{line} {name}" for file, line, name in public if name not in exported | referenced]
    assert not found, f"public names that neither __init__ exports nor the library uses: {found}"

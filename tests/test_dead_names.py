"""Every top-level name the package defines is used somewhere in it."""

import ast
from pathlib import Path

import laceground

PACKAGE = Path(laceground.__file__).parent


def _defined(tree: ast.Module):
    """The top-level functions, classes and single-name assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _used(tree: ast.Module):
    """The names loaded, read as attributes or imported anywhere in a module;
    the names ``__init__`` imports are the package's exports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_top_level_name_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _used(tree)}
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _defined(tree)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, f"defined but never used: {dead}"

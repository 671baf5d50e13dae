"""Every top-level name the package defines is used somewhere in it, and
every name a module imports is used in that module."""

import ast
from pathlib import Path

import laceground

PACKAGE = Path(laceground.__file__).parent


def _defined(tree: ast.Module):
    """The top-level functions, classes and names bound by assignments,
    single names and the names of tuple targets alike."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                yield target.id
            elif isinstance(target, ast.Tuple):
                yield from (elt.id for elt in target.elts if isinstance(elt, ast.Name))
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


# names a module imports only for others to import from it: the package's
# exports in ``__init__``, and the transform names tests take from canonical
REEXPORTED = {("canonical", "TRANSFORMS")}


def _imported(tree: ast.Module):
    """The names a module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{name}" for name in _imported(tree)
                   if name not in loaded and (path.stem, name) not in REEXPORTED]
    assert not unused, f"imported but never used: {unused}"

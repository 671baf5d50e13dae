"""The grid's arc ids are looked up from arcs in one place: a ground's slot
table reads its arcs' ids once for every check, canonical form and drawing,
and ``add_path`` reads those of the arcs it would add."""

import ast
from pathlib import Path

import laceground

PACKAGE = Path(laceground.__file__).parent


class _ArcIdReads(ast.NodeVisitor):
    """The innermost function round each read of an ``arc_id`` attribute."""

    def __init__(self):
        self.functions = ["<module>"]
        self.reads = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "arc_id" and isinstance(node.ctx, ast.Load):
            self.reads.append(self.functions[-1])
        self.generic_visit(node)


def test_arc_ids_are_read_only_by_the_slot_table_and_add_path():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _ArcIdReads()
        visitor.visit(ast.parse(path.read_text()))
        reads += [f"{path.stem}:{name}" for name in visitor.reads]
    assert reads == ["embedding:slot_table", "embedding:add_path"]

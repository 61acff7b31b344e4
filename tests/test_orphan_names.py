"""Every module-level name of the package has a caller in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arcwalk"


def definitions(tree):
    """(name, node) for each module-level function, class and assigned
    name, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def references(tree):
    """(name, node) for each name read, attribute taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_module_level_name_is_referenced_outside_its_definition():
    """A name counts as used when some other part of ``src/arcwalk`` reads
    it, takes it as an attribute or imports it (a re-export in
    ``__init__`` counts); uses inside its own definition do not."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        for name, node in references(tree):
            used.setdefault(name, []).append((module, node.lineno))
    orphans = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            outside = [
                (where, line) for where, line in used.get(name, [])
                if where != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                orphans.append(f"{module}:{node.lineno} {name}")
    assert not orphans

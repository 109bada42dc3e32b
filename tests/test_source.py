"""Checks on the package source itself."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "apseq"


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """How often each name is read in node, as a name or an attribute."""
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "las.py" in trees
    refs = collections.Counter()
    for tree in trees.values():
        refs += _references(tree)
    dead = [
        f"{module}:{name}"
        for module, tree in sorted(trees.items())
        for name, node in _private_definitions(tree)
        # a reference inside the definition itself (recursion) does not count
        if refs[name] - _references(node)[name] == 0
    ]
    assert dead == []

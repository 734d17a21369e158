"""Leftovers of removals: unused imports and orphaned private helpers.

Every module of ``src/resrelax`` is read with ``ast``.  An import must
be used in the scope that makes it (the module, or the function that
imports locally), and a module-level ``_private`` function, class or
constant must be read somewhere in the package (binding it is not a
use).  A removal that leaves its import or its last helper behind fails
here.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "resrelax"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _bound_names(node):
    """(name, import node) for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((alias.asname or alias.name).split(".")[0], node)
            for alias in node.names]


def _imports_by_scope(tree):
    """(scope, name) for every import, scope being its innermost function
    or the module."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((scope, name) for name, _ in _bound_names(child))
            inner = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, inner)

    visit(tree, tree)
    return out


def _loaded_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    unused = sorted({name for scope, name in _imports_by_scope(tree)
                     if name not in _loaded_names(scope)})
    assert unused == [], "%s imports names it never uses" % module


def _defined_names(node):
    """The names a module-level statement defines: a function, a class
    or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def test_every_private_function_is_referenced():
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = sorted(
        "%s:%s" % (module, name)
        for module, tree in TREES.items() for node in tree.body
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and name not in referenced)
    assert orphans == []

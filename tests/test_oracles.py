"""The oracles must stay independent of the package they check."""

import ast
import os


def test_oracles_do_not_import_the_package():
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    offending = [name for name in imported
                 if name.split(".")[0] == "resrelax" or name.startswith(".")]
    assert not offending, offending

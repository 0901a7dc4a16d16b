"""The library imports nothing outside the standard library and itself."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "whitmod")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_is_stdlib_only():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "wmod.py" in files
    foreign = []
    for name in files:
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for module in _imported_modules(tree):
            top = module.split(".")[0]
            if top != "whitmod" and top not in sys.stdlib_module_names:
                foreign.append((name, module))
    assert not foreign


def _bound_imports(tree):
    """Names bound by the module's imports, __future__ left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
    assert "cli.py" in files
    unused = []
    for name in files:
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, bound) for bound in _bound_imports(tree) if bound not in used]
    assert not unused

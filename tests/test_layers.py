"""Module layering: which modules a package module may import."""

import ast
from pathlib import Path

import symcart

_SRC = Path(symcart.__file__).parent


def _imports(module):
    """The modules that ``module`` imports, its package's own spelled
    ``symcart.<name>``."""
    path = _SRC / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names |= ({f"symcart.{node.module}"} if node.module else
                      {f"symcart.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_geom_is_arithmetic_over_catalog_spaces():
    """geom reads no file and no homotopy table: from its package it
    imports only the catalog and the value classes, and it has no ``os``."""
    names = _imports("geom")
    assert {n for n in names if n.partition(".")[0] == "symcart"} <= \
        {"symcart.catalog", "symcart.values"}, names
    assert "os" not in {n.partition(".")[0] for n in names}, names

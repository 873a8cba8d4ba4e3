"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import symcart

_SRC = Path(symcart.__file__).parent


def test_runtime_imports_only_the_standard_library():
    sources = sorted(_SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "symcart" or top in sys.stdlib_module_names, \
                    (path.name, node.lineno, name)

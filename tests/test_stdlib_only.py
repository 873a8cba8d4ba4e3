"""The runtime package imports nothing outside the standard library,
and its cold start leaves out the costly parts of it."""

import ast
import json
import os
import subprocess
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


_COLD_START = """
import json, sys
import symcart.cli, symcart.regions
from symcart import homotopy
homotopy.load_records()
print(json.dumps([m for m in ("dataclasses", "inspect") if m in sys.modules]))
"""


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    """Every CLI call pays for its imports: ``dataclasses`` alone pulls in
    ``inspect``, ``dis`` and ``tokenize``, and each decorated class
    compiles its methods, so the value classes are tuple classes."""
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    out = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []

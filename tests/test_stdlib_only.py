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


_WELL_FORMED_CALLS = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from symcart.cli import COMMANDS, main
calls = [["table", "exceptional"], ["kp", "SU(151)"],
         ["homotopy", "S(7)", "--max-degree", "3"],
         ["distinguish", "S(7)", "S(8)"],
         ["corollary1-check", "--max-dim", "20"], ["decompose", "S(12)"],
         ["gate", "S(12)", "--codim", "1"],
         ["tgeo", "C", "3", "23", "--codim", "7"],
         ["dump-roots", "G2", "--format", "json"]]
assert sorted(argv[0] for argv in calls) == sorted(COMMANDS)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(json.dumps({"codes": codes, "parsers": len(built),
                  "locale": "locale" in sys.modules}))
"""


def test_a_well_formed_call_neither_builds_a_parser_nor_imports_locale():
    """A well-formed call of each command is read from ``COMMANDS``:
    building an ``ArgumentParser`` costs a cold call about 0.6 ms, and
    argparse's first message lookup imports ``locale`` (``gettext.find``),
    about 1.7 ms more."""
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    out = subprocess.run([sys.executable, "-c", _WELL_FORMED_CALLS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"codes": [0] * 9, "parsers": 0,
                               "locale": False}

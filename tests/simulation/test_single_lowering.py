"""Production code evaluates netlists through the compiled program only.

``LogicSimulator`` is the reference oracle the tests compare the
kernel against; no module under ``src/repro`` other than its own and
the package re-exports may import it.
"""

import ast
from pathlib import Path

import repro

_PKG = Path(repro.__file__).resolve().parent
_ALLOWED = {"simulation/logicsim.py", "simulation/__init__.py", "__init__.py"}


def _imports_logic_simulator(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == "LogicSimulator" for a in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "LogicSimulator":
            return True
    return False


def test_only_the_oracle_modules_import_logic_simulator():
    offenders = []
    for path in sorted(_PKG.rglob("*.py")):
        rel = path.relative_to(_PKG).as_posix()
        if rel in _ALLOWED:
            continue
        if _imports_logic_simulator(ast.parse(path.read_text(), filename=str(path))):
            offenders.append(rel)
    assert offenders == []

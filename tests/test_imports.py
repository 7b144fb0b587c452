"""Every imported name, and every private library helper, is read somewhere.

An AST scan of the library modules (except `__init__.py`, whose imports
are the package's re-exports) and of the test modules.  A name counts as
read when it is loaded anywhere, including as the base of an attribute
access, or named inside a quoted annotation.  A second scan asks that
every module-level private function of the library is read by library
code outside its own definition, so no helper outlives its callers.
A third check runs a fresh interpreter: importing the CLI must load none
of the introspection modules that `dataclasses` pulls in, since every
command starts a new process and pays for each import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "rrcalc").glob("*.py"))
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "rrcalc").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:  # names quoted in annotations, e.g. "RingElement"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nfrom typing import Mapping\n"
    source += "def f(x: 'Mapping') -> int:\n    return gcd(x, 2)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: lcm"]


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions that no module reads outside their own body."""
    defined, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            owner = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = statement.name
                if owner.startswith("_"):
                    defined.append((module, owner))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_every_private_function_has_a_library_reader():
    sources = {path.name: path.read_text() for path in LIBRARY}
    assert unread_private_functions(sources) == []


def test_the_scan_finds_an_unread_private_function():
    sources = {
        "a.py": "def _used():\n    return 1\ndef _self_only(n):\n    return _self_only(n - 1)\n",
        "b.py": "from a import _used\ndef _orphan():\n    pass\nvalue = _used()\n",
    }
    assert unread_private_functions(sources) == ["a.py: _self_only", "b.py: _orphan"]


INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def introspection_loaded(code: str) -> list[str]:
    """The INTROSPECTION modules a fresh interpreter has loaded after `code`."""
    probe = f"{code}\nimport sys\nprint(*(m for m in {INTROSPECTION!r} if m in sys.modules))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout.split()


def test_importing_the_cli_loads_no_introspection_module():
    assert introspection_loaded("import rrcalc.cli") == []


def test_the_import_guard_reports_dataclasses():
    assert "dataclasses" in introspection_loaded("import rrcalc.cli\nimport dataclasses")

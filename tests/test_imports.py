"""No unused import in the package, and no heavy one.

Every name a module of src/cxlsim imports at module level must be used
in that module, as a bare name or the root of an attribute.  The package
__init__ re-exports its imports and is left out, as is __future__.
No linter runs with the tests, so this check stands in for one.

Importing the package loads no stdlib module it does not run: every
record is a plain class, not a dataclass (whose import pulls in inspect,
ast, dis and tokenize), and only a sweep with more than one worker
imports multiprocessing (socket, pickle, selectors).  Each costs about
1 MiB of every process's peak RSS.
"""

import ast
import subprocess
import sys
from pathlib import Path

import cxlsim

SRC = Path(cxlsim.__file__).parent


def _imported(tree: ast.Module):
    """(bound name, line) of each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(src: Path = SRC):
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in _imported(tree) if name not in used]
    return found


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from typing import List, Optional\n"
        "def f(x: List) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(tmp_path) == ["mod.py:3 system",
                                        "mod.py:4 Optional"]


# Stdlib modules that importing every cxlsim module must not load.
HEAVY = ("dataclasses", "inspect", "multiprocessing", "pickle", "socket")

_LOAD_ALL = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    __import__("cxlsim." + name)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_heavy_module():
    # A fresh interpreter without site-packages, so only the package's
    # own imports can add a module.
    names = sorted(path.stem for path in SRC.glob("*.py")
                   if path.stem != "__init__")
    added = subprocess.run(
        [sys.executable, "-S", "-c", _LOAD_ALL, str(SRC.parent), *names],
        capture_output=True, text=True, check=True, timeout=60).stdout.split()
    assert "cxlsim.cli" in added
    assert sorted(set(HEAVY) & set(added)) == []

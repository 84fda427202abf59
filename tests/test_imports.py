"""Every name a lie2 module imports is used in that module.

``__init__`` is left out: it imports names to re-export them.  A name counts
as used when it appears as an identifier anywhere in the module, attribute
bases (``os`` in ``os.path``) and annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "lie2"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names ``source`` imports and never uses, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_a_leftover_import():
    source = "from .linalg import solve, vget\nimport os.path\n\nvget(None, 1, 0)\n"
    assert unused_imports(source) == ["solve", "os"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


def test_modules_are_found():
    assert {"cli.py", "roots.py", "screening.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []

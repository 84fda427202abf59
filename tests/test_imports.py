"""Every name a lie2 module imports is used in that module, and every
module-level name a lie2 module defines is referenced somewhere in lie2.

``__init__`` is left out of the first rule: it imports names to re-export
them.  A name counts as used when it appears as an identifier anywhere in
the module, attribute bases (``os`` in ``os.path``) and annotations
included.  For the second rule, a definition (a top-level ``def``,
``class`` or assignment) counts as referenced when any lie2 module, itself
included, loads the name, reads it as an attribute (``fixtures.f7``) or
imports it; ``__init__``'s re-exports therefore keep the public API.
Dunder names are exempt.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "lie2"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def unreferenced_definitions(sources):
    """(module, name) for each module-level name defined in ``sources`` (a
    dict from module name to source) and referenced in none of them."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    return [(module, name) for module, name in defined
            if name not in referenced and not (name.startswith("__") and name.endswith("__"))]


def test_checker_finds_a_leftover_definition():
    sources = {
        "roots": "LIMIT = 3\n__version__ = '1'\n\ndef vanishing_slice():\n    return LIMIT\n",
        "screening": "from .roots import vanishing_slice\n\n"
                     "def _torus_slice(g):\n    return g\n\n"
                     "class Report:\n    pass\n\n"
                     "def screen(m):\n    return m.Report\n",
    }
    assert unreferenced_definitions(sources) == [("screening", "_torus_slice"),
                                                 ("screening", "screen")]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(sources) == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # together they cost a fresh lie2 process several milliseconds; -I keeps
    # the environment (PYTHONPATH, user site) out of the child
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lie2.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

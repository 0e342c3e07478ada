"""The package depends on nothing at run time beyond the standard library
and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lamsym").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def _foreign_imports(path: Path) -> set:
    """Top-level names of the absolute imports in path that are neither
    standard library nor numpy."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name for name in names if name.split(".")[0] not in ALLOWED}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert not _foreign_imports(path)


def test_the_guard_flags_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json, numpy.linalg\nfrom . import expr\n"
                      "def f():\n    from hypothesis import given\n", encoding="utf-8")
    assert _foreign_imports(module) == {"hypothesis"}


def _unused_imports(path: Path) -> set:
    """Names that the imports in path bind and that its code never reads;
    `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export
    assert not _unused_imports(path)


def test_the_guard_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path, json as j\n"
                      "from typing import Optional, Sequence\n"
                      "def f(x: Optional[int]):\n    return os.sep\n", encoding="utf-8")
    assert _unused_imports(module) == {"j", "Sequence"}

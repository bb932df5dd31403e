"""Every module of the runtime references each name it imports."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hbarena").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never references; ``from __future__``
    imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_references_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_names_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as j\n"
        "from .scenario import ScenarioFile, expand_sites\n"
        "def f(x: j.JSONDecoder): return expand_sites(x)\n"
    )
    assert unused_imports(source) == ["ScenarioFile", "os"]

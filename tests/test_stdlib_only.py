"""The runtime imports nothing outside the standard library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hbarena").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = sorted({name.partition(".")[0] for name in imported} - sys.stdlib_module_names)
    assert outside == []


def test_json_is_written_through_the_public_api():
    """Nothing is taken from json.encoder but the string escaper that tracegen's event writer is built on."""
    taken = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json.encoder":
                taken += [(path.name, node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                taken += [(path.name, node.lineno, alias.name) for alias in node.names if alias.name == "json.encoder"]
            elif isinstance(node, ast.Attribute) and node.attr == "encoder" and getattr(node.value, "id", None) == "json":
                taken.append((path.name, node.lineno, "json.encoder"))
    assert [(name, what) for name, _, what in taken] == [("tracegen.py", "encode_basestring_ascii")], taken


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


@pytest.mark.parametrize("module", ["hbarena.cli", "hbarena.scenario"])
def test_import_leaves_out_dataclasses(module):
    """Records are NamedTuples: no command pays for dataclasses and the inspect it imports.
    The benchmark's set-up child imports only hbarena.scenario."""
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"

"""Only ``domain`` decodes JSON: every other module of the runtime reads its
inputs through ``domain.read_json_file``, ``domain.json_lines`` or
``domain.read_json_lines``, so that each input gets the same checks."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hbarena").glob("*.py"))
_DECODERS = {"load", "loads"}


def json_decoder_calls(source: str) -> list[int]:
    """The line of each call of ``json.load`` or ``json.loads`` in a module,
    under whatever name it imported them by."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(alias.asname or alias.name for alias in node.names if alias.name in _DECODERS)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr in _DECODERS
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
            or isinstance(node.func, ast.Name) and node.func.id in functions
        )
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "domain.py"], ids=lambda p: p.name)
def test_only_domain_decodes_json(path):
    assert json_decoder_calls(path.read_text(encoding="utf-8")) == []


def test_json_decoder_calls_are_found():
    source = (
        "import json, json as j\n"
        "from json import loads as parse, dumps\n"
        "a = json.loads('1')\n"
        "b = j.load(open('f'))\n"
        "c = parse('2')\n"
        "d = dumps(1) + json.dumps(2)\n"
        "e = other.loads('3')\n"
    )
    assert json_decoder_calls(source) == [3, 4, 5]

"""Only ``cli._Helper`` makes child processes by hand: nothing else in the
runtime calls ``os.fork``, ``os.waitpid`` or ``os._exit`` or uses
``marshal``, so that every forked helper shares one protocol and one way of
relaying its errors.  Pool workers are ``concurrent.futures``'s own."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hbarena").glob("*.py"))
HELPER = ("cli.py", "_Helper")
_OS_NAMES = {"fork", "waitpid", "_exit"}


def _outside(node: ast.AST, skipped_class: str | None):
    """Every node under ``node`` but those of the class named ``skipped_class``."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.ClassDef) and child.name == skipped_class):
            yield child
            yield from _outside(child, skipped_class)


def process_uses(source: str, skipped_class: str | None = None) -> list[int]:
    """The line of each use of ``os.fork``, ``os.waitpid``, ``os._exit`` or
    of anything of ``marshal`` in a module, outside the class named
    ``skipped_class``, under whatever name it imported them by."""
    tree = ast.parse(source)
    os_modules, marshal_modules, functions = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_modules.update(alias.asname or alias.name for alias in node.names if alias.name == "os")
            marshal_modules.update(alias.asname or alias.name for alias in node.names if alias.name == "marshal")
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "marshal"):
            functions.update(alias.asname or alias.name for alias in node.names
                             if node.module == "marshal" or alias.name in _OS_NAMES)
    return sorted(
        node.lineno
        for node in _outside(tree, skipped_class)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
            node.value.id in os_modules and node.attr in _OS_NAMES or node.value.id in marshal_modules)
        or isinstance(node, ast.Name) and node.id in functions
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_helper_forks(path):
    skipped = HELPER[1] if path.name == HELPER[0] else None
    assert process_uses(path.read_text(encoding="utf-8"), skipped) == []


def test_the_helper_is_where_the_forks_are():
    source = (SOURCES[0].parent / HELPER[0]).read_text(encoding="utf-8")
    assert process_uses(source) != []


def test_process_uses_are_found():
    source = (
        "import os, os as o, marshal as m\n"
        "from os import fork as f, getpid\n"
        "a = os.fork()\n"
        "class _Helper:\n"
        "    b = os.waitpid(1, 0)\n"
        "c = o._exit\n"
        "d = f() + getpid() + os.getpid()\n"
        "e = m.loads(b'')\n"
        "g = other.fork()\n"
    )
    assert process_uses(source, "_Helper") == [3, 6, 7, 8]
    assert process_uses(source) == [3, 5, 6, 7, 8]

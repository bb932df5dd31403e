"""Only ``cli._FileWriter`` makes a child process by hand: nothing else in
the runtime calls ``os.fork``, ``os.waitpid`` or ``os._exit``, and no
module uses ``marshal``.  Pool workers are ``concurrent.futures``'s own."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hbarena").glob("*.py"))
HELPER = ("cli.py", "_FileWriter")
_OS_NAMES = {"fork", "waitpid", "_exit"}


def _outside(node: ast.AST, skipped_class: str | None):
    """Every node under ``node`` but those of the class named ``skipped_class``."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.ClassDef) and child.name == skipped_class):
            yield child
            yield from _outside(child, skipped_class)


def process_uses(source: str, skipped_class: str | None = None) -> list[int]:
    """The line of each use of ``os.fork``, ``os.waitpid`` or ``os._exit``
    outside the class named ``skipped_class``, and of each use of anything
    of ``marshal`` anywhere in a module, under whatever name it imported
    them by."""
    tree = ast.parse(source)
    os_modules, marshal_modules, os_functions, marshal_functions = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_modules.update(alias.asname or alias.name for alias in node.names if alias.name == "os")
            marshal_modules.update(alias.asname or alias.name for alias in node.names if alias.name == "marshal")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            os_functions.update(alias.asname or alias.name for alias in node.names if alias.name in _OS_NAMES)
        elif isinstance(node, ast.ImportFrom) and node.module == "marshal":
            marshal_functions.update(alias.asname or alias.name for alias in node.names)

    def used(nodes, modules, attributes, functions):
        return {
            node.lineno
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and (attributes is None or node.attr in attributes)
            or isinstance(node, ast.Name) and node.id in functions
        }

    return sorted(used(_outside(tree, skipped_class), os_modules, _OS_NAMES, os_functions)
                  | used(ast.walk(tree), marshal_modules, None, marshal_functions))


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
        "from marshal import dumps as dm\n"
        "a = os.fork()\n"
        "class _FileWriter:\n"
        "    b = os.waitpid(1, 0)\n"
        "    h = m.loads(b'') + dm(0)\n"
        "c = o._exit\n"
        "d = f() + getpid() + os.getpid()\n"
        "e = m.loads(b'')\n"
        "g = other.fork()\n"
    )
    assert process_uses(source, "_FileWriter") == [4, 7, 8, 9, 10]
    assert process_uses(source) == [4, 6, 7, 8, 9, 10]

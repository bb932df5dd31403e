"""The detector side, ``tracegen`` and ``detector``, imports nothing of the
simulator, ``auction`` or ``netsim``, at run time: only under
``typing.TYPE_CHECKING``, for annotations."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hbarena"
SIMULATOR = {"auction", "netsim"}


def _type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _run_time_nodes(node: ast.AST):
    """Every node under ``node`` but the bodies of ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _type_checking(child.test):
            for orelse in child.orelse:
                yield orelse
                yield from _run_time_nodes(orelse)
            continue
        yield child
        yield from _run_time_nodes(child)


def simulator_imports(source: str) -> list[int]:
    """The line of each run-time import of ``auction`` or ``netsim`` in a
    module of the package, relative or as ``hbarena.<name>``."""
    lines = []
    for node in _run_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("hbarena"):
                continue
            base = module.removeprefix("hbarena").lstrip(".")
            names = [base] if base else [alias.name for alias in node.names]
        else:
            continue
        if any(name.removeprefix("hbarena.").split(".")[0] in SIMULATOR for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["tracegen", "detector"])
def test_detector_side_does_not_import_the_simulator(module):
    assert simulator_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_simulator_imports_are_found():
    source = (
        "import typing\n"
        "from typing import TYPE_CHECKING\n"
        "from .auction import AuctionOutcome\n"
        "from . import netsim\n"
        "import hbarena.auction\n"
        "from hbarena.netsim import RngStream\n"
        "from .domain import Facet\n"
        "import auctions\n"
        "if TYPE_CHECKING:\n"
        "    from .auction import WaterfallOutcome\n"
        "else:\n"
        "    from .netsim import RngStream\n"
        "if typing.TYPE_CHECKING:\n"
        "    import hbarena.netsim\n"
        "def f():\n"
        "    from .auction import run_scenario\n"
    )
    assert simulator_imports(source) == [3, 4, 5, 6, 12, 16]

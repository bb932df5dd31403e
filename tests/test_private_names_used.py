"""Every private module-level name of the runtime is referenced somewhere in it."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hbarena").glob("*.py"))


def private_definitions(statement: ast.stmt) -> set[str]:
    """The private names a top-level statement defines: a function, a class
    or assigned names, each starting with one underscore."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def references(statement: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name that no top-level
    statement of ``sources`` (module name -> source text) references, apart
    from the statements that define it."""
    statements = [(module, statement) for module, text in sources.items() for statement in ast.parse(text).body]
    used = set().union(*(references(statement) - private_definitions(statement) for _, statement in statements))
    return sorted({f"{module}:{name}" for module, statement in statements
                   for name in private_definitions(statement) - used})


def test_every_private_name_is_referenced():
    assert unreferenced_private_names({path.stem: path.read_text(encoding="utf-8") for path in SOURCES}) == []


def test_leftover_private_names_are_found():
    sources = {
        "a": "_COUNTER = 0\n_USED, _LEFT = 1, 2\n"
             "def _helper(x): return x\n"
             "class _Kept: pass\n"
             "def public(): return _Kept(), _USED, __name__\n"
             "def __getattr__(name): raise AttributeError(name)\n",
        "b": "from .a import _COUNTER\n"
             "def _entry(v): _entry.calls = v\n"
             "def g(m): return m._helper2\n",
        "c": "def _helper2(): pass\n_ARRIVALS = 0\n_ARRIVALS = 1\n",
    }
    assert unreferenced_private_names(sources) == ["a:_LEFT", "a:_helper", "b:_entry", "c:_ARRIVALS"]

"""Repository rules that a reading of the source can check."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = sorted((ROOT / "src" / "dburnside").glob("*.py"))
SCANNED = ENGINE + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, DEFINITION[:2]))


def _uses(node):
    """Every name a subtree refers to: variables, attributes, imported names,
    and strings that are identifiers (the bench tracer hooks by name)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and n.value.isidentifier()):
            yield n.value


def test_every_engine_definition_is_referenced():
    """No dead public functions: each top-level function, class and method
    of the engine is named somewhere in src/, tests/ or perfbench/ outside
    its own body.  Names are matched without scopes, so a name used
    anywhere keeps every definition of that name."""
    uses, own, defined = Counter(), Counter(), []
    for path in SCANNED:
        tree = ast.parse(path.read_text(), str(path))
        uses.update(_uses(tree))
        if path in ENGINE:
            for node in _definitions(tree):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
                own.update(u for u in _uses(node) if u == node.name)
    dead = [f"{where} {name}" for name, where in defined
            if not name.startswith("__") and uses[name] <= own[name]]
    assert dead == []

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


def _unnamed(paths):
    """(name, where) of each engine definition that no file of ``paths``
    names outside its own body.  Names are matched without scopes, so a
    name used anywhere keeps every definition of that name."""
    uses, own, defined = Counter(), Counter(), []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        uses.update(_uses(tree))
        if path in ENGINE:
            for node in _definitions(tree):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
                own.update(u for u in _uses(node) if u == node.name)
    return [(name, where) for name, where in defined
            if not name.startswith("__") and uses[name] <= own[name]]


def test_every_engine_definition_is_referenced():
    """No dead public functions: each top-level function, class and method
    of the engine is named somewhere in src/, tests/ or perfbench/ outside
    its own body."""
    assert [f"{where} {name}" for name, where in _unnamed(SCANNED)] == []


# engine definitions that only tests name, each with why it stays
TEST_ONLY = {
    "elementary_ind": "reference oracle: Ind by definition, for the butterfly",
    "elementary_res": "reference oracle: Res by definition, for the butterfly",
    "elementary_inf": "reference oracle: Inf by definition, for the butterfly",
    "elementary_def": "reference oracle: Def by definition, for the butterfly",
    "realize_and_compose_oracle":
        "reference oracle: composition counted on explicit coset sets",
    "trace_of_label":
        "reference oracle: the trace as a double coset count",
    "clear_memory_caches": "library entry: a fresh process's memo state",
    "radical_dim_char0": "paper criterion: semisimplicity in characteristic 0",
    "check_submodules":
        "paper criterion: the two submodules of kB(G) for a cyclic p-group",
}


def test_test_only_engine_definitions_are_listed():
    """An engine definition that no engine module other than the package
    ``__init__`` names outside its own body is in ``TEST_ONLY``, with its
    reason, and every entry there is such a definition: a helper cannot
    live on through its own test alone."""
    test_only = dict(_unnamed([p for p in ENGINE if p.name != "__init__.py"]))
    assert [f"{where} {name}" for name, where in test_only.items()
            if name not in TEST_ONLY] == []
    assert [name for name in TEST_ONLY if name not in test_only] == []


def _module_imports(tree):
    """(bound name, line) of each import outside every function and class;
    ``from __future__`` imports bind nothing the code names."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0], node.lineno
        elif not isinstance(node, DEFINITION):
            stack.extend(ast.iter_child_nodes(node))


def test_every_engine_import_is_used():
    """Each module-level import of an engine module other than the package
    ``__init__`` is named in that module's code, so a deletion cannot leave
    a dead import behind."""
    unused = []
    for path in ENGINE:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _module_imports(tree) if name not in named]
    assert unused == []


def test_no_engine_function_takes_a_budget():
    """The run's deadline is ``errors.budget``, read where it is checked, so
    no engine function or method takes a ``budget`` parameter and no search
    can be started with a deadline of its own."""
    found = []
    for path in ENGINE:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITION[:2]):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            found += [f"{path.name}:{node.lineno} {node.name}"
                      for p in params if p.arg == "budget"]
    assert found == []


def test_only_groups_makes_group_tables():
    """Every table becomes a group in ``groups.py``: no other engine module
    calls ``FiniteGroup(...)``, so the table format and its checks live in
    one module."""
    found = []
    for path in ENGINE:
        if path.name == "groups.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "FiniteGroup" in _uses(node.func)]
    assert found == []


def test_only_linalg_knows_the_field():
    """Scalars are ints and Fractions over Q and residues over F_p, and
    ``FieldSpec.reduce`` is the one step that tells them apart: no engine
    module but ``linalg.py`` imports ``fractions`` or takes a remainder
    (``%`` or ``%=``) by an expression that names ``characteristic``."""
    found = []
    for path in ENGINE:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                imported = []
            if "fractions" in imported:
                found.append(f"{path.name}:{node.lineno} import fractions")
            divisor = (node.right if isinstance(node, ast.BinOp) else
                       node.value if isinstance(node, ast.AugAssign) else None)
            if (divisor is not None and isinstance(node.op, ast.Mod)
                    and "characteristic" in _uses(divisor)):
                found.append(f"{path.name}:{node.lineno} % characteristic")
    assert found == []


def test_only_lattice_reads_the_lattice_memo():
    """No engine module but ``lattice.py`` names ``_LATTICE_MEMO``, so no
    layer chooses an algorithm by peeking into another module's memo;
    ``lattice.canonical`` is the one place that asks whether a lattice is
    held."""
    found = [path.name for path in ENGINE if path.name != "lattice.py"
             and "_LATTICE_MEMO" in _uses(ast.parse(path.read_text()))]
    assert found == []


def test_linalg_uses_no_floating_point():
    """README says there is no floating point anywhere, and every rank rests
    on exact residues: ``linalg.py`` writes no float literal, names no float
    type or dtype (``float``, ``np.float64``, ``np.double``, a dtype given as
    text such as ``"f8"``), divides with ``/`` nowhere and takes no
    ``sqrt``, so neither ``n ** 0.5`` nor a float64 product can slip in."""
    path = ROOT / "src" / "dburnside" / "linalg.py"
    floats = {"double", "half", "single", "longdouble", "floating", "inexact",
              "sqrt"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else "")
        if ("float" in name or "complex" in name or name in floats
                or isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))
                or isinstance(node, ast.keyword) and node.arg == "dtype"
                and isinstance(node.value, ast.Constant)
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append(f"linalg.py:{getattr(node, 'lineno', '?')} "
                         f"{ast.unparse(node)}")
    assert found == []

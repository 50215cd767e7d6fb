"""``import ratejump`` loads neither scipy nor a process pool.

scipy is needed only by the Dijkstra search in ``ratejump.si`` (graphs that
are not trees, and trees too deep to fold), which imports it on first use,
so a cascade on a tree loads it neither.  Only a multi-worker heatmap starts
a process pool.  The check runs in a fresh interpreter, since this test
session has long since imported both.

The layering of the value rules is read from the source, with no import:
``ratejump.process`` holds every rule and imports no other ``ratejump``
module, and the simulators and the CLI take their rules from it, not from
the estimator, ``ratejump.derivative``.  The one whole-number rule is the
only integer type test, ``_parse_number`` the only reading of a number
from text, and ``_first_repeat`` the only search for a repeated key.  Every
file is opened there too.
No module keeps an import it does not use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratejump"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

CHILD = """
import json, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.startswith("scipy") or m.split(".")[:2] == ["concurrent", "futures"])

import ratejump
after_package = heavy()
import ratejump.cli
after_cli = heavy()
from ratejump.si import Graph, build_tree_with_hub, simulate_si
trace = simulate_si(build_tree_with_hub(3, 2), 0, 7)
after_tree = heavy()
triangle = simulate_si(Graph(3, [0, 0, 1], [1, 2, 2]), 0, 7)
print(json.dumps({"package": after_package, "cli": after_cli, "tree": after_tree,
                  "vertices": [trace.n, triangle.n],
                  "scipy_after_dijkstra": "scipy.sparse.csgraph" in sys.modules}))
"""


def test_import_leaves_scipy_and_process_pools_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["package"] == [], "import ratejump loaded these"
    assert seen["cli"] == [], "import ratejump.cli loaded these"
    assert seen["tree"] == [], "a cascade on a tree loaded these"
    # the Dijkstra search still finds scipy when a cascade needs it
    assert seen["vertices"] == [17, 3]
    assert seen["scipy_after_dijkstra"]


def test_import_loads_numpy_random_only_if_numpy_does():
    # numpy 2 loads numpy.random on first attribute access, which added about
    # 6 MB to the resident set of `import ratejump`: the package reaches it only
    # inside calls that draw
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
             "import ratejump, ratejump.cli; print(eager or 'numpy.random' not in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module):
    """(the ratejump module imported from, the names imported) for each import
    of the package anywhere in ``module``: ``from .x import a`` and ``from
    ratejump.x import a`` give ("x", {"a"}); ``from . import x`` gives ("", {"x"})."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ratejump"):
            source = (node.module or "") if node.level else node.module.partition(".")[2]
            yield source, {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ratejump":
                    yield alias.name.partition(".")[2], set()


def _is_rule(name):
    return name.startswith("_check_") or name == "_real"


def test_the_rules_module_imports_no_other_ratejump_module():
    assert list(_package_imports("process")) == []


@pytest.mark.parametrize("module", ["poisson", "si", "seeding", "process"])
def test_the_simulation_layer_does_not_import_the_estimator(module):
    for source, names in _package_imports(module):
        assert source != "derivative" and not (source == "" and "derivative" in names), (
            f"{module} imports the derivative module")


def test_every_rule_is_defined_in_the_rules_module():
    defined = [(module, node.name) for module in MODULES for node in ast.walk(_tree(module))
               if isinstance(node, ast.FunctionDef) and _is_rule(node.name)]
    assert {name for _, name in defined} >= {"_real", "_check_integer", "_check_delta",
                                            "_check_finite"}
    assert [(module, name) for module, name in defined if module != "process"] == []


def _integer_tests(module):
    """(module, function) of each ``isinstance`` test in ``module`` for
    ``int``, ``np.integer`` or ``numbers.Integral``; None for module level."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", getattr(kind, "attr", None)) in {"int", "integer", "Integral"}
                   for kind in kinds):
                yield module, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(_tree(module), None))


def test_the_whole_number_rule_is_written_once():
    # every whole number is read through process._check_integer: no other
    # function tests for an integer type, and no CLI flag is parsed by int or float
    assert [hit for module in MODULES for hit in _integer_tests(module)] == [
        ("process", "_check_integer")]
    plain = [node.lineno for node in ast.walk(_tree("cli"))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
             for keyword in node.keywords
             if keyword.arg == "type" and getattr(keyword.value, "id", None) in ("int", "float")]
    assert plain == [], "cli lines that parse a flag with argparse's int or float"


def _catches_value_error(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(kind is None or getattr(kind, "id", None) in ("ValueError", "Exception")
               for kind in kinds)


def _number_parses(module):
    """(module, function) of each ``try`` in ``module`` whose body calls
    ``int`` or ``float`` and that catches a ValueError (by name, in a tuple,
    as ``Exception`` or bare); None for module level."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Try) and any(map(_catches_value_error, node.handlers)) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("int", "float")
                for statement in node.body for call in ast.walk(statement)):
            yield module, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(_tree(module), None))


def test_text_becomes_a_number_in_the_rules_module_only():
    # a file's field and a CLI flag are read by process._parse_number and then
    # checked by a rule under their own name: no other module tries int or
    # float on text, and no other module defines the parser
    parses = [hit for module in MODULES for hit in _number_parses(module)]
    assert ("process", "_parse_number") in parses
    assert [(module, where) for module, where in parses if module != "process"] == []
    defined = [module for module in MODULES for node in ast.walk(_tree(module))
               if isinstance(node, ast.FunctionDef) and node.name == "_parse_number"]
    assert defined == ["process"]


@pytest.mark.parametrize("module", MODULES)
def test_every_rule_is_imported_from_the_rules_module(module):
    # the package re-exports the public MAX_ORDER through derivative; the CLI
    # reads it, as it reads every rule, from process
    for source, names in _package_imports(module):
        rules = {name for name in names
                 if _is_rule(name) or (module, name) == ("cli", "MAX_ORDER")}
        assert not rules or source == "process", f"{module} imports {sorted(rules)} from .{source}"


def test_every_file_is_opened_in_the_rules_module():
    # every loader reads, and every saver writes, through the one reader and
    # the two writers of process
    opens = [(module, node.lineno) for module in MODULES for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert [(module, line) for module, line in opens if module != "process"] == []
    assert opens, "process opens no file"


def _slice_ends(node):
    """``(lower, upper)`` of a subscript ``x[lower:upper]`` with constant or
    absent ends, else None."""
    def end(value):
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
            return -getattr(value.operand, "value", 0)
        return getattr(value, "value", value)

    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        return end(node.slice.lower), end(node.slice.upper)
    return None


def test_one_function_searches_for_a_repeat():
    # an edge listed twice, a repeated trace vertex and a repeated date are all
    # found by process._first_repeat: it alone compares sorted keys with their
    # neighbours, x[1:] == x[:-1]
    def visit(module, node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
                and {_slice_ends(node.left), _slice_ends(node.comparators[0])}
                == {(1, None), (None, -1)}):
            yield module, where
        for child in ast.iter_child_nodes(node):
            yield from visit(module, child, where)

    searches = [hit for module in MODULES for hit in visit(module, _tree(module), None)]
    assert set(searches) == {("process", "_first_repeat")}


# (module, name) imported at module level and never read there, with the
# reason it stays
UNREAD_IMPORTS = {
    ("harness", "argmax_single"): "bench/tracing.py wraps harness.argmax_single by name",
}


def _module_level_imports(tree):
    """The name each top-level import statement binds, ``from __future__``
    aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _used_names(tree):
    """Every name the module reads, in its code or in a string annotation,
    and every name its ``__all__`` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_import_is_used():
    unread = sorted((module, name) for module in MODULES
                    for name in set(_module_level_imports(_tree(module)))
                    - _used_names(_tree(module)))
    assert [entry for entry in unread if entry not in UNREAD_IMPORTS] == []
    assert [entry for entry in UNREAD_IMPORTS if entry not in unread] == [], "stale entries"

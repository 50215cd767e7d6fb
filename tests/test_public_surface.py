"""Every public name, and every option of one, has a caller outside the tests.

Each name in ``ratejump.__all__`` or in the ``__all__`` of one of its
modules must be read somewhere in ``src/ratejump``, ``demos`` or ``bench``
other than inside its own definition, or be listed in ``ALLOWED`` with the
reason it stays public without such a caller.  A name that only the tests
use is a name to delete, not to export.  Likewise each defaulted parameter
of a public callable outside ``ALLOWED`` must be passed, by keyword or by
position, by some call there, or be listed in ``PASSED_INDIRECTLY`` with
the call site that passes it: an option that only the tests set is an
option to delete.  A preset, too, must have a runner: its params name a
heatmap scenario, which ``heatmap --preset`` runs, or the sources look it
up by its name.
"""

import ast
import importlib
import inspect
import math
import pathlib
import pkgutil

import ratejump
from ratejump.harness import HEATMAP_SCENARIOS, PRESETS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ("src/ratejump", "demos", "bench")

ALLOWED = {
    "rate_at": "test oracle: the SI infection rate, for the cut identity",
    "jump_at_infection": "test oracle: the rate jump an infection causes",
    "d_max": "the matched error of a multi-jump estimate; no runner scores multi-jump runs yet",
    "min_order_for": "tuning helper, kept for the order and delta sweep on the roadmap",
    "suggest_delta": "tuning helper, kept for the order and delta sweep on the roadmap",
    "false_alarm_study": "counts threshold-mode alarms on a rate spec with no jump; no "
                         "subcommand, demo or bench workload calls it yet",
}

# defaulted parameters passed by calls the name-keyed scan cannot attribute:
# through a class held in a variable, or by the console script's launcher
PASSED_INDIRECTLY = {
    "cli.main(argv)": "cli.entry, the console script, calls main() and argparse reads sys.argv",
    "harness.ConstNullScenario(base)": "harness.heatmap_spec_from_preset and cli._scenario: "
                                       "cls(**params)",
    "harness.ConstNullScenario(horizon)": "harness.heatmap_spec_from_preset and cli._scenario: "
                                          "cls(**params)",
    "harness.SmoothJumpScenario(horizon)": "harness.heatmap_spec_from_preset and cli._scenario: "
                                           "cls(**params)",
    "poisson.Sinusoid(phase)": "poisson's rate-spec parser: cls(*params)",
}


def _public_modules():
    """Every module of the package."""
    for info in pkgutil.iter_modules(ratejump.__path__):
        yield importlib.import_module(f"ratejump.{info.name}")


def _public_names() -> set:
    """``ratejump.__all__`` and the ``__all__`` of every module of the package."""
    names = set(ratejump.__all__)
    for module in _public_modules():
        names |= set(module.__all__)
    return names


class _Reads(ast.NodeVisitor):
    """Names loaded and attributes read, skipping those inside a def or class
    of the same name (a definition does not call itself into use)."""

    def __init__(self):
        self.names = set()
        self._inside = []

    def _scope(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def _modules():
    """The parsed source of every module in ``SOURCES``."""
    for top in SOURCES:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names_read() -> set:
    reads = _Reads()
    for module in _modules():
        reads.visit(module)
    return reads.names


def test_every_public_name_has_a_caller_or_a_reason():
    read = _names_read()
    uncalled = sorted(_public_names() - read - set(ALLOWED))
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"


def test_every_allowed_name_is_still_public_and_uncalled():
    read, public = _names_read(), _public_names()
    stale = sorted(name for name in ALLOWED if name not in public or name in read)
    stale += sorted(set(PASSED_INDIRECTLY) - set(_unpassed()))
    assert not stale, f"allowlist entries that are gone or now have a caller: {stale}"


def _func_name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _arguments_passed() -> dict:
    """Callee name -> (most positional arguments in a call, keywords passed),
    over every call in the sources; a ``*args`` reaches every position and a
    ``**kwargs`` every keyword."""
    passed = {}
    calls = (node for module in _modules() for node in ast.walk(module)
             if isinstance(node, ast.Call))
    for call in calls:
        name = _func_name(call.func)
        positions, keywords = passed.get(name, (0, set()))
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        passed[name] = (max(positions, math.inf if starred else len(call.args)),
                        keywords | {kw.arg or "**" for kw in call.keywords})
    return passed


def _unpassed() -> list:
    """``module.name(param)`` for each defaulted parameter of a public
    callable outside ``ALLOWED`` that no call in the sources passes, the
    module being the one whose ``__all__`` lists the name (else ratejump)."""
    passed = _arguments_passed()
    owner = {name: module for module in _public_modules() for name in module.__all__}
    unpassed = []
    for name in sorted(_public_names() - set(ALLOWED)):
        module = owner.get(name, ratejump)
        obj = getattr(module, name)
        if not callable(obj):
            continue
        label = f"{module.__name__.removeprefix('ratejump.')}.{name}"
        positions, keywords = passed.get(name, (0, set()))
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is param.empty or "**" in keywords:
                continue
            by_position = param.kind is not param.KEYWORD_ONLY and index < positions
            if not (by_position or param.name in keywords):
                unpassed.append(f"{label}({param.name})")
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = sorted(set(_unpassed()) - set(PASSED_INDIRECTLY))
    assert not unpassed, f"defaulted parameters no call outside the tests passes: {unpassed}"


def _presets_looked_up() -> set:
    """The names in ``get_preset("name")`` calls and ``PRESETS["name"]``
    subscripts across the sources."""
    looked_up = set()
    for node in (node for module in _modules() for node in ast.walk(module)):
        if isinstance(node, ast.Call) and _func_name(node.func) == "get_preset" and node.args:
            key = node.args[0]
        elif isinstance(node, ast.Subscript) and _func_name(node.value) == "PRESETS":
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant):
            looked_up.add(key.value)
    return looked_up


def test_every_preset_has_a_runner():
    looked_up = _presets_looked_up()
    # the sources' lookups this check exists for, so a parser that finds
    # nothing fails
    assert {"fig1", "fig2-scaled", "multicascade-tree"} <= looked_up
    idle = sorted(name for name, preset in PRESETS.items()
                  if preset.params.get("scenario") not in HEATMAP_SCENARIOS
                  and name not in looked_up)
    assert not idle, f"presets that no heatmap runs and no source looks up: {idle}"

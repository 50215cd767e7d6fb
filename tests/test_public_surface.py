"""Every public name has a caller outside the tests.

Each name in ``ratejump.__all__`` must be read somewhere in ``src/ratejump``,
``demos`` or ``bench`` other than inside its own definition, or be listed in
``ALLOWED`` with the reason it stays public without such a caller.  A name
that only the tests use is a name to delete, not to export.
"""

import ast
import pathlib

import ratejump

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ("src/ratejump", "demos", "bench")

ALLOWED = {
    "rate_at": "test oracle: the SI infection rate, for the cut identity",
    "jump_at_infection": "test oracle: the rate jump an infection causes",
    "d_max": "the matched error of a multi-jump estimate; no runner scores multi-jump runs yet",
    "min_order_for": "tuning helper, kept for the order and delta sweep on the roadmap",
    "suggest_delta": "tuning helper, kept for the order and delta sweep on the roadmap",
    "false_alarm_study": "runs the const-null preset; only the acceptance test runs it so far",
    "load_daily_regions": "loads every region in one pass; no subcommand or demo reads them all yet",
}


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


def _names_read() -> set:
    reads = _Reads()
    for top in SOURCES:
        for path in sorted((ROOT / top).rglob("*.py")):
            reads.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return reads.names


def test_every_public_name_has_a_caller_or_a_reason():
    read = _names_read()
    uncalled = sorted(set(ratejump.__all__) - read - set(ALLOWED))
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"


def test_every_allowed_name_is_still_public_and_uncalled():
    read = _names_read()
    stale = sorted(name for name in ALLOWED if name not in ratejump.__all__ or name in read)
    assert not stale, f"allowlist entries that are gone or now have a caller: {stale}"
